// The muved child process and the benchmark's client connections.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "perfbench.h"
#include "server/protocol.h"

namespace muve::perfbench {

using common::Result;
using common::Status;

namespace {

constexpr int kReadyTimeoutMs = 120000;
constexpr int kExitTimeoutMs = 20000;

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const std::string& binary, const std::vector<std::string>& flags,
    int preloads) {
  std::vector<std::string> args = {binary, "--port=0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.  The daemon must
    // not outlive the benchmark, even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, fds[0]));

  // Read the daemon's stdout until its port and every preload appear.
  std::string buffer;
  int preloaded = 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(kReadyTimeoutMs);
  while (proc->port_ == 0 || preloaded < preloads) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return Status::DeadlineExceeded("muved did not get ready");
    pollfd p{proc->out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(proc->out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("muved exited during start-up");
    buffer.append(chunk, static_cast<size_t>(n));
    size_t eol;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      const std::string marker = "listening on 127.0.0.1:";
      const size_t at = line.find(marker);
      if (at != std::string::npos) {
        proc->port_ = std::atoi(line.c_str() + at + marker.size());
      }
      if (line.find("muved: preloaded ") != std::string::npos) ++preloaded;
    }
  }
  return proc;
}

Status ServerProcess::WaitExit(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    // Keep the daemon's stdout drained so its final log line never
    // blocks on a full pipe.
    char chunk[4096];
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10) > 0) (void)::read(out_fd_, chunk, sizeof(chunk));
    int wstatus = 0;
    const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
      return Status::Internal("muved exited abnormally (status " +
                              std::to_string(wstatus) + ")");
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return Status::IoError(std::string("waitpid: ") + std::strerror(errno));
    }
  }
  return Status::DeadlineExceeded("muved did not exit");
}

Status ServerProcess::Shutdown() {
  if (pid_ <= 0) return Status::OK();
  auto conn = Connection::Dial(port_);
  if (conn.ok()) {
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("shutdown"));
    (void)CallOk(conn->get(), request);
  }
  return WaitExit(kExitTimeoutMs);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!WaitExit(kExitTimeoutMs).ok() && pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

Result<std::unique_ptr<Connection>> Connection::Dial(int port) {
  MUVE_ASSIGN_OR_RETURN(const int fd, server::DialLocal(port));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Exchange Connection::Call(const JsonValue& request, Clock::time_point epoch) {
  Exchange ex;
  const auto t0 = Clock::now();
  ex.start_ns = NanosSince(epoch);
  const std::string payload = request.Write();
  const auto t1 = Clock::now();
  ex.status = server::WriteFrame(fd_, payload);
  const auto t2 = Clock::now();
  std::string reply;
  if (ex.status.ok()) ex.status = server::ReadFrame(fd_, &reply);
  const auto t3 = Clock::now();
  if (ex.status.ok()) {
    auto parsed = server::ParseJson(reply);
    if (parsed.ok()) {
      ex.response = std::move(parsed).value();
    } else {
      ex.status = parsed.status();
    }
  }
  const auto t4 = Clock::now();
  auto ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  };
  ex.encode_ns = ns(t0, t1);
  ex.send_ns = ns(t1, t2);
  ex.await_ns = ns(t2, t3);
  ex.decode_ns = ns(t3, t4);
  ex.end_ns = ex.start_ns + ns(t0, t4);
  ex.response_bytes = reply.size();
  return ex;
}

Result<JsonValue> CallOk(Connection* conn, const JsonValue& request) {
  Exchange ex = conn->Call(request, Clock::now());
  MUVE_RETURN_IF_ERROR(ex.status);
  const JsonValue* ok = ex.response.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return Status::Internal("server error: " + ex.response.Write());
  }
  return std::move(ex.response);
}

}  // namespace muve::perfbench
