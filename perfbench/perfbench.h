// End-to-end benchmark for muved: shared declarations.
//
// One muve_perfbench process starts a real muved child on an ephemeral
// port, drives it closed-loop from a few client sessions for a fixed
// number of seconds, checks every answer, and prints metrics by name.
// README.md in this directory explains the workloads and metrics.

#ifndef MUVE_PERFBENCH_PERFBENCH_H_
#define MUVE_PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/recommender.h"
#include "core/utility.h"
#include "data/scale.h"
#include "server/json.h"

namespace muve::perfbench {

using Clock = std::chrono::steady_clock;
using server::JsonValue;

// Nanoseconds since `epoch`.
int64_t NanosSince(Clock::time_point epoch);
double Millis(int64_t nanos);

// ---------------------------------------------------------------------------
// Spans (trace.cc).  Recorded only by the traced run; kept in memory and
// written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  int64_t id = 0;
  int64_t parent = -1;   // -1 = root
  int64_t request = -1;  // request id shared by every span of one request
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Records one span and returns its id (-1 when tracing is off).
  // Thread-safe.
  int64_t Add(std::string name, int64_t parent, int64_t request,
              int64_t start_ns, int64_t end_ns);
  // Sets the end of a span added before its children finished.
  void End(int64_t id, int64_t end_ns);

  // Per span name: how many, summed duration, and summed self time (the
  // duration minus the part of it that child spans cover).
  struct Layer {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Layer> Layers() const;

  common::Status WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// The muved child process and client connections (driver.cc).
// ---------------------------------------------------------------------------

class ServerProcess {
 public:
  // Starts `binary` with `flags` plus --port=0 and waits until it prints
  // one "preloaded" line per dataset in `preloads`.
  static common::Result<std::unique_ptr<ServerProcess>> Launch(
      const std::string& binary, const std::vector<std::string>& flags,
      int preloads);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  // Sends the shutdown op and waits for the process to exit cleanly.
  common::Status Shutdown();

 private:
  ServerProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  common::Status WaitExit(int timeout_ms);

  pid_t pid_;
  int out_fd_;
  int port_ = 0;
};

// One completed request/response exchange, timed client-side.
struct Exchange {
  common::Status status;  // transport or protocol failure
  JsonValue response;
  int64_t start_ns = 0;   // relative to the phase epoch
  int64_t encode_ns = 0;  // JsonValue::Write of the request
  int64_t send_ns = 0;    // WriteFrame
  int64_t await_ns = 0;   // ReadFrame: until the whole response arrived
  int64_t decode_ns = 0;  // ParseJson of the response
  int64_t end_ns = 0;
  size_t response_bytes = 0;
};

// A client session: one connection through the repo's public client path
// (DialLocal, WriteFrame, ReadFrame, ParseJson), no retries.
class Connection {
 public:
  static common::Result<std::unique_ptr<Connection>> Dial(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Exchange Call(const JsonValue& request, Clock::time_point epoch);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
};

// Convenience for setup and verification calls: the parsed response, or
// an error when the transport failed or the server answered ok:false.
common::Result<JsonValue> CallOk(Connection* conn, const JsonValue& request);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc).
// ---------------------------------------------------------------------------

struct Request {
  bool is_append = false;
  bool hot = false;  // drawn from the interactive hot pool
  // Recommend parameters (kept beside the frame for the reference).
  std::string dataset;
  std::string predicate;  // "" = the dataset's default predicate
  std::string scheme;
  core::Weights weights;
  int k = 5;
  // Append rows [append_begin, append_end) of the scale table.
  size_t append_begin = 0;
  size_t append_end = 0;
  std::string csv;
  // Closed-loop think time before this request is sent.
  int think_ms = 0;

  // The frame as sent; include_timings is added only in the traced run
  // and only on frames the result cache cannot serve.
  JsonValue Frame(bool include_timings) const;
};

// One session's request stream.  Deterministic for a (seed, session).
class Stream {
 public:
  virtual ~Stream() = default;
  virtual Request Next() = 0;
};

struct Workload {
  std::string name;
  int sessions = 1;
  // Rows of the scale table created during setup (0 = none).
  size_t scale_rows = 0;
  // Recommends issued once after setup and before the measured phase.
  std::vector<Request> warmup;
  std::function<std::unique_ptr<Stream>(int session)> make_stream;
  // Requests replayed in-process by the traced run, and sampled for the
  // reference comparison.
  int replay_samples = 1;
  int verify_samples = 1;
};

// `small` shrinks the scale table for the self-test.
common::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                      bool small);

// The scale table's generator spec for `rows` initial rows.  Appended
// rows continue the same index space, so any prefix can be rebuilt.
data::ScaleSpec ScaleSpecFor(size_t rows);
inline constexpr const char* kScaleTable = "scale";

// CSV text of scale rows [begin, end) (with the header when begin == 0).
std::string ScaleCsv(const data::ScaleSpec& spec, size_t begin, size_t end);

// ---------------------------------------------------------------------------
// Correctness (reference.cc).
// ---------------------------------------------------------------------------

// Structural check of one ok recommend response: k views (or every view
// when the space has fewer), non-increasing utilities, S = 1/b and
// U = alpha . (D, A, S).  Returns "" when well-formed, else the reason.
std::string CheckStructure(const Request& request, const JsonValue& response,
                           int64_t views_in_space);

// In-process core::Recommender over the same generated data.  Builds and
// caches one recommender per (dataset, predicate).
class Reference {
 public:
  // `scale_rows` > 0 makes the scale table rows [0, scale_rows) available
  // as dataset kScaleTable.
  Reference(size_t scale_rows, const data::ScaleSpec& spec);

  common::Result<const core::Recommender*> Get(const std::string& dataset,
                                               const std::string& predicate);

  // The reference recommendation for `request`.
  common::Result<core::Recommendation> Recommend(const Request& request);

  // The unfiltered table of `dataset`.
  common::Result<std::shared_ptr<const storage::Table>> Table(
      const std::string& dataset);

 private:
  common::Result<data::Dataset> Base(const std::string& dataset);

  size_t scale_rows_;
  data::ScaleSpec spec_;
  std::map<std::string, data::Dataset> bases_;
  std::map<std::string, std::unique_ptr<core::Recommender>> recommenders_;
};

// SearchOptions of a recommend request, resolved like muved resolves it.
common::Result<core::SearchOptions> OptionsFor(const Request& request);

// Compares the server's top-k with the reference's.  Views with tied
// utilities may come in either order.  Returns "" on a match.
std::string CompareTopK(const JsonValue& response,
                        const core::Recommendation& reference);

}  // namespace muve::perfbench

#endif  // MUVE_PERFBENCH_PERFBENCH_H_
