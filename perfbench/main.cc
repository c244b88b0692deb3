// muve_perfbench — one end-to-end run of one workload against a fresh
// muved child.  perfbench/run.py builds this binary and the daemon and
// calls it; README.md in this directory documents the metrics.
//
//   muve_perfbench --workload=interactive --seed=1 --seconds=20
//       --trace=0 --muved=PATH --out-dir=DIR [--small]
//
// Prints the run metadata, the phase ledgers and every metric as
// "name value unit" lines, then one JSON object as the last line.  With
// --trace=0 the metrics are the end-to-end ones, with --trace=1 the
// per-layer ones.  Exits 1 if any operation failed or any answer was
// wrong, 2 on bad flags or a failed setup.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>
#include <thread>

#include "perfbench.h"
#include "sql/parser.h"
#include "storage/fused_scan.h"
#include "storage/predicate.h"

namespace muve::perfbench {
namespace {

using common::Result;
using common::Status;

// Server configuration shared by every workload (also in README.md).
// The queue timeout is lifted (README.md, "Server configuration").
const std::vector<std::string> kServerFlags = {
    "--preload=nba,diab,toy", "--max-concurrent=2", "--queue-timeout-ms=0"};
constexpr int kPreloads = 3;
// Server start-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// Rows per create/append frame while filling the scale table: keeps each
// frame well under the protocol's 16 MiB cap.
constexpr size_t kFillRows = 375'000;
// Identical in-process replays used to show the probe-count spread.
constexpr int kSpreadRepeats = 3;
// latency_p99 needs ten samples beyond it.
constexpr size_t kP99MinSamples = 1000;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string muved;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool small = false;
};

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags f;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i];
    std::string value;
    if (key == "--small") {
      f.small = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return Status::InvalidArgument("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        f.workload = value;
      } else if (key == "--seed") {
        f.seed = std::stoull(value);
      } else if (key == "--seconds") {
        f.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") {
          return Status::InvalidArgument("--trace must be 0 or 1");
        }
        f.trace = value == "1";
      } else if (key == "--muved") {
        f.muved = value;
      } else if (key == "--out-dir") {
        f.out_dir = value;
      } else if (key == "--git-sha") {
        f.git_sha = value;
      } else if (key == "--source-digest") {
        f.source_digest = value;
      } else {
        return Status::InvalidArgument("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value for " + key + ": " + value);
    }
  }
  if (f.workload.empty() || f.muved.empty()) {
    return Status::InvalidArgument("--workload and --muved are required");
  }
  if (!(f.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  return f;
}

// ---------------------------------------------------------------------------
// Small helpers over numbers and JSON.
// ---------------------------------------------------------------------------

// Linear interpolation between order statistics; 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The number at `path` under `v`, or 0 when absent.
double Num(const JsonValue& v, std::initializer_list<const char*> path) {
  const JsonValue* cur = &v;
  for (const char* key : path) {
    cur = cur->Find(key);
    if (cur == nullptr) return 0.0;
  }
  return cur->is_number() ? cur->number_value() : 0.0;
}

bool IsOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

// ---------------------------------------------------------------------------
// Accounting.
// ---------------------------------------------------------------------------

enum class Outcome { kOk, kDegraded, kShed, kError, kTransport };

Outcome Classify(const Exchange& ex) {
  if (!ex.status.ok()) return Outcome::kTransport;
  if (IsOk(ex.response)) {
    const JsonValue* degraded = ex.response.Find("degraded");
    return degraded != nullptr && degraded->is_bool() &&
                   degraded->bool_value()
               ? Outcome::kDegraded
               : Outcome::kOk;
  }
  const JsonValue* error = ex.response.Find("error");
  const JsonValue* code = error == nullptr ? nullptr : error->Find("code");
  if (code != nullptr && code->is_string() &&
      code->string_value() == "unavailable") {
    return Outcome::kShed;
  }
  return Outcome::kError;
}

// Operations of one phase by how they ended.  Sheds are never retried.
struct Ledger {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t errored = 0;
  int64_t transport_failed = 0;
  int64_t mismatched = 0;

  int64_t failed() const {
    return shed + errored + transport_failed + mismatched;
  }

  void Count(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kDegraded: ++degraded; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kError: ++errored; break;
      case Outcome::kTransport: ++transport_failed; break;
    }
  }

  JsonValue ToJson() const {
    JsonValue j = JsonValue::Object();
    j.Set("attempted", JsonValue::Int(attempted));
    j.Set("ok", JsonValue::Int(ok));
    j.Set("degraded", JsonValue::Int(degraded));
    j.Set("shed", JsonValue::Int(shed));
    j.Set("errored", JsonValue::Int(errored));
    j.Set("transport_failed", JsonValue::Int(transport_failed));
    j.Set("mismatched", JsonValue::Int(mismatched));
    return j;
  }
};

// One measured operation.
struct Op {
  Request request;
  Exchange ex;
  Outcome outcome = Outcome::kOk;
  bool timed = false;  // sent with include_timings
  int64_t id = 0;
};

// Metrics in print order, each with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

class Run {
 public:
  Run(Flags flags, Workload workload)
      : flags_(std::move(flags)),
        workload_(std::move(workload)),
        tracer_(flags_.trace) {}

  // Returns the process exit code.
  int Execute();

 private:
  Status Setup();
  Status FillScaleTable(int port);
  Status PrePhase();
  void MeasuredPhase();
  void RecordSpans(const Op& op);
  void CheckAnswers();
  Status Verify();
  Status Replay();
  std::vector<Metric> EndToEndMetrics() const;
  std::vector<Metric> PerLayerMetrics() const;
  std::string RequestDigest() const;
  Result<JsonValue> Stats();

  std::vector<double> RecommendLatenciesMs() const;

  Flags flags_;
  Workload workload_;
  Tracer tracer_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::string> fill_csv_;  // scale table frames, built once

  std::vector<double> setup_s_;
  Ledger setup_ledger_;
  Ledger phase_ledger_;
  Ledger verify_ledger_;
  std::map<std::string, int64_t> views_in_space_;
  std::string simd_ = "unknown";

  std::vector<Op> ops_;
  double window_s_ = 0.0;
  JsonValue stats_before_;
  JsonValue stats_after_;
  size_t appended_rows_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
  // The in-process reference over the final data (built by Verify).
  std::unique_ptr<Reference> reference_;

  // In-process replay (traced run).
  struct ReplayStats {
    double filter_ms = 0.0;
    double fused_ms = 0.0;
    double recommend_ms = 0.0;
    core::ExecStats stats;
  };
  std::vector<ReplayStats> replays_;
  int64_t fully_probed_spread_ = 0;
  std::vector<double> record_ms_;  // per session, traced run only
  std::atomic<int64_t> next_request_id_{0};
};

Status Run::FillScaleTable(int port) {
  MUVE_ASSIGN_OR_RETURN(auto conn, Connection::Dial(port));
  const data::ScaleSpec spec = ScaleSpecFor(workload_.scale_rows);
  for (size_t i = 0; i < fill_csv_.size(); ++i) {
    JsonValue frame = JsonValue::Object();
    frame.Set("op", JsonValue::String(i == 0 ? "create" : "append"));
    frame.Set("table", JsonValue::String(kScaleTable));
    frame.Set("csv", JsonValue::String(fill_csv_[i]));
    if (i == 0) {
      JsonValue dims = JsonValue::Array();
      dims.Append(JsonValue::String("x"));
      dims.Append(JsonValue::String("y"));
      JsonValue measures = JsonValue::Array();
      measures.Append(JsonValue::String("m1"));
      measures.Append(JsonValue::String("m2"));
      frame.Set("dims", std::move(dims));
      frame.Set("measures", std::move(measures));
      frame.Set("predicate", JsonValue::String(data::ScalePredicateSql(spec)));
    }
    Exchange ex = conn->Call(frame, Clock::now());
    const Outcome o = Classify(ex);
    setup_ledger_.Count(o);
    if (o != Outcome::kOk) {
      return Status::Internal("filling the scale table failed: " +
                              (ex.status.ok() ? ex.response.Write()
                                              : ex.status.ToString()));
    }
  }
  return Status::OK();
}

Status Run::Setup() {
  if (workload_.scale_rows > 0) {
    const data::ScaleSpec spec = ScaleSpecFor(workload_.scale_rows);
    for (size_t begin = 0; begin < workload_.scale_rows; begin += kFillRows) {
      fill_csv_.push_back(ScaleCsv(
          spec, begin, std::min(begin + kFillRows, workload_.scale_rows)));
    }
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server_ != nullptr) {
      MUVE_RETURN_IF_ERROR(server_->Shutdown());
      server_.reset();
    }
    const auto t0 = Clock::now();
    MUVE_ASSIGN_OR_RETURN(
        server_, ServerProcess::Launch(flags_.muved, kServerFlags, kPreloads));
    if (workload_.scale_rows > 0) {
      MUVE_RETURN_IF_ERROR(FillScaleTable(server_->port()));
    }
    setup_s_.push_back(static_cast<double>(NanosSince(t0)) / 1e9);
  }
  fill_csv_.clear();
  return Status::OK();
}

Result<JsonValue> Run::Stats() {
  MUVE_ASSIGN_OR_RETURN(auto conn, Connection::Dial(server_->port()));
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::String("stats"));
  return CallOk(conn.get(), request);
}

// Untimed: view counts for the structural check, the SIMD level, and the
// workload's warm-up recommends.
Status Run::PrePhase() {
  MUVE_ASSIGN_OR_RETURN(auto conn, Connection::Dial(server_->port()));
  JsonValue ping = JsonValue::Object();
  ping.Set("op", JsonValue::String("ping"));
  MUVE_ASSIGN_OR_RETURN(JsonValue pong, CallOk(conn.get(), ping));
  if (const JsonValue* simd = pong.Find("simd");
      simd != nullptr && simd->is_string()) {
    simd_ = simd->string_value();
  }
  const std::vector<std::string> datasets =
      workload_.scale_rows > 0 ? std::vector<std::string>{kScaleTable}
                               : std::vector<std::string>{"nba", "diab", "toy"};
  for (const std::string& dataset : datasets) {
    JsonValue use = JsonValue::Object();
    use.Set("op", JsonValue::String("use"));
    use.Set("dataset", JsonValue::String(dataset));
    MUVE_ASSIGN_OR_RETURN(JsonValue r, CallOk(conn.get(), use));
    views_in_space_[dataset] = static_cast<int64_t>(Num(r, {"views"}));
  }
  for (const Request& warm : workload_.warmup) {
    Exchange ex = conn->Call(warm.Frame(false), Clock::now());
    const Outcome o = Classify(ex);
    setup_ledger_.Count(o);
    if (o != Outcome::kOk) {
      return Status::Internal("warm-up failed: " + ex.response.Write());
    }
  }
  MUVE_ASSIGN_OR_RETURN(stats_before_, Stats());
  return Status::OK();
}

void Run::RecordSpans(const Op& op) {
  const Exchange& ex = op.ex;
  const int64_t root = tracer_.Add("request", -1, op.id, ex.start_ns, ex.end_ns);
  int64_t t = ex.start_ns;
  tracer_.Add("client.encode", root, op.id, t, t + ex.encode_ns);
  t += ex.encode_ns;
  tracer_.Add("client.send", root, op.id, t, t + ex.send_ns);
  t += ex.send_ns;
  const int64_t await =
      tracer_.Add("client.await", root, op.id, t, t + ex.await_ns);
  if (op.timed && op.outcome == Outcome::kOk) {
    // The server reports durations only; its intervals are placed inside
    // the await with the wire time split evenly before and after.
    const int64_t queue = static_cast<int64_t>(
        Num(ex.response, {"timings", "queue_ms"}) * 1e6);
    const int64_t exec = static_cast<int64_t>(
        Num(ex.response, {"timings", "exec_ms"}) * 1e6);
    const int64_t wire = std::max<int64_t>(0, ex.await_ns - queue - exec);
    const int64_t q0 = t + wire / 2;
    tracer_.Add("server.queue", await, op.id, q0, q0 + queue);
    tracer_.Add("server.exec", await, op.id, q0 + queue, q0 + queue + exec);
  }
  t += ex.await_ns;
  tracer_.Add("client.decode", root, op.id, t, t + ex.decode_ns);
}

void Run::MeasuredPhase() {
  const auto epoch = Clock::now();
  const auto deadline =
      epoch + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(flags_.seconds));
  std::vector<std::vector<Op>> per_session(workload_.sessions);
  std::vector<int64_t> record_ns(workload_.sessions, 0);
  std::vector<std::thread> threads;
  for (int s = 0; s < workload_.sessions; ++s) {
    threads.emplace_back([this, s, epoch, deadline, &per_session,
                          &record_ns] {
      std::vector<Op>& out = per_session[s];
      auto conn = Connection::Dial(server_->port());
      std::unique_ptr<Stream> stream = workload_.make_stream(s);
      while (true) {
        Op op;
        op.request = stream->Next();
        if (op.request.think_ms > 0) {
          const auto wake =
              Clock::now() + std::chrono::milliseconds(op.request.think_ms);
          if (wake >= deadline) break;
          std::this_thread::sleep_until(wake);
        }
        if (Clock::now() >= deadline) break;
        op.id = next_request_id_++;
        if (!conn.ok()) {
          op.ex.status = conn.status();
          op.outcome = Outcome::kTransport;
          out.push_back(std::move(op));
          break;
        }
        op.timed = flags_.trace && !op.request.hot && !op.request.is_append;
        op.ex = (*conn)->Call(op.request.Frame(op.timed), epoch);
        op.outcome = Classify(op.ex);
        op.request.csv.clear();
        if (flags_.trace) {
          const auto t0 = Clock::now();
          RecordSpans(op);
          record_ns[s] += NanosSince(t0);
        }
        const bool broken = op.outcome == Outcome::kTransport;
        out.push_back(std::move(op));
        if (broken) break;  // no retries: the session ends
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t last_ns = 0;
  for (auto& session : per_session) {
    for (Op& op : session) {
      last_ns = std::max(last_ns, op.ex.end_ns);
      phase_ledger_.Count(op.outcome);
      if (op.outcome == Outcome::kOk && op.request.is_append) {
        appended_rows_ += op.request.append_end - op.request.append_begin;
      }
      if (op.outcome != Outcome::kOk && op.outcome != Outcome::kDegraded &&
          failures_.size() < 5) {
        failures_.push_back(op.ex.status.ok() ? op.ex.response.Write()
                                              : op.ex.status.ToString());
      }
      ops_.push_back(std::move(op));
    }
  }
  window_s_ = static_cast<double>(last_ns) / 1e9;
  // Client time spent recording spans, per request.
  for (int s = 0; s < workload_.sessions; ++s) {
    if (!per_session[s].empty()) {
      record_ms_.push_back(Millis(record_ns[s]) /
                           static_cast<double>(per_session[s].size()));
    }
  }
}

// Structural check of every ok recommend.
void Run::CheckAnswers() {
  for (const Op& op : ops_) {
    if (op.request.is_append || op.outcome != Outcome::kOk) continue;
    const std::string why = CheckStructure(
        op.request, op.ex.response, views_in_space_[op.request.dataset]);
    if (!why.empty()) {
      ++phase_ledger_.mismatched;
      if (failures_.size() < 5) failures_.push_back(why);
    }
  }
}

// Seeded sample of `n` indices out of `size`.
std::vector<size_t> Sample(size_t size, int n, uint64_t seed) {
  std::vector<size_t> idx(size);
  std::iota(idx.begin(), idx.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(std::min(idx.size(), static_cast<size_t>(std::max(n, 0))));
  return idx;
}

std::vector<const Op*> OkRecommends(const std::vector<Op>& ops) {
  std::vector<const Op*> out;
  for (const Op& op : ops) {
    if (!op.request.is_append && op.outcome == Outcome::kOk) {
      out.push_back(&op);
    }
  }
  return out;
}

// The reference comparison, outside the timed window.  On ingest_scan
// the sampled predicates are asked again of the final table.
Status Run::Verify() {
  const size_t final_rows = workload_.scale_rows + appended_rows_;
  reference_ = std::make_unique<Reference>(final_rows,
                                           ScaleSpecFor(workload_.scale_rows));
  const std::vector<const Op*> candidates = OkRecommends(ops_);
  std::unique_ptr<Connection> conn;
  if (workload_.scale_rows > 0) {
    MUVE_ASSIGN_OR_RETURN(conn, Connection::Dial(server_->port()));
    MUVE_ASSIGN_OR_RETURN(JsonValue stats, Stats());
    const double rows = Num(stats, {"tables", kScaleTable, "rows"});
    ++verify_ledger_.attempted;
    if (rows == static_cast<double>(final_rows)) {
      ++verify_ledger_.ok;
    } else {
      ++verify_ledger_.mismatched;
      failures_.push_back("scale table has " + std::to_string(rows) +
                          " rows, expected " + std::to_string(final_rows));
    }
  }
  for (size_t i : Sample(candidates.size(), workload_.verify_samples,
                         flags_.seed ^ 0x5EEDULL)) {
    const Request& request = candidates[i]->request;
    JsonValue response = candidates[i]->ex.response;
    if (conn != nullptr) {
      Exchange ex = conn->Call(request.Frame(false), Clock::now());
      const Outcome o = Classify(ex);
      if (o != Outcome::kOk) {
        verify_ledger_.Count(o);
        failures_.push_back("verification recommend: " + ex.response.Write());
        continue;
      }
      response = std::move(ex.response);
    }
    ++verify_ledger_.attempted;
    auto want = reference_->Recommend(request);
    MUVE_RETURN_IF_ERROR(want.status());
    std::string why = CompareTopK(response, *want);
    if (why.empty()) {
      why = CheckStructure(request, response,
                           views_in_space_[request.dataset]);
    }
    if (why.empty()) {
      ++verify_ledger_.ok;
    } else {
      ++verify_ledger_.mismatched;
      failures_.push_back("reference mismatch on " +
                          request.Frame(false).Write() + ": " + why);
    }
  }
  return Status::OK();
}

// In-process replay of sampled requests with spans around each layer's
// public entry point (traced run only).
Status Run::Replay() {
  Reference& reference = *reference_;
  const std::vector<const Op*> candidates = OkRecommends(ops_);
  const auto epoch = Clock::now();
  bool first = true;
  for (size_t i : Sample(candidates.size(), workload_.replay_samples,
                         flags_.seed ^ 0x7EACEULL)) {
    const Request& request = candidates[i]->request;
    const int64_t id = next_request_id_++;
    const int64_t start = NanosSince(epoch);
    const int64_t root = tracer_.Add("replay", -1, id, start, start);
    MUVE_ASSIGN_OR_RETURN(auto table, reference.Table(request.dataset));
    MUVE_ASSIGN_OR_RETURN(const core::Recommender* rec,
                          reference.Get(request.dataset, request.predicate));
    const data::Dataset& ds = rec->dataset();
    ReplayStats rs;

    MUVE_ASSIGN_OR_RETURN(
        sql::SelectStatement stmt,
        sql::ParseSelect("SELECT * FROM t WHERE " + ds.query_predicate_sql));
    MUVE_RETURN_IF_ERROR(stmt.where->Bind(table->schema()));
    storage::RowSet target;
    int64_t t0 = NanosSince(epoch);
    stmt.where->FilterInto(*table, ds.all_rows, &target);
    int64_t t1 = NanosSince(epoch);
    tracer_.Add("predicate.filter", root, id, t0, t1);
    rs.filter_ms = Millis(t1 - t0);

    std::vector<storage::FusedScanPair> pairs;
    for (const std::string& dim : ds.dimensions) {
      for (const std::string& mea : ds.measures) pairs.push_back({dim, mea});
    }
    t0 = NanosSince(epoch);
    MUVE_RETURN_IF_ERROR(
        storage::FusedBuildBaseHistograms(*table, target, pairs).status());
    MUVE_RETURN_IF_ERROR(
        storage::FusedBuildBaseHistograms(*table, ds.all_rows, pairs)
            .status());
    t1 = NanosSince(epoch);
    tracer_.Add("fused.build", root, id, t0, t1);
    rs.fused_ms = Millis(t1 - t0);

    MUVE_ASSIGN_OR_RETURN(core::SearchOptions options, OptionsFor(request));
    std::vector<int64_t> fully_probed;
    for (int rep = 0; rep < (first ? kSpreadRepeats : 1); ++rep) {
      t0 = NanosSince(epoch);
      MUVE_ASSIGN_OR_RETURN(core::Recommendation out, rec->Recommend(options));
      t1 = NanosSince(epoch);
      fully_probed.push_back(out.stats.fully_probed);
      if (rep == 0) {
        tracer_.Add("search.recommend", root, id, t0, t1);
        rs.recommend_ms = Millis(t1 - t0);
        rs.stats = out.stats;
      }
    }
    if (first) {
      const auto [lo, hi] =
          std::minmax_element(fully_probed.begin(), fully_probed.end());
      fully_probed_spread_ = *hi - *lo;
      first = false;
    }
    replays_.push_back(rs);
    tracer_.End(root, NanosSince(epoch));
  }
  return Status::OK();
}

std::vector<double> Run::RecommendLatenciesMs() const {
  std::vector<double> out;
  for (const Op& op : ops_) {
    if (op.request.is_append) continue;
    if (op.outcome == Outcome::kOk || op.outcome == Outcome::kDegraded) {
      out.push_back(Millis(op.ex.end_ns - op.ex.start_ns));
    }
  }
  return out;
}

std::vector<Metric> Run::EndToEndMetrics() const {
  const std::vector<double> lat = RecommendLatenciesMs();
  return {
      {"setup_s", Percentile(setup_s_, 0.5), "s"},
      {"latency_p50_ms", Percentile(lat, 0.5), "ms"},
      {"latency_p90_ms", Percentile(lat, 0.9), "ms"},
      {"throughput_rps", Ratio(static_cast<double>(lat.size()), window_s_),
       "1/s"},
      {"peak_rss_mb", Num(stats_after_, {"memory", "peak_rss_bytes"}) / 1048576.0,
       "MB"},
  };
}

std::vector<Metric> Run::PerLayerMetrics() const {
  std::vector<double> wire, queue, exec, residual, write, parse, bytes,
      append_lat, chunks, build_rows;
  double base_hits = 0, base_builds = 0, coalesced = 0, delta_merges = 0,
         ingest_rows = 0, appends = 0, recommends = 0;
  for (const Op& op : ops_) {
    const JsonValue& r = op.ex.response;
    if (op.request.is_append) {
      if (op.outcome != Outcome::kOk) continue;
      append_lat.push_back(Millis(op.ex.end_ns - op.ex.start_ns));
      delta_merges += Num(r, {"delta_merges"});
      ingest_rows += Num(r, {"ingest_rows"});
      appends += 1;
      continue;
    }
    recommends += 1;
    write.push_back(Millis(op.ex.encode_ns));
    if (op.outcome != Outcome::kOk) continue;
    parse.push_back(Millis(op.ex.decode_ns));
    bytes.push_back(static_cast<double>(op.ex.response_bytes));
    if (!op.timed) continue;
    const double q = Num(r, {"timings", "queue_ms"});
    const double e = Num(r, {"timings", "exec_ms"});
    wire.push_back(Millis(op.ex.end_ns - op.ex.start_ns) - q - e);
    queue.push_back(q);
    exec.push_back(e);
    residual.push_back(e - Num(r, {"timings", "cost_ms"}));
    chunks.push_back(Num(r, {"stats", "chunks_skipped"}));
    build_rows.push_back(Num(r, {"stats", "build_rows_scanned"}));
    base_hits += Num(r, {"stats", "base_cache_hits"});
    base_builds += Num(r, {"stats", "base_builds"});
    coalesced += Num(r, {"stats", "fused_coalesced"});
  }
  auto diff = [this](std::initializer_list<const char*> path) {
    return Num(stats_after_, path) - Num(stats_before_, path);
  };
  const double shed = diff({"admission", "shed_queue_full"}) +
                      diff({"admission", "shed_timeout"}) +
                      diff({"admission", "shed_deadline"});

  std::vector<double> filter_ms, fused_ms, ct, cc, cd, ca, book, cand, probed,
      nt, nc, nd, na;
  double pruned = 0, considered = 0;
  for (const ReplayStats& rs : replays_) {
    const core::ExecStats& s = rs.stats;
    filter_ms.push_back(rs.filter_ms);
    fused_ms.push_back(rs.fused_ms);
    ct.push_back(s.target_time_ms);
    cc.push_back(s.comparison_time_ms);
    cd.push_back(s.deviation_time_ms);
    ca.push_back(s.accuracy_time_ms);
    nt.push_back(static_cast<double>(s.target_queries));
    nc.push_back(static_cast<double>(s.comparison_queries));
    nd.push_back(static_cast<double>(s.deviation_evals));
    na.push_back(static_cast<double>(s.accuracy_evals));
    book.push_back(rs.recommend_ms - s.TotalCostMillis());
    cand.push_back(static_cast<double>(s.candidates_considered));
    probed.push_back(static_cast<double>(s.fully_probed));
    pruned += static_cast<double>(s.pruned_before_probes +
                                  s.pruned_after_first_probe);
    considered += static_cast<double>(s.candidates_considered);
  }
  const std::vector<double> lat = RecommendLatenciesMs();
  const int64_t attempted = phase_ledger_.attempted + verify_ledger_.attempted;
  const int64_t failed = phase_ledger_.failed() + verify_ledger_.failed();
  return {
      {"server.protocol.wire_ms", Percentile(wire, 0.5), "ms"},
      {"server.protocol.response_bytes", Mean(bytes), "bytes"},
      {"server.json.write_ms", Mean(write), "ms"},
      {"server.json.parse_ms", Mean(parse), "ms"},
      {"server.admission.queue_p50_ms", Percentile(queue, 0.5), "ms"},
      {"server.admission.queue_p90_ms", Percentile(queue, 0.9), "ms"},
      {"server.admission.queue_peak_depth",
       Num(stats_after_, {"admission", "queue_peak_depth"}), "count"},
      {"server.admission.shed", shed, "count"},
      {"server.resolve.result_cache_hit_frac",
       Ratio(diff({"result_cache_hits"}), recommends), "ratio"},
      {"server.exec.exec_p50_ms", Percentile(exec, 0.5), "ms"},
      {"server.exec.search_residual_ms", Percentile(residual, 0.5), "ms"},
      {"storage.selection_cache.hit_frac",
       Ratio(diff({"selection_cache", "hits"}),
             diff({"selection_cache", "lookups"})),
       "ratio"},
      {"storage.predicate.filter_ms", Mean(filter_ms), "ms"},
      {"storage.predicate.chunks_skipped", Mean(chunks), "count"},
      {"storage.fused_scan.rows_scanned", Mean(build_rows), "rows"},
      {"storage.fused_scan.build_ms", Mean(fused_ms), "ms"},
      {"storage.fused_scan.coalesced", coalesced, "count"},
      {"storage.fused_scan.base_cache_hit_frac",
       Ratio(base_hits, base_hits + base_builds), "ratio"},
      {"storage.ingest.delta_merges", Ratio(delta_merges, appends), "count"},
      {"storage.ingest.ingest_rows_per_row",
       Ratio(ingest_rows, static_cast<double>(appended_rows_)), "ratio"},
      {"storage.ingest.tables_resident_mb",
       Num(stats_after_, {"memory", "tables_resident_bytes"}) / 1048576.0,
       "MB"},
      {"core.search.cost_t_ms", Mean(ct), "ms"},
      {"core.search.cost_c_ms", Mean(cc), "ms"},
      {"core.search.cost_d_ms", Mean(cd), "ms"},
      {"core.search.cost_a_ms", Mean(ca), "ms"},
      {"core.search.target_queries", Mean(nt), "count"},
      {"core.search.comparison_queries", Mean(nc), "count"},
      {"core.search.deviation_evals", Mean(nd), "count"},
      {"core.search.accuracy_evals", Mean(na), "count"},
      {"core.search.bookkeeping_ms", Mean(book), "ms"},
      {"core.search.candidates", Mean(cand), "count"},
      {"core.search.fully_probed", Mean(probed), "count"},
      {"core.search.fully_probed_spread",
       static_cast<double>(fully_probed_spread_), "count"},
      {"core.search.pruned_frac", Ratio(pruned, considered), "ratio"},
      {"bench.client.samples", static_cast<double>(lat.size()), "count"},
      {"bench.client.latency_p99_ms",
       lat.size() >= kP99MinSamples ? Percentile(lat, 0.99) : 0.0, "ms"},
      {"bench.client.append_p50_ms", Percentile(append_lat, 0.5), "ms"},
      {"bench.client.failed_frac",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"bench.trace.latency_p50_ms", Percentile(lat, 0.5), "ms"},
      {"bench.trace.record_ms", Mean(record_ms_), "ms"},
  };
}

// Digest of the first frames of every session's stream: a different
// seed must change it.
std::string Run::RequestDigest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (int s = 0; s < workload_.sessions; ++s) {
    std::unique_ptr<Stream> stream = workload_.make_stream(s);
    for (int i = 0; i < 16; ++i) {
      const Request r = stream->Next();
      for (char c : r.Frame(false).Write() + std::to_string(r.think_ms)) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int Run::Execute() {
  JsonValue meta = JsonValue::Object();
  meta.Set("workload", JsonValue::String(workload_.name));
  meta.Set("seed", JsonValue::Int(static_cast<int64_t>(flags_.seed)));
  meta.Set("seconds", JsonValue::Double(flags_.seconds));
  meta.Set("trace", JsonValue::Bool(flags_.trace));
  meta.Set("git_sha", JsonValue::String(flags_.git_sha));
  meta.Set("source_digest", JsonValue::String(flags_.source_digest));
  meta.Set("nproc", JsonValue::Int(static_cast<int64_t>(
                        std::thread::hardware_concurrency())));
  meta.Set("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE));
  JsonValue server_flags = JsonValue::Array();
  server_flags.Append(JsonValue::String("--port=0"));
  for (const std::string& f : kServerFlags) {
    server_flags.Append(JsonValue::String(f));
  }
  meta.Set("server_flags", std::move(server_flags));
  meta.Set("sessions", JsonValue::Int(workload_.sessions));
  meta.Set("scale_rows",
           JsonValue::Int(static_cast<int64_t>(workload_.scale_rows)));
  meta.Set("request_digest", JsonValue::String(RequestDigest()));

  Status st = Setup();
  if (st.ok()) st = PrePhase();
  if (!st.ok()) {
    std::cerr << "perfbench: setup failed: " << st.ToString() << "\n";
    return 2;
  }
  meta.Set("simd", JsonValue::String(simd_));
  MeasuredPhase();
  auto after = Stats();
  if (!after.ok()) {
    std::cerr << "perfbench: stats failed: " << after.status().ToString()
              << "\n";
    return 2;
  }
  stats_after_ = std::move(after).value();
  CheckAnswers();
  st = Verify();
  if (st.ok() && flags_.trace) st = Replay();
  if (st.ok()) st = server_->Shutdown();
  server_.reset();
  if (!st.ok()) {
    std::cerr << "perfbench: " << st.ToString() << "\n";
    return 2;
  }

  const std::vector<Metric> e2e = EndToEndMetrics();
  const std::vector<Metric> layers = PerLayerMetrics();
  const int64_t attempted = phase_ledger_.attempted + verify_ledger_.attempted;
  const int64_t failed = phase_ledger_.failed() + verify_ledger_.failed();
  const bool correct = failed == 0;

  JsonValue ledgers = JsonValue::Object();
  ledgers.Set("setup", setup_ledger_.ToJson());
  ledgers.Set("measured", phase_ledger_.ToJson());
  ledgers.Set("verify", verify_ledger_.ToJson());
  meta.Set("latency_samples",
           JsonValue::Int(static_cast<int64_t>(RecommendLatenciesMs().size())));
  JsonValue setups = JsonValue::Array();
  for (double s : setup_s_) setups.Append(JsonValue::Double(s));
  meta.Set("setup_runs_s", std::move(setups));
  std::cout << "meta " << meta.Write() << "\n";
  std::cout << "ledgers " << ledgers.Write() << "\n";
  for (const std::string& f : failures_) std::cout << "failure " << f << "\n";

  JsonValue all = JsonValue::Object();
  for (const auto* set : {&e2e, &layers}) {
    for (const Metric& m : *set) {
      std::cout << "metric " << m.name << " " << m.value << " " << m.unit
                << "\n";
      JsonValue j = JsonValue::Object();
      j.Set("value", JsonValue::Double(m.value));
      j.Set("unit", JsonValue::String(m.unit));
      all.Set(m.name, std::move(j));
    }
  }
  if (flags_.trace) {
    for (const auto& [name, layer] : tracer_.Layers()) {
      std::cout << "span " << name << " count=" << layer.count
                << " total_ms=" << layer.total_ms
                << " self_ms=" << layer.self_ms << "\n";
    }
  }

  const std::string stem = flags_.out_dir + "/" + workload_.name + "-seed" +
                           std::to_string(flags_.seed) + "-trace" +
                           (flags_.trace ? "1" : "0");
  JsonValue record = JsonValue::Object();
  record.Set("meta", meta);
  record.Set("ledgers", ledgers);
  record.Set("metrics", all);
  {
    std::ofstream out(stem + ".json");
    out << record.Write() << "\n";
  }
  if (flags_.trace) {
    if (Status w = tracer_.WriteJson(stem + ".spans.json"); !w.ok()) {
      std::cerr << "perfbench: " << w.ToString() << "\n";
    }
  }

  JsonValue metrics = JsonValue::Object();
  for (const Metric& m : flags_.trace ? layers : e2e) {
    JsonValue j = JsonValue::Object();
    j.Set("value", JsonValue::Double(m.value));
    j.Set("unit", JsonValue::String(m.unit));
    metrics.Set(m.name, std::move(j));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Int(attempted));
  result.Set("failed", JsonValue::Int(failed));
  result.Set("metrics", std::move(metrics));
  std::cout << result.Write() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace muve::perfbench

int main(int argc, char** argv) {
  using namespace muve::perfbench;
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::cerr << "muve_perfbench: " << flags.status().message() << "\n";
    return 2;
  }
  auto workload = MakeWorkload(flags->workload, flags->seed, flags->small);
  if (!workload.ok()) {
    std::cerr << "muve_perfbench: " << workload.status().message() << "\n";
    return 2;
  }
  Run run(std::move(flags).value(), std::move(workload).value());
  return run.Execute();
}
