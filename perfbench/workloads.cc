// The three workloads: seeded request streams, one per client session.
// README.md in this directory says why each exists.

#include <random>
#include <sstream>

#include "perfbench.h"

namespace muve::perfbench {

using common::Result;
using common::Status;

namespace {

using Rng = std::mt19937_64;

int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

bool Chance(Rng& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[static_cast<size_t>(
      Uniform(rng, 0, static_cast<int64_t>(items.size()) - 1))];
}

// Weights in thousandths with alpha_S in [s_lo, s_hi]; the rest is split
// between alpha_D and alpha_A at random.
core::Weights DrawWeights(Rng& rng, int s_lo, int s_hi) {
  const int64_t s = Uniform(rng, s_lo, s_hi);
  const int64_t d = Uniform(rng, 0, 1000 - s);
  const int64_t a = 1000 - s - d;
  return core::Weights{static_cast<double>(d) / 1000.0,
                       static_cast<double>(a) / 1000.0,
                       static_cast<double>(s) / 1000.0};
}

Rng SessionRng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream)};
  return Rng(seq);
}

const std::vector<int> kInteractiveK = {1, 3, 5, 10};

// interactive: light recommends over the three built-in datasets, half
// of them exact repeats from a hot pool shared by every session.
class InteractiveStream : public Stream {
 public:
  InteractiveStream(uint64_t seed, int session)
      : rng_(SessionRng(seed, 100 + session)) {
    Rng pool_rng = SessionRng(seed, 99);
    for (int i = 0; i < 8; ++i) hot_.push_back(Fresh(pool_rng));
    for (Request& r : hot_) r.hot = true;
  }

  Request Next() override {
    if (Chance(rng_, 0.5)) return Pick(rng_, hot_);
    return Fresh(rng_);
  }

 private:
  static Request Fresh(Rng& rng) {
    static const std::vector<std::pair<std::string, std::vector<std::string>>>
        kPools = {
            {"nba", {"", "Team = 'CLE'", "Age >= 30"}},
            {"diab", {"", "Outcome = 0", "Age >= 40"}},
            {"toy", {"", "grp = 'b'"}},
        };
    const auto& [dataset, predicates] = Pick(rng, kPools);
    Request r;
    r.dataset = dataset;
    r.predicate = Pick(rng, predicates);
    r.scheme = "muve-muve";
    r.weights = DrawWeights(rng, 500, 800);
    r.k = Pick(rng, kInteractiveK);
    return r;
  }

  Rng rng_;
  std::vector<Request> hot_;
};

// probe_heavy: all-distinct NBA recommends whose low alpha_S keeps the
// S-bound from pruning, over warm base histograms.  Each session cycles
// through the three schemes from a seeded offset, so the scheme mix of a
// run does not depend on the seed.
class ProbeHeavyStream : public Stream {
 public:
  ProbeHeavyStream(uint64_t seed, int session)
      : rng_(SessionRng(seed, 200 + session)), turn_(Uniform(rng_, 0, 2)) {}

  Request Next() override {
    static const std::vector<std::string> kSchemes = {
        "muve-muve", "muve-linear", "linear-linear"};
    Request r;
    r.dataset = "nba";
    r.scheme = kSchemes[static_cast<size_t>(turn_++ % 3)];
    r.weights = DrawWeights(rng_, 50, 200);
    r.k = Pick(rng_, kInteractiveK);
    return r;
  }

 private:
  Rng rng_;
  int64_t turn_;
};

// ingest_scan reader: recommends over the scale table, mostly on
// predicates it has not sent before, sometimes repeating one.  Each
// session cycles through a fixed pattern of predicate kinds from a
// seeded offset, so the mix of a run does not depend on the seed.
class ScanReaderStream : public Stream {
 public:
  ScanReaderStream(uint64_t seed, int session, int64_t max_day)
      : rng_(SessionRng(seed, 300 + session)),
        max_day_(max_day),
        turn_(Uniform(rng_, 0, 4)) {}

  Request Next() override {
    enum Kind { kDayRange, kRegion, kX, kRepeat };
    static const Kind kPattern[] = {kDayRange, kRegion, kRepeat, kDayRange,
                                    kX};
    static const std::vector<std::string> kRegions = {"north", "south",
                                                      "east", "west"};
    Kind kind = kPattern[turn_++ % 5];
    if (kind == kRepeat && history_.empty()) kind = kDayRange;
    Request r;
    r.dataset = kScaleTable;
    if (kind == kRepeat) {
      r.predicate = Pick(rng_, history_);
    } else {
      // Parameter ranges are narrow so that one run's cost does not
      // hinge on the seed: a day range holds 4 days (~6% of the initial
      // rows) and the x thresholds keep 40-60% of the rows.
      if (kind == kDayRange) {
        // Selective and clustered: zone maps skip the chunks outside it.
        const int64_t lo = Uniform(rng_, 0, max_day_ - 3);
        r.predicate = "day >= " + std::to_string(lo) +
                      " AND day <= " + std::to_string(lo + 3);
      } else if (kind == kRegion) {
        r.predicate = "region = '" + Pick(rng_, kRegions) +
                      "' AND x >= " + std::to_string(Uniform(rng_, 30, 50));
      } else {
        r.predicate = "x >= " + std::to_string(Uniform(rng_, 45, 65));
      }
      history_.push_back(r.predicate);
    }
    r.scheme = "muve-muve";
    r.weights = DrawWeights(rng_, 200, 600);
    r.k = static_cast<int>(Uniform(rng_, 3, 5));
    return r;
  }

 private:
  Rng rng_;
  int64_t max_day_;
  int64_t turn_;
  std::vector<std::string> history_;
};

// ingest_scan writer: 10k-row appends after seeded think times.
class ScanWriterStream : public Stream {
 public:
  static constexpr size_t kAppendRows = 10000;

  ScanWriterStream(uint64_t seed, size_t rows)
      : rng_(SessionRng(seed, 400)), spec_(ScaleSpecFor(rows)), next_(rows) {}

  Request Next() override {
    Request r;
    r.is_append = true;
    r.append_begin = next_;
    r.append_end = next_ + kAppendRows;
    r.csv = ScaleCsv(spec_, r.append_begin, r.append_end);
    r.think_ms = static_cast<int>(Uniform(rng_, 400, 600));
    next_ = r.append_end;
    return r;
  }

 private:
  Rng rng_;
  data::ScaleSpec spec_;
  size_t next_;
};

}  // namespace

JsonValue Request::Frame(bool include_timings) const {
  JsonValue f = JsonValue::Object();
  if (is_append) {
    f.Set("op", JsonValue::String("append"));
    f.Set("table", JsonValue::String(kScaleTable));
    f.Set("csv", JsonValue::String(csv));
    return f;
  }
  f.Set("op", JsonValue::String("recommend"));
  f.Set("dataset", JsonValue::String(dataset));
  if (!predicate.empty()) f.Set("predicate", JsonValue::String(predicate));
  f.Set("scheme", JsonValue::String(scheme));
  f.Set("k", JsonValue::Int(k));
  JsonValue w = JsonValue::Array();
  w.Append(JsonValue::Double(weights.deviation));
  w.Append(JsonValue::Double(weights.accuracy));
  w.Append(JsonValue::Double(weights.usability));
  f.Set("weights", std::move(w));
  if (include_timings) f.Set("include_timings", JsonValue::Bool(true));
  return f;
}

data::ScaleSpec ScaleSpecFor(size_t rows) {
  data::ScaleSpec spec;
  spec.rows = rows;
  return spec;
}

std::string ScaleCsv(const data::ScaleSpec& spec, size_t begin, size_t end) {
  std::ostringstream out;
  // Appends carry the header too: muved checks it against the schema.
  if (begin > 0) out << "day,region,x,y,m1,m2\n";
  data::WriteScaleCsv(out, spec, begin, end);
  return out.str();
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              bool small) {
  Workload w;
  w.name = name;
  if (name == "interactive") {
    w.sessions = 3;
    w.make_stream = [seed](int session) {
      return std::make_unique<InteractiveStream>(seed, session);
    };
    w.replay_samples = 30;
    w.verify_samples = 30;
  } else if (name == "probe_heavy") {
    w.sessions = 4;
    w.make_stream = [seed](int session) {
      return std::make_unique<ProbeHeavyStream>(seed, session);
    };
    // Warms the shared base histograms of NBA's default predicate.
    Request warm;
    warm.dataset = "nba";
    warm.scheme = "muve-muve";
    warm.weights = core::Weights{0.4, 0.3, 0.3};
    w.warmup.push_back(warm);
    w.replay_samples = 3;
    w.verify_samples = 2;
  } else if (name == "ingest_scan") {
    w.scale_rows = small ? 200'000 : size_t{1} << 20;
    w.sessions = 3;  // two readers, one writer
    const size_t rows = w.scale_rows;
    const int64_t max_day =
        static_cast<int64_t>((rows - 1) / (rows / 64));
    w.make_stream = [seed, rows, max_day](int session) -> std::unique_ptr<Stream> {
      if (session == 2) return std::make_unique<ScanWriterStream>(seed, rows);
      return std::make_unique<ScanReaderStream>(seed, session, max_day);
    };
    w.replay_samples = 3;
    w.verify_samples = 3;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (expected interactive, probe_heavy or ingest_scan)");
  }
  return w;
}

}  // namespace muve::perfbench
