// Behaviour corpus: a fixed, enumerated grid of recommendation runs whose
// output is pinned byte for byte against tests/golden/behaviour_corpus.golden.
//
// Grid: {toy, DIAB, NBA} at the CLI's default workload (3 dimensions x 3
// measures x 3 functions) x the 4 schemes x {no approximation, view
// refinement, view skipping} x 5 points on the weight simplex x k in
// {1, 5} x the 3 probe orders, all at one thread.  Each run records the
// scheme name and, per top-k entry, the view, its bin count and D / A /
// S / U as hexfloats, so any change in an objective value — down to the
// last bit — shows.  Runs under the two fixed probe orders also record
// the deterministic counters (candidates, probes, pruning, queries,
// rows, base-histogram builds/hits, fused passes).  The default priority
// rule is fed by wall-clock probe timings, so its counters vary between
// identical runs; those runs pin the top-k only.
//
// A simplification that claims "same behaviour" must leave this file
// unchanged.  Refreshing after an intentional behaviour change:
//
//   MUVE_UPDATE_GOLDEN=1 ./behaviour_corpus_test
//
// rewrites the golden in the source tree; re-run without the variable
// and commit the diff alongside the change that caused it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "data/dataset.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/toy.h"

#ifndef MUVE_GOLDEN_DIR
#error "MUVE_GOLDEN_DIR must be defined by the build"
#endif

namespace muve::core {
namespace {

struct SchemeSpec {
  const char* name;
  HorizontalStrategy horizontal;
  VerticalStrategy vertical;
};

struct ApproxSpec {
  const char* name;
  VerticalApproximation approximation;
};

struct WeightSpec {
  const char* name;
  Weights weights;
};

struct OrderSpec {
  const char* name;
  ProbeOrderPolicy policy;
  bool pin_counters;
};

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void AppendRun(const Recommendation& rec, bool pin_counters,
               std::ostringstream* out) {
  *out << "  scheme=" << rec.scheme << "\n";
  for (size_t i = 0; i < rec.views.size(); ++i) {
    const ScoredView& sv = rec.views[i];
    *out << "  " << (i + 1) << ". " << sv.view.Label() << " b=" << sv.bins
         << " D=" << Hex(sv.deviation) << " A=" << Hex(sv.accuracy)
         << " S=" << Hex(sv.usability) << " U=" << Hex(sv.utility) << "\n";
  }
  if (!pin_counters) return;
  const ExecStats& s = rec.stats;
  *out << "  candidates=" << s.candidates_considered
       << " full=" << s.fully_probed << " pruned0=" << s.pruned_before_probes
       << " pruned1=" << s.pruned_after_first_probe
       << " early_term=" << s.early_terminations
       << " queries(t/c)=" << s.target_queries << "/" << s.comparison_queries
       << " rows(b/p)=" << s.build_rows_scanned << "/" << s.probe_rows_scanned
       << " base(b/h)=" << s.base_builds << "/" << s.base_cache_hits
       << " fused=" << s.fused_builds << "\n";
}

std::string RunCorpus() {
  const std::vector<data::Dataset> datasets = {
      data::WithWorkloadSize(data::MakeToyDataset(), 3, 3, 3),
      data::WithWorkloadSize(data::MakeDiabDataset(), 3, 3, 3),
      data::WithWorkloadSize(data::MakeNbaDataset(), 3, 3, 3),
  };
  const SchemeSpec schemes[] = {
      {"linear-linear", HorizontalStrategy::kLinear, VerticalStrategy::kLinear},
      {"hc-linear", HorizontalStrategy::kHillClimbing,
       VerticalStrategy::kLinear},
      {"muve-linear", HorizontalStrategy::kMuve, VerticalStrategy::kLinear},
      {"muve-muve", HorizontalStrategy::kMuve, VerticalStrategy::kMuve},
  };
  const ApproxSpec approximations[] = {
      {"none", VerticalApproximation::kNone},
      {"refine", VerticalApproximation::kRefinement},
      {"skip", VerticalApproximation::kSkipping},
  };
  const WeightSpec weights[] = {
      {"0.6,0.2,0.2", {0.6, 0.2, 0.2}},
      {"0.4,0.4,0.2", {0.4, 0.4, 0.2}},
      {"0.2,0.6,0.2", {0.2, 0.6, 0.2}},
      {"0.2,0.2,0.6", Weights::PaperDefault()},
      {"equal", Weights::Equal()},
  };
  const int ks[] = {1, 5};
  const OrderSpec orders[] = {
      {"priority", ProbeOrderPolicy::kPriorityRule, false},
      {"deviation-first", ProbeOrderPolicy::kDeviationFirst, true},
      {"accuracy-first", ProbeOrderPolicy::kAccuracyFirst, true},
  };

  std::ostringstream out;
  for (const data::Dataset& dataset : datasets) {
    auto recommender = Recommender::Create(dataset);
    EXPECT_TRUE(recommender.ok()) << recommender.status().ToString();
    if (!recommender.ok()) return "";
    for (const SchemeSpec& scheme : schemes) {
      for (const ApproxSpec& approx : approximations) {
        for (const WeightSpec& w : weights) {
          for (const int k : ks) {
            for (const OrderSpec& order : orders) {
              SearchOptions options;
              options.horizontal = scheme.horizontal;
              options.vertical = scheme.vertical;
              options.approximation = approx.approximation;
              options.weights = w.weights;
              options.k = k;
              options.probe_order = order.policy;
              options.num_threads = 1;
              out << "[" << dataset.name << " " << scheme.name << " "
                  << approx.name << " w=" << w.name << " k=" << k
                  << " order=" << order.name << "]\n";
              auto rec = recommender->Recommend(options);
              if (!rec.ok()) {
                out << "  error=" << rec.status().ToString() << "\n";
                continue;
              }
              AppendRun(*rec, order.pin_counters, &out);
            }
          }
        }
      }
    }
  }
  return out.str();
}

TEST(BehaviourCorpusTest, MatchesGolden) {
  const std::string golden_path =
      std::string(MUVE_GOLDEN_DIR) + "/behaviour_corpus.golden";
  const std::string actual = RunCorpus();
  ASSERT_FALSE(actual.empty());

  if (std::getenv("MUVE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden refreshed: " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " — run with MUVE_UPDATE_GOLDEN=1 to create it";
  std::ostringstream expected_stream;
  expected_stream << in.rdbuf();
  const std::string expected = expected_stream.str();
  if (actual == expected) return;

  // Report the first differing line with its run header, not two
  // half-megabyte strings.
  std::istringstream actual_lines(actual);
  std::istringstream expected_lines(expected);
  std::string a;
  std::string e;
  std::string header;
  int line = 0;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(actual_lines, a));
    const bool has_e = static_cast<bool>(std::getline(expected_lines, e));
    ++line;
    if (!has_a && !has_e) break;
    if (has_e && !e.empty() && e[0] == '[') header = e;
    if (!has_a || !has_e || a != e) {
      ADD_FAILURE() << "behaviour drifted from " << golden_path << " at line "
                    << line << " in run " << header << "\n  expected: "
                    << (has_e ? e : "<end of file>")
                    << "\n  actual:   " << (has_a ? a : "<end of output>")
                    << "\nif intentional, refresh with MUVE_UPDATE_GOLDEN=1";
      return;
    }
  }
  ADD_FAILURE() << "behaviour drifted from " << golden_path;
}

}  // namespace
}  // namespace muve::core
