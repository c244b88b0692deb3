// The correctness gate: structural checks on every answer, and an
// in-process core::Recommender reference for a seeded sample.

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/diab.h"
#include "data/nba.h"
#include "data/toy.h"
#include "perfbench.h"
#include "sql/parser.h"
#include "storage/aggregate.h"
#include "storage/predicate.h"

namespace muve::perfbench {

using common::Result;
using common::Status;

namespace {

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

struct ViewKey {
  std::string key;  // dimension|measure|function|bins
  double utility = 0.0;
};

std::vector<ViewKey> ServerViews(const JsonValue& response) {
  std::vector<ViewKey> out;
  const JsonValue* views = response.Find("views");
  if (views == nullptr || !views->is_array()) return out;
  for (const JsonValue& v : views->array()) {
    const JsonValue* dim = v.Find("dimension");
    const JsonValue* mea = v.Find("measure");
    const JsonValue* fn = v.Find("function");
    const JsonValue* bins = v.Find("bins");
    const JsonValue* utility = v.Find("utility");
    if (dim == nullptr || mea == nullptr || fn == nullptr || bins == nullptr ||
        utility == nullptr || !dim->is_string() || !mea->is_string() ||
        !fn->is_string() || !bins->is_int() || !utility->is_number()) {
      return {};
    }
    out.push_back({dim->string_value() + "|" + mea->string_value() + "|" +
                       fn->string_value() + "|" +
                       std::to_string(bins->int_value()),
                   utility->number_value()});
  }
  return out;
}

}  // namespace

std::string CheckStructure(const Request& request, const JsonValue& response,
                           int64_t views_in_space) {
  const JsonValue* views = response.Find("views");
  if (views == nullptr || !views->is_array()) return "no views array";
  const size_t expected = static_cast<size_t>(
      std::min<int64_t>(request.k, views_in_space));
  if (views->array().size() != expected) {
    return "expected " + std::to_string(expected) + " views, got " +
           std::to_string(views->array().size());
  }
  const core::Weights& w = request.weights;
  double previous = std::numeric_limits<double>::infinity();
  for (const JsonValue& v : views->array()) {
    const JsonValue* bins = v.Find("bins");
    const JsonValue* u = v.Find("utility");
    const JsonValue* d = v.Find("deviation");
    const JsonValue* a = v.Find("accuracy");
    const JsonValue* s = v.Find("usability");
    if (bins == nullptr || u == nullptr || d == nullptr || a == nullptr ||
        s == nullptr || !bins->is_int() || !u->is_number() ||
        !d->is_number() || !a->is_number() || !s->is_number()) {
      return "malformed view " + v.Write();
    }
    if (bins->int_value() < 1) return "bins < 1 in " + v.Write();
    if (!Near(s->number_value(),
              1.0 / static_cast<double>(bins->int_value()))) {
      return "S != 1/b in " + v.Write();
    }
    const double expect_u = w.deviation * d->number_value() +
                            w.accuracy * a->number_value() +
                            w.usability * s->number_value();
    if (!Near(u->number_value(), expect_u)) {
      return "U != alpha.(D,A,S) in " + v.Write();
    }
    if (u->number_value() > previous + 1e-12) {
      return "utilities increase at " + v.Write();
    }
    previous = u->number_value();
  }
  return "";
}

Result<core::SearchOptions> OptionsFor(const Request& request) {
  core::SearchOptions options;
  if (request.scheme == "linear-linear") {
    options.horizontal = core::HorizontalStrategy::kLinear;
    options.vertical = core::VerticalStrategy::kLinear;
  } else if (request.scheme == "muve-linear") {
    options.horizontal = core::HorizontalStrategy::kMuve;
    options.vertical = core::VerticalStrategy::kLinear;
  } else if (request.scheme == "muve-muve") {
    options.horizontal = core::HorizontalStrategy::kMuve;
    options.vertical = core::VerticalStrategy::kMuve;
  } else {
    return Status::InvalidArgument("scheme " + request.scheme);
  }
  options.weights = request.weights;
  options.k = request.k;
  return options;
}

Reference::Reference(size_t scale_rows, const data::ScaleSpec& spec)
    : scale_rows_(scale_rows), spec_(spec) {}

Result<data::Dataset> Reference::Base(const std::string& dataset) {
  auto it = bases_.find(dataset);
  if (it != bases_.end()) return it->second;
  data::Dataset base;
  if (dataset == "nba") {
    base = data::MakeNbaDataset();
  } else if (dataset == "diab") {
    base = data::MakeDiabDataset();
  } else if (dataset == "toy") {
    base = data::MakeToyDataset();
  } else if (dataset == kScaleTable && scale_rows_ > 0) {
    // The same workload muved derives for the created table.
    base.name = kScaleTable;
    base.table = data::MakeScaleTable(spec_, 0, scale_rows_);
    base.dimensions = {"x", "y"};
    base.measures = {"m1", "m2"};
    base.functions = {storage::AggregateFunction::kSum,
                      storage::AggregateFunction::kAvg};
    base.query_predicate_sql = data::ScalePredicateSql(spec_);
  } else {
    return Status::NotFound("reference has no dataset " + dataset);
  }
  bases_.emplace(dataset, base);
  return base;
}

Result<std::shared_ptr<const storage::Table>> Reference::Table(
    const std::string& dataset) {
  MUVE_ASSIGN_OR_RETURN(data::Dataset base, Base(dataset));
  return base.table;
}

Result<const core::Recommender*> Reference::Get(const std::string& dataset,
                                                const std::string& predicate) {
  const std::string key = dataset + '\x01' + predicate;
  auto it = recommenders_.find(key);
  if (it != recommenders_.end()) return it->second.get();
  MUVE_ASSIGN_OR_RETURN(data::Dataset ds, Base(dataset));
  if (!predicate.empty()) ds.query_predicate_sql = predicate;
  MUVE_ASSIGN_OR_RETURN(
      sql::SelectStatement stmt,
      sql::ParseSelect("SELECT * FROM t WHERE " + ds.query_predicate_sql));
  MUVE_ASSIGN_OR_RETURN(ds.target_rows,
                        storage::Filter(*ds.table, stmt.where.get()));
  ds.all_rows = storage::AllRows(ds.table->num_rows());
  MUVE_ASSIGN_OR_RETURN(core::Recommender rec,
                        core::Recommender::Create(std::move(ds)));
  auto owned = std::make_unique<core::Recommender>(std::move(rec));
  const core::Recommender* ptr = owned.get();
  recommenders_.emplace(key, std::move(owned));
  return ptr;
}

Result<core::Recommendation> Reference::Recommend(const Request& request) {
  MUVE_ASSIGN_OR_RETURN(const core::Recommender* rec,
                        Get(request.dataset, request.predicate));
  MUVE_ASSIGN_OR_RETURN(core::SearchOptions options, OptionsFor(request));
  // One view more than asked for: a tie at rank k with rank k+1 makes
  // the k-th view legitimately either one.
  options.k = request.k + 1;
  return rec->Recommend(options);
}

std::string CompareTopK(const JsonValue& response,
                        const core::Recommendation& reference) {
  const std::vector<ViewKey> got = ServerViews(response);
  std::vector<ViewKey> want;
  for (const core::ScoredView& sv : reference.views) {
    want.push_back({sv.view.dimension + "|" + sv.view.measure + "|" +
                        storage::AggregateName(sv.view.function) + "|" +
                        std::to_string(sv.bins),
                    sv.utility});
  }
  // The reference ran with k + 1 (or returned every view there is).
  const size_t k = got.size();
  if (want.size() < k || want.size() > k + 1) {
    return "top-k size " + std::to_string(k) + " vs reference " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < k; ++i) {
    if (!Near(got[i].utility, want[i].utility)) {
      return "utility #" + std::to_string(i) + " " +
             std::to_string(got[i].utility) + " vs reference " +
             std::to_string(want[i].utility);
    }
  }
  // Views must agree up to reordering inside runs of tied utilities; a
  // run that ties with the reference's rank k+1 may hold either view.
  for (size_t lo = 0; lo < k;) {
    size_t hi = lo + 1;
    while (hi < want.size() && Near(want[hi].utility, want[lo].utility)) ++hi;
    if (hi > k) break;
    std::vector<std::string> a, b;
    for (size_t i = lo; i < hi; ++i) {
      a.push_back(got[i].key);
      b.push_back(want[i].key);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return "view " + a.front() + " vs reference " + b.front();
    lo = hi;
  }
  return "";
}

}  // namespace muve::perfbench
