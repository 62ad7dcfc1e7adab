#include "eql_mix.h"

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "query/executor.h"
#include "query/parser.h"

namespace perfbench {

const char* EqlClassName(EqlClass c) {
  switch (c) {
    case EqlClass::kFilter:
      return "filter";
    case EqlClass::kQuantile:
      return "quantile";
    case EqlClass::kUv:
      return "uv";
    case EqlClass::kGroupBy:
      return "group_by";
  }
  return "?";
}

namespace {

std::string Num(uint64_t v) { return std::to_string(v); }

}  // namespace

expbsi::Dataset MakeEqlDataset(uint64_t users, int segments, int days,
                               uint64_t seed, EqlSchema* schema) {
  expbsi::DatasetConfig config;
  config.num_users = users;
  config.num_segments = segments;
  config.num_days = days;
  config.seed = seed;
  expbsi::ExperimentConfig exp;
  exp.strategy_ids = {801, 802, 803};
  exp.arm_effects = {1.0, 1.04, 0.97};
  exp.traffic_salt = 5;
  std::vector<expbsi::MetricConfig> metrics(4);
  const uint64_t ranges[] = {200, 21600, 1, 5000};
  const double participation[] = {0.3, 0.5, 0.6, 0.2};
  for (int i = 0; i < 4; ++i) {
    metrics[i].metric_id = 1001 + i;
    metrics[i].value_range = ranges[i];
    metrics[i].daily_participation = participation[i];
  }
  std::vector<expbsi::DimensionConfig> dims(2);
  dims[0].dimension_id = 11;
  dims[0].cardinality = 8;
  dims[1].dimension_id = 12;
  dims[1].cardinality = 300;
  schema->strategies = exp.strategy_ids;
  schema->metrics = metrics;
  schema->dimensions = dims;
  schema->first_day = 0;
  return expbsi::GenerateDataset(config, {exp}, metrics, dims);
}

std::vector<EqlQuery> MakeEqlMix(const EqlSchema& schema,
                                 expbsi::Date last_day, int units,
                                 uint64_t seed) {
  expbsi::Rng rng(seed * 0xD1B54A32D192ED03ull + 0xE91);
  const uint64_t days = last_day - schema.first_day + 1;
  const size_t num_metrics = schema.metrics.size();
  auto strategy = [&]() {
    return schema.strategies[rng.NextBounded(schema.strategies.size())];
  };
  auto day = [&](uint64_t k) { return schema.first_day + k % days; };
  // Metrics, dimensions, days and windows cycle with the query index, so
  // every seed runs the same shapes; the seed draws strategies, predicate
  // constants and the order.
  std::vector<EqlQuery> mix;
  for (int i = 0; i < 2 * units; ++i) {
    const auto& metric = schema.metrics[i % num_metrics];
    const auto& dim = schema.dimensions[i % schema.dimensions.size()];
    // filter: alternately a metric source with value + dimension
    // predicates and an expose source with offset + dimension predicates.
    EqlQuery filter;
    filter.cls = EqlClass::kFilter;
    if (i % 2 == 0) {
      const uint64_t d = day(i / 2);
      const uint64_t lo = 1 + rng.NextBounded(
                                  std::max<uint64_t>(1, metric.value_range / 4));
      const uint64_t hi =
          lo + rng.NextBounded(std::max<uint64_t>(1, metric.value_range / 2));
      filter.text = "SELECT sum(value), count(*) FROM metric(" +
                    Num(metric.metric_id) + ", date = " + Num(d) +
                    ") WHERE exposed(" + Num(strategy()) +
                    ", on_or_before = " + Num(d) + ") AND value >= " +
                    Num(lo) + " AND value <= " + Num(hi) + " AND dim(" +
                    Num(dim.dimension_id) + ", date = " + Num(d) +
                    ") <= " + Num(1 + rng.NextBounded(dim.cardinality));
    } else {
      const uint64_t first = 1 + (i / 2) % days;
      filter.text = "SELECT count(*) FROM expose(" + Num(strategy()) +
                    ") WHERE offset >= " + Num(first) +
                    " AND offset <= " + Num(days) + " AND dim(" +
                    Num(dim.dimension_id) + ", date = " + Num(day(i / 2)) +
                    ") >= " + Num(1 + rng.NextBounded(dim.cardinality));
    }
    mix.push_back(filter);

    const uint64_t d = day(i);
    mix.push_back({EqlClass::kGroupBy,
                   "SELECT sum(value), count(*) FROM metric(" +
                       Num(metric.metric_id) + ", date = " + Num(d) +
                       ") WHERE exposed(" + Num(strategy()) +
                       ", on_or_before = " + Num(d) + ") GROUP BY BUCKET"});
  }
  for (int i = 0; i < units; ++i) {
    const auto& metric = schema.metrics[i % num_metrics];
    const uint64_t window = 1 + static_cast<uint64_t>(i) % days;
    const uint64_t from =
        schema.first_day + (i / days) % (days - window + 1);
    const std::string range = "date = " + Num(from) +
                              ", to = " + Num(from + window - 1);
    mix.push_back({EqlClass::kQuantile,
                   "SELECT median(value), quantile(value, 0.9) FROM metric(" +
                       Num(metric.metric_id) + ", " + range +
                       ") WHERE exposed(" + Num(strategy()) + ")"});
    mix.push_back({EqlClass::kUv, "SELECT uv(value) FROM metric(" +
                                      Num(metric.metric_id) + ", " + range +
                                      ") WHERE exposed(" + Num(strategy()) +
                                      ")"});
  }
  for (size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.NextBounded(i)]);
  }
  return mix;
}

expbsi::Result<expbsi::QueryResult> EqlLayers::Run(
    const expbsi::ExperimentBsiData& data, const EqlQuery& q,
    const char* root, uint64_t op_id, LayerLedger* ledger, SpanLog* spans,
    double* wall_ms) {
  const KernelCounts start = KernelCounts::Now();
  const int64_t t0 = NowNs();
  expbsi::Result<expbsi::Query> parsed = expbsi::ParseQuery(q.text);
  const int64_t t1 = NowNs();
  expbsi::Result<expbsi::QueryResult> got =
      parsed.ok() ? expbsi::ExecuteQuery(data, parsed.value())
                  : expbsi::Result<expbsi::QueryResult>(parsed.status());
  const int64_t t2 = NowNs();
  kernels_.AddSince(start);
  *wall_ms = (t2 - t0) / 1e6;
  parse_us_.Add((t1 - t0) / 1e3);
  exec_ms_[static_cast<int>(q.cls)].Add((t2 - t1) / 1e6);
  const std::string layer = std::string("query.") + EqlClassName(q.cls);
  ledger->BeginOp(t2 - t0);
  ledger->Attribute("query.parse", t1 - t0);
  ledger->Attribute(layer, t2 - t1);
  ledger->EndOp("query.unattributed");
  const uint32_t span = spans->Add(root, 0, op_id, t0, t2);
  spans->Add("query.parse", span, op_id, t0, t1);
  spans->Add(layer, span, op_id, t1, t2);
  return got;
}

void EqlLayers::ReportLayers(const LayerLedger& ledger,
                             Report* report) const {
  const uint64_t n = queries();
  report->Layer("query.parse_us", parse_us_.Mean(), "us", n);
  for (int c = 0; c < kEqlClasses; ++c) {
    report->Layer(std::string("query.") +
                      EqlClassName(static_cast<EqlClass>(c)) + "_ms",
                  exec_ms_[c].Mean(), "ms", exec_ms_[c].size());
  }
  report->Layer("query.unattributed_us",
                n == 0 ? 0.0 : ledger.Total("query.unattributed") / 1e3 / n,
                "us", n);
  kernels_.ReportPerQuery(n, report);
}

namespace {

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace

bool SameResult(const expbsi::QueryResult& a, const expbsi::QueryResult& b) {
  if (a.columns != b.columns || !SameDoubles(a.row, b.row) ||
      a.per_bucket.size() != b.per_bucket.size()) {
    return false;
  }
  for (size_t i = 0; i < a.per_bucket.size(); ++i) {
    if (!SameDoubles(a.per_bucket[i], b.per_bucket[i])) return false;
  }
  return true;
}

void CorruptResult(expbsi::QueryResult* r) {
  if (r->row.empty()) {
    r->row.push_back(1.0);
  } else {
    r->row[0] += 1.0;
  }
}

}  // namespace perfbench
