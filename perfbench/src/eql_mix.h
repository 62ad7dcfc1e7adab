// The seeded EQL query mix shared by adhoc_eql and the reads of
// ingest_mixed: four classes that stress different query/bsi kernels.
//
//   filter    dimension, value and offset predicates (the Range* kernels)
//   quantile  median / quantile (the slice descent)
//   uv        uv(value) over a date range (the union accumulator)
//   group_by  GROUP BY BUCKET

#ifndef PERFBENCH_EQL_MIX_H_
#define PERFBENCH_EQL_MIX_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"
#include "harness.h"
#include "query/ast.h"

namespace perfbench {

enum class EqlClass { kFilter = 0, kQuantile = 1, kUv = 2, kGroupBy = 3 };
inline constexpr int kEqlClasses = 4;
const char* EqlClassName(EqlClass c);

struct EqlQuery {
  EqlClass cls = EqlClass::kFilter;
  std::string text;
};

// The ids a mix may name.
struct EqlSchema {
  std::vector<uint64_t> strategies;
  std::vector<expbsi::MetricConfig> metrics;
  std::vector<expbsi::DimensionConfig> dimensions;
  expbsi::Date first_day = 0;
};

// The dataset both EQL workloads query: one 3-arm experiment, four metrics
// from binary to wide value ranges, two dimensions. The shape is fixed;
// `seed` draws the users and their values.
expbsi::Dataset MakeEqlDataset(uint64_t users, int segments, int days,
                               uint64_t seed, EqlSchema* schema);

// 6 * `units` queries in a seeded order: per unit two filter, two
// group_by, one quantile and one uv query. The cheap classes count double
// so the mix's median lies inside the group_by latencies, not on the gap
// between two classes, where it would jump with every draw. Every date the
// queries touch -- metric windows, dimension days, exposure cutoffs and
// offset ranges -- lies in [first_day, last_day].
std::vector<EqlQuery> MakeEqlMix(const EqlSchema& schema,
                                 expbsi::Date last_day, int units,
                                 uint64_t seed);

// The query layer of a traced run: each query is one ParseQuery call and
// one ExecuteQuery call, timed apart, with its kernel counter deltas.
class EqlLayers {
 public:
  // Runs `q` on `data`; books the op (wall = parse + execute, returned in
  // `*wall_ms`) in `ledger` and under a root span named `root`.
  expbsi::Result<expbsi::QueryResult> Run(
      const expbsi::ExperimentBsiData& data, const EqlQuery& q,
      const char* root, uint64_t op_id, LayerLedger* ledger, SpanLog* spans,
      double* wall_ms);
  uint64_t queries() const { return parse_us_.size(); }
  // query.parse_us, query.<class>_ms, query.unattributed_us, kernel.*.
  void ReportLayers(const LayerLedger& ledger, Report* report) const;

 private:
  Samples parse_us_;
  std::array<Samples, kEqlClasses> exec_ms_;
  KernelCounts kernels_;
};

// Bit-for-bit result equality (NaN equals NaN).
bool SameResult(const expbsi::QueryResult& a, const expbsi::QueryResult& b);

// The self-test hook: perturbs one value of `r`.
void CorruptResult(expbsi::QueryResult* r);

}  // namespace perfbench

#endif  // PERFBENCH_EQL_MIX_H_
