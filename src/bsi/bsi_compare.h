#ifndef EXPBSI_BSI_BSI_COMPARE_H_
#define EXPBSI_BSI_BSI_COMPARE_H_

#include <cstdint>

#include "bsi/bsi.h"

namespace expbsi {
namespace bsi_compare {

// Word-level comparison kernels behind Bsi::Lt/Le/Eq/Ne (Algorithms 1-3)
// and the constant-side Range* family: per 2^16 chunk, the slice containers
// are walked via monotone cursors and folded with fused 64-bit word passes
// (word_ops.h, runtime SIMD dispatch) in thread-local scratch buffers; no
// intermediate RoaringBitmap is ever materialized, and sparse chunks (few
// both-present positions) switch to a per-position probing path that rides
// the containers' galloping array intersects. The scalar oracle
// (reference/ref_column.h) is the differential witness for every op.

// Two-BSI comparisons. Results contain only positions present in BOTH
// operands (the paper's zero-means-absent convention). Gt/Ge are handled by
// the callers via operand swap.
enum class CmpOp { kLt, kLe, kEq, kNe };

RoaringBitmap Compare(const Bsi& x, const Bsi& y, CmpOp op);

// Constant comparisons over the present positions of x. k == 0 follows the
// zero-means-absent semantics of the Bsi::Range* wrappers (e.g. kNe / kGt /
// kGe return the existence bitmap, everything else is empty).
enum class RangeOp { kEq, kNe, kLt, kLe, kGt, kGe };

RoaringBitmap Range(const Bsi& x, RangeOp op, uint64_t k);

// Present positions with lo <= value <= hi (lo <= hi). Partitions against
// both bounds in ONE top-down pass per chunk -- maintaining (lt_lo, eq_lo)
// against lo and (gt_hi, eq_hi) against hi simultaneously and combining as
// existence & ~lt_lo & ~gt_hi -- instead of two single-bound scans.
RoaringBitmap RangeBetween(const Bsi& x, uint64_t lo, uint64_t hi);

}  // namespace bsi_compare
}  // namespace expbsi

#endif  // EXPBSI_BSI_BSI_COMPARE_H_
