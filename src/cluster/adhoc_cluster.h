#ifndef EXPBSI_CLUSTER_ADHOC_CLUSTER_H_
#define EXPBSI_CLUSTER_ADHOC_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/precompute_pipeline.h"
#include "common/retry.h"
#include "engine/experiment_data.h"
#include "engine/normal_engine.h"
#include "expdata/generator.h"
#include "obs/trace.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"
#include "storage/tiered_store.h"

namespace expbsi {

class IngestStore;  // wal/ingest_store.h

// ClickHouse-like ad-hoc query cluster (§5.3, Fig. 8, Table 8): every
// segment lives on one node; queries fan out, run locally and in parallel on
// each node, and the coordinator merges per-segment partials. Nodes keep hot
// data in a local tier and pull cold blobs from the warehouse on demand.
//
// The machine running this simulation may have a single core, so latency is
// derived analytically from measured per-node CPU time:
//   node_latency  = node_cpu_seconds / threads_per_node
//                 + bytes_from_cold / cold_bandwidth
//   query_latency = max over nodes + coordinator merge time.
struct AdhocClusterConfig {
  int num_nodes = 4;
  int threads_per_node = 4;
  size_t hot_capacity_bytes_per_node = 256u << 20;
  double cold_bandwidth_bytes_per_sec = 200e6;
  // Recovery layer: cold-tier fetch + decode runs under this policy
  // (transient unavailability and corrupt transfers are retried with
  // simulated backoff; NotFound is semantic absence and never retried).
  RetryPolicy retry;
  // When true, a segment whose blobs stay unfetchable or corrupt after
  // retries -- or that cannot be requeued because every node died -- is
  // dropped from the scorecard and reported in QueryStats::degraded instead
  // of failing the whole query. Off by default: absent faults the strict
  // mode behaves exactly as before (errors surface as Status).
  bool allow_degraded = false;
  // Durable warehouse (§6 of DESIGN.md). When non-empty the cluster first
  // tries to cold-start its warehouse from the newest valid snapshot in
  // this directory; if nothing usable is there it builds from `bsi` as
  // before and then commits a fresh snapshot. Segments the snapshot lost
  // are surfaced through QueryStats::degraded (or fail strict-mode queries
  // with Corruption) -- never silently zero.
  std::string snapshot_dir;
  // Streaming warehouse (DESIGN.md §8.5). When set (not owned, must
  // outlive the cluster), the cluster serves the ingest store's live data:
  // the store has already done snapshot+WAL point-in-time recovery, so the
  // cluster's cold warehouse is built from it directly and snapshot_dir
  // handling is left to the store's own checkpoints. Mutually exclusive
  // with passing `bsi` (the store IS the BSI source).
  IngestStore* ingest = nullptr;
  // When non-empty, a degraded or slow QueryBsi writes a postmortem bundle
  // (obs/postmortem.h) here. The in-process cluster has no remote rings to
  // pull, so the bundle carries one "local" flight-recorder slice -- the
  // same recorder the net layer uses, no wire involved -- plus the finished
  // trace. The path lands in QueryStats::postmortem_path.
  std::string postmortem_dir;
};

class AdhocCluster {
 public:
  // Explicit degradation accounting (never silent: a partial scorecard is
  // returned *flagged*, following the SRM-bias argument that dropping a
  // failed segment without saying so biases every downstream statistic).
  struct DegradedInfo {
    // Segments absent from the result (sorted, unique). Their slots in every
    // BucketValues vector are zero and must be excluded from inference.
    std::vector<int> lost_segments;
    int segments_answered = 0;
    int retries = 0;          // fetch retry attempts taken across the query
    int faults_survived = 0;  // faults recovered (retry or requeue success)
    int nodes_lost = 0;       // nodes that crashed mid-query

    bool degraded() const { return !lost_segments.empty(); }
  };

  struct QueryStats {
    double latency_seconds = 0.0;
    double total_cpu_seconds = 0.0;
    uint64_t bytes_from_cold = 0;
    uint64_t hot_hits = 0;
    std::map<StrategyMetricPair, BucketValues> results;
    DegradedInfo degraded;
    // Full span tree of this query (waves, per-node execution, per-segment
    // work, retries). Created by the cluster and finished -- root closed,
    // slow-query check applied -- before the stats are returned; shared so
    // callers can keep it past the stats object.
    std::shared_ptr<obs::QueryTrace> trace;
    // Path of the postmortem bundle written for this query ("" when no
    // trigger fired or no postmortem_dir is configured). See
    // obs/postmortem.h.
    std::string postmortem_path;
  };

  // `dataset` backs the normal-format baseline; `bsi` is serialized into the
  // cluster's cold warehouse store. Both must outlive the cluster. The
  // dataset must use bucket_equals_segment (the ad-hoc scenario).
  //
  // With config.snapshot_dir set, either may be nullptr: a cluster
  // cold-starting from a snapshot serves QueryBsi straight from the
  // recovered warehouse (QueryNormalBitmap then requires `dataset` and
  // CHECK-fails without it). Without a snapshot dir both are required.
  AdhocCluster(const Dataset* dataset, const ExperimentBsiData* bsi,
               AdhocClusterConfig config);

  // BSI method: per node, fetch + deserialize expose/metric blobs (hot tier
  // first), range-search the expose filter and popcount the masked sums.
  //
  // Failure handling: fetches retry under config.retry; a node that crashes
  // mid-query (fault injection) has its in-flight wave discarded and its
  // segments requeued onto the surviving nodes, wave by wave. A segment that
  // cannot be recovered either fails the query (Corruption / Unavailable,
  // the strict default) or -- with config.allow_degraded -- is dropped and
  // reported in QueryStats::degraded.
  Result<QueryStats> QueryBsi(const std::vector<uint64_t>& strategy_ids,
                              const std::vector<uint64_t>& metric_ids,
                              Date date_lo, Date date_hi);

  // Normal-format baseline (§6.3): per-day expose bitmaps cached in memory,
  // metric-log rows scanned and filtered through them.
  Result<QueryStats> QueryNormalBitmap(
      const std::vector<uint64_t>& strategy_ids,
      const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi);

  // Primary owner of a segment under the shared rendezvous placement
  // (cluster/placement.h) -- the same primaries the network Coordinator
  // derives, replacing the old `segment % num_nodes` rule.
  int NodeOfSegment(int segment) const {
    return placement_->PrimaryOf(segment);
  }

  const BsiStore& cold_store() const { return cold_; }

  // Mutable access to the warehouse store, for failure injection in tests
  // and for operational re-ingestion.
  BsiStore& mutable_cold_store() { return cold_; }

  // Cold-start provenance (config.snapshot_dir): whether the warehouse was
  // recovered from a snapshot instead of rebuilt, the full recovery report
  // (lost segments, quarantined files), and the status of the snapshot
  // written after a fresh build (OK when none was attempted).
  bool cold_started_from_snapshot() const {
    return cold_started_from_snapshot_;
  }
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  const Status& snapshot_write_status() const {
    return snapshot_write_status_;
  }

  int num_segments() const { return num_segments_; }

 private:
  // The QueryBsi body. Holds the query's ScopedTrace, so by the time it
  // returns the root span is closed and the slow-query check has run; the
  // wrapper then evaluates the postmortem triggers against finished stats.
  Result<QueryStats> QueryBsiInternal(
      const std::vector<uint64_t>& strategy_ids,
      const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi);
  // Degraded / slow-query postmortem for the in-process cluster: one
  // "local" flight-recorder slice (no wire), written under
  // config.postmortem_dir when a trigger fires.
  void MaybeWritePostmortem(QueryStats* stats);

  // Lazily built (and then reused) per-strategy expose bitmap caches for the
  // baseline, mirroring the paper's "cache these bitmaps in memory". Sets
  // `*built` to whether this call (re)built the cache rather than reusing
  // the in-memory copy, so the caller can account the cold read.
  const ExposeBitmapCache& GetOrBuildBitmapCache(uint64_t strategy_id,
                                                 Date date_lo, Date date_hi,
                                                 bool* built);

  const Dataset* dataset_;
  const ExperimentBsiData* bsi_;
  std::unique_ptr<NormalDataIndex> normal_index_;
  AdhocClusterConfig config_;
  BsiStore cold_;
  int num_segments_ = 0;
  bool cold_started_from_snapshot_ = false;
  RecoveryReport recovery_report_;
  Status snapshot_write_status_;
  // Segments (< num_segments_) the snapshot recovery lost; pre-marked
  // degraded on every QueryBsi.
  std::vector<int> recovery_lost_segments_;
  std::unique_ptr<Placement> placement_;
  std::vector<std::unique_ptr<TieredStore>> node_tiers_;
  std::map<uint64_t, ExposeBitmapCache> bitmap_caches_;
  // (metric_id, segment) row groups the baseline has already scanned; a
  // first scan is a cold read of the rows' bytes, a repeat is a hot hit --
  // the same accounting the BSI path gets from its TieredStore, so
  // QueryStats is comparable across the two paths.
  std::set<std::pair<uint64_t, int>> normal_scanned_;
};

// Serializes every expose/metric/dimension BSI of `data` into a BsiStore
// (the warehouse contents of Fig. 7).
BsiStore BuildColdStore(const ExperimentBsiData& data);

// BuildColdStore of one segment: puts its blobs into `out` under `segment`.
void PutSegmentBlobs(const SegmentBsiData& data, uint16_t segment,
                     BsiStore* out);

// Inverse of BuildColdStore, for a warehouse that crossed a crash boundary:
// decodes every blob back into an ExperimentBsiData so the full query
// engine can run against a recovered store. Shape metadata (segment /
// bucket counts, bucketing mode) is not stored in the warehouse and must be
// supplied; num_segments <= 0 derives it from the largest segment id
// present. Position encoders are build-time state and are not (and need not
// be) reconstructed -- queries never touch them. Any undecodable or
// mis-keyed blob fails with Corruption.
Result<ExperimentBsiData> ReconstructBsiData(const BsiStore& store,
                                             int num_segments,
                                             int num_buckets,
                                             bool bucket_equals_segment);

}  // namespace expbsi

#endif  // EXPBSI_CLUSTER_ADHOC_CLUSTER_H_
