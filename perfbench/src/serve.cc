// scorecard_serve: the analyst's scorecard path (paper §5.3, Table 8). One
// client thread runs a closed loop of Coordinator::QueryBsi calls over
// loopback TCP against three in-process NodeServers, each serving its
// Placement::SegmentsOf slice (R=2) through a hot tier sized to about half
// of that slice, so the working set does not fit the node cache.
//
// Traced mode decomposes every query without spans inside src/: the real
// query runs first (its wall time is the traced wall), then the benchmark
// replays each node's segment plan -- TieredStore::Fetch, the blob
// decoders, the expose-mask build and Bsi::SumUnderMask -- on mirror tiers
// that saw the same fetch sequence as the node tiers. The replay is a copy
// of ExecuteSegmentQuery's loop, not an in-situ timing; every replayed
// query must reproduce the nodes' per-segment answer, or the run fails.
// For the slowest node it also times a fresh net::Connect, a kPing round
// trip and the wire codec of the query's request and response. What the
// layers do not cover is the serve.unattributed bucket (merge, thread
// spawn, scheduling).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/node_server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "storage/snapshot.h"
#include "storage/tiered_store.h"
#include "wire/envelope.h"
#include "wire/messages.h"
#include "workloads.h"

namespace perfbench {

namespace {

using expbsi::BsiKind;
using expbsi::BsiStore;
using expbsi::BsiStoreKey;
using expbsi::BucketValues;
using expbsi::Date;
using expbsi::Result;
using expbsi::TieredStore;

constexpr int kNodes = 3;
constexpr int kReplication = 2;
constexpr int kDays = 7;
constexpr Date kLastDay = kDays - 1;
constexpr int kMinMetrics = 2;
constexpr int kMaxMetrics = 8;

struct ServeScale {
  uint64_t users;
  int segments;
  int experiments;
  int setups;           // setup repetitions; setup_s is their median
  size_t plan_queries;  // distinct queries, cycled through the run
  // The timed phase runs a fixed number of queries, this many per
  // --seconds, so every run does the same work. Each connection leaves a
  // handler thread behind (README "Long-run ceiling"), so memory grows with
  // the queries run; a time box would charge a faster commit more memory.
  size_t queries_per_second;
  size_t max_queries;   // per-process ceiling, see README "Long-run ceiling"
};

ServeScale ScaleOf(Scale scale) {
  if (scale == Scale::kTiny) return {1500, 6, 2, 3, 49, 98, 1000};
  return {30000, 12, 4, 31, 196, 98, 2500};
}

std::vector<uint64_t> ArmsOf(int experiment) {
  const uint64_t base = 1000 + 10 * static_cast<uint64_t>(experiment);
  return {base + 1, base + 2, base + 3};
}

struct ServeQuery {
  std::vector<uint64_t> strategies;
  std::vector<uint64_t> metrics;
  Date lo = 0;
  Date hi = kLastDay;
};

// Seeded plan: a Zipf over experiments; the (metric count, window) shapes
// are a seeded shuffle of the full 2..8 x 1..7 grid, block after block, and
// metric subsets rotate through the catalog, so every seed runs the same
// shape and metric mix.
std::vector<ServeQuery> MakePlan(uint64_t seed, size_t n, int experiments,
                                 const std::vector<uint64_t>& metric_ids) {
  expbsi::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5E77E);
  const expbsi::ZipfDistribution zipf(experiments, 1.0);
  std::vector<std::pair<int, int>> grid;
  for (int k = kMinMetrics; k <= kMaxMetrics; ++k) {
    for (int w = 1; w <= kDays; ++w) grid.emplace_back(k, w);
  }
  std::vector<ServeQuery> plan;
  size_t rotation = rng.NextBounded(metric_ids.size());
  while (plan.size() < n) {
    for (size_t i = grid.size(); i > 1; --i) {
      std::swap(grid[i - 1], grid[rng.NextBounded(i)]);
    }
    for (const auto& [k, w] : grid) {
      ServeQuery q;
      q.strategies = ArmsOf(static_cast<int>(zipf.Sample(rng)) - 1);
      // A window of k consecutive metrics (mod the catalog) starting at the
      // next rotation point: every metric is named equally often.
      for (int j = 0; j < k; ++j) {
        q.metrics.push_back(metric_ids[(rotation + j) % metric_ids.size()]);
      }
      std::sort(q.metrics.begin(), q.metrics.end());
      rotation += 3;
      q.lo = static_cast<Date>(kLastDay - (w - 1));
      plan.push_back(std::move(q));
    }
  }
  plan.resize(n);
  return plan;
}

// The three serving nodes, started from a recovered snapshot.
struct Fleet {
  explicit Fleet(int segments) : placement(kNodes, segments, kReplication) {}
  ~Fleet() {
    for (auto& node : nodes) node->Stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  expbsi::Placement placement;
  std::vector<std::unique_ptr<BsiStore>> stores;  // per node slice
  std::vector<size_t> hot_capacity;
  std::vector<uint16_t> ports;
  std::vector<std::unique_ptr<expbsi::net::NodeServer>> nodes;
};

// setup: SnapshotReader::Recover + prune to each node's replica set + start.
bool StartFleet(const std::string& snap_dir, Fleet* fleet,
                double* recover_s) {
  expbsi::Stopwatch recover;
  expbsi::RecoveryReport report;
  Result<BsiStore> cold = expbsi::SnapshotReader::Recover(snap_dir, &report);
  *recover_s = recover.ElapsedSeconds();
  if (!cold.ok() || !report.fully_recovered()) {
    std::fprintf(stderr, "serve: snapshot recovery failed: %s\n",
                 cold.status().ToString().c_str());
    return false;
  }
  for (int n = 0; n < kNodes; ++n) {
    const std::vector<uint32_t> owned = fleet->placement.SegmentsOf(n);
    auto slice = std::make_unique<BsiStore>();
    size_t primary_bytes = 0;
    cold.value().ForEachEntry([&](const BsiStoreKey& key,
                                  const std::string& bytes,
                                  uint64_t fingerprint) {
      if (std::find(owned.begin(), owned.end(), key.segment) != owned.end()) {
        slice->PutRecovered(key, bytes, fingerprint);
      }
      if (fleet->placement.PrimaryOf(key.segment) == n) {
        primary_bytes += bytes.size();
      }
    });
    expbsi::net::NodeServerOptions options;
    options.node_id = n;
    options.owned_segments = owned;
    // A fault-free coordinator routes every segment to its primary, so the
    // primaries are the slice a node serves; its hot tier holds half of it.
    options.hot_capacity_bytes = primary_bytes / 2;
    auto node =
        std::make_unique<expbsi::net::NodeServer>(slice.get(), options);
    if (!node->Start().ok()) {
      std::fprintf(stderr, "serve: node %d failed to start\n", n);
      return false;
    }
    fleet->hot_capacity.push_back(options.hot_capacity_bytes);
    fleet->ports.push_back(node->port());
    fleet->stores.push_back(std::move(slice));
    fleet->nodes.push_back(std::move(node));
  }
  return true;
}

using RefKey = std::tuple<uint64_t, uint64_t, Date>;  // strategy, metric, lo

bool SameBuckets(const BucketValues& a, const BucketValues& b) {
  return a.sums == b.sums && a.counts == b.counts;
}

// Compares one scorecard against the oracle values; the self-test hook
// corrupts it first when this is the op it names.
void CheckScorecard(const Args& args, const ServeQuery& q,
                    Result<expbsi::AdhocCluster::QueryStats>& got,
                    const std::map<RefKey, BucketValues>& expected,
                    Report* report) {
  if (!got.ok()) {
    report->Op(false, "serve query failed: " + got.status().ToString());
    return;
  }
  auto& results = got.value().results;
  if (report->CorruptThis(args.corrupt_op) && !results.empty()) {
    results.begin()->second.sums[0] += 1.0;
  }
  bool ok = results.size() == q.strategies.size() * q.metrics.size() &&
            !got.value().degraded.degraded();
  for (uint64_t s : q.strategies) {
    for (uint64_t m : q.metrics) {
      const auto have = results.find({s, m});
      const auto want = expected.find({s, m, q.lo});
      if (have == results.end() || want == expected.end() ||
          !SameBuckets(have->second, want->second)) {
        ok = false;
      }
    }
  }
  report->Op(ok, "serve scorecard differs from RefComputeStrategyMetric "
                 "(lo=" + std::to_string(q.lo) + ")");
}

// One node's share of a replayed query, timed per layer.
struct NodeReplay {
  int64_t fetch_ns = 0, decode_ns = 0, mask_ns = 0, sum_ns = 0;
  uint64_t masked_sums = 0;
  int64_t start_ns = 0, end_ns = 0;
  std::vector<uint32_t> segments;
  std::vector<expbsi::wire::WireSegmentResult> results;
  int64_t layers_ns() const { return fetch_ns + decode_ns + mask_ns + sum_ns; }
};

// Fetch outcome: blob, semantic absence, or an error (returned false).
bool FetchBlob(TieredStore& tier, const BsiStoreKey& key, int64_t* ns,
               std::shared_ptr<const std::string>* blob) {
  const int64_t t0 = NowNs();
  Result<std::shared_ptr<const std::string>> got = tier.Fetch(key);
  *ns += NowNs() - t0;
  if (got.ok()) {
    *blob = std::move(got).value();
    return true;
  }
  blob->reset();
  return got.status().code() == expbsi::StatusCode::kNotFound;
}

// Replays ExecuteSegmentQuery's plan for `segments` on a mirror tier, in
// the same fetch order, timing each layer. With `fetch_only` it only
// advances the mirror's LRU state (keeps it in step with the node tier).
bool ReplayNode(TieredStore& tier, const ServeQuery& q, bool fetch_only,
                NodeReplay* out) {
  out->start_ns = NowNs();
  const size_t num_metrics = q.metrics.size();
  for (uint32_t seg : out->segments) {
    expbsi::wire::WireSegmentResult result;
    result.segment = seg;
    result.sums.assign(q.strategies.size() * num_metrics, 0.0);
    result.counts.assign(q.strategies.size() * num_metrics, 0.0);
    std::vector<std::vector<expbsi::RoaringBitmap>> masks(
        q.strategies.size());
    std::vector<uint64_t> exposed_by_hi(q.strategies.size(), 0);
    for (size_t si = 0; si < q.strategies.size(); ++si) {
      std::shared_ptr<const std::string> blob;
      if (!FetchBlob(tier,
                     BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kExpose,
                                 q.strategies[si], 0},
                     &out->fetch_ns, &blob)) {
        return false;
      }
      if (blob == nullptr || fetch_only) continue;
      int64_t t0 = NowNs();
      Result<expbsi::ExposeBsi> expose = expbsi::ExposeBsi::Deserialize(*blob);
      out->decode_ns += NowNs() - t0;
      if (!expose.ok()) return false;
      t0 = NowNs();
      std::vector<expbsi::RoaringBitmap>& by_day = masks[si];
      for (Date d = q.lo; d <= q.hi; ++d) {
        if (by_day.empty()) {
          by_day.push_back(expose.value().ExposedOnOrBefore(d));
        } else {
          expbsi::RoaringBitmap mask = by_day.back();
          mask.OrInPlace(expose.value().ExposedBetween(d, d));
          by_day.push_back(std::move(mask));
        }
      }
      exposed_by_hi[si] = by_day.back().Cardinality();
      out->mask_ns += NowNs() - t0;
    }
    for (size_t mi = 0; mi < num_metrics; ++mi) {
      for (Date d = q.lo; d <= q.hi; ++d) {
        std::shared_ptr<const std::string> blob;
        if (!FetchBlob(tier,
                       BsiStoreKey{static_cast<uint16_t>(seg),
                                   BsiKind::kMetric, q.metrics[mi], d},
                       &out->fetch_ns, &blob)) {
          return false;
        }
        if (blob == nullptr || fetch_only) continue;
        int64_t t0 = NowNs();
        Result<expbsi::MetricBsi> metric =
            expbsi::MetricBsi::Deserialize(*blob);
        out->decode_ns += NowNs() - t0;
        if (!metric.ok()) return false;
        for (size_t si = 0; si < q.strategies.size(); ++si) {
          if (masks[si].empty()) continue;
          t0 = NowNs();
          const uint64_t sum =
              metric.value().value.SumUnderMask(masks[si][d - q.lo]);
          out->sum_ns += NowNs() - t0;
          ++out->masked_sums;
          result.sums[si * num_metrics + mi] += static_cast<double>(sum);
        }
      }
      for (size_t si = 0; si < q.strategies.size(); ++si) {
        if (masks[si].empty()) continue;
        result.counts[si * num_metrics + mi] +=
            static_cast<double>(exposed_by_hi[si]);
      }
    }
    out->results.push_back(std::move(result));
  }
  out->end_ns = NowNs();
  return true;
}

// Everything the traced mode accumulates over the traced queries.
struct ServeTrace {
  std::vector<std::unique_ptr<TieredStore>> mirrors;
  LayerLedger ledger;
  SpanLog spans;
  Samples connect_us, rtt_us, codec_us, segment_execute_ms;
  uint64_t masked_sums = 0;
  uint64_t queries = 0;
  uint64_t cold_bytes = 0;
  KernelCounts kernels;
  uint64_t request_id = 1ull << 40;  // far from the coordinator's ids
  bool ok = true;
};

// Routes each query segment to its primary, as a fault-free coordinator
// does, in ascending segment order.
std::vector<std::vector<uint32_t>> PrimarySegments(
    const expbsi::Placement& placement) {
  std::vector<std::vector<uint32_t>> out(kNodes);
  for (int seg = 0; seg < placement.num_segments(); ++seg) {
    out[placement.PrimaryOf(seg)].push_back(static_cast<uint32_t>(seg));
  }
  return out;
}

// Mirror-tier bookkeeping for a query that is not decomposed.
bool SyncMirrors(const Fleet& fleet, const ServeQuery& q, ServeTrace* t) {
  const auto primaries = PrimarySegments(fleet.placement);
  for (int n = 0; n < kNodes; ++n) {
    NodeReplay r;
    r.segments = primaries[n];
    if (!ReplayNode(*t->mirrors[n], q, /*fetch_only=*/true, &r)) return false;
  }
  return true;
}

// Sum of the node-side "segment_execute" spans per node (grafted into the
// coordinator trace), max over nodes: the real critical-path segment time.
double SlowestNodeSegmentMs(const expbsi::obs::QueryTrace* trace) {
  if (trace == nullptr) return 0.0;
  std::map<uint32_t, uint64_t> by_parent;
  for (const auto& span : trace->spans()) {
    if (span.name == "segment_execute") {
      by_parent[span.parent_id] += span.duration_ns;
    }
  }
  uint64_t best = 0;
  for (const auto& [parent, ns] : by_parent) best = std::max(best, ns);
  return best / 1e6;
}

// True when the replayed segment plans computed what the nodes answered:
// every segment's sums and counts equal that segment's cells of the
// scorecard. Guards the layer timings against a replay that no longer
// follows ExecuteSegmentQuery.
bool ReplayMatches(const std::vector<NodeReplay>& replays, const ServeQuery& q,
                   const expbsi::AdhocCluster::QueryStats& got) {
  for (const NodeReplay& r : replays) {
    for (const expbsi::wire::WireSegmentResult& seg : r.results) {
      size_t slot = 0;
      for (uint64_t s : q.strategies) {
        for (uint64_t m : q.metrics) {
          const auto cell = got.results.find({s, m});
          if (cell == got.results.end() ||
              seg.segment >= cell->second.sums.size() ||
              cell->second.sums[seg.segment] != seg.sums[slot] ||
              cell->second.counts[seg.segment] != seg.counts[slot]) {
            return false;
          }
          ++slot;
        }
      }
    }
  }
  return true;
}

// Decomposes one finished query (wall [t0, t1], answer `got`) into its
// layers.
void DecomposeQuery(const Fleet& fleet, const ServeQuery& q,
                    const Result<expbsi::AdhocCluster::QueryStats>& got,
                    int64_t t0, int64_t t1, ServeTrace* t, Report* report) {
  namespace net = expbsi::net;
  namespace wire = expbsi::wire;
  const auto primaries = PrimarySegments(fleet.placement);
  std::vector<NodeReplay> replays(kNodes);
  int critical = 0;
  for (int n = 0; n < kNodes; ++n) {
    replays[n].segments = primaries[n];
    if (!ReplayNode(*t->mirrors[n], q, /*fetch_only=*/false, &replays[n])) {
      t->ok = false;
      return;
    }
    if (replays[n].layers_ns() > replays[critical].layers_ns()) critical = n;
  }
  if (got.ok()) {
    report->Op(ReplayMatches(replays, q, got.value()),
               "serve: replayed segment plan differs from the nodes' answer "
               "(lo=" + std::to_string(q.lo) + ")");
  }
  const NodeReplay& slow = replays[critical];

  // net: a fresh dial (the coordinator dials one per node RPC) and a framed
  // kPing round trip on it.
  const int64_t c0 = NowNs();
  Result<net::Socket> sock =
      net::Connect(fleet.ports[critical], net::Deadline::After(5.0));
  const int64_t c1 = NowNs();
  if (!sock.ok()) {
    t->ok = false;
    return;
  }
  net::FaultyEndpoint endpoint(/*endpoint_id=*/900 + critical);
  wire::Envelope ping;
  ping.type = wire::MsgType::kPing;
  ping.request_id = ++t->request_id;
  const int64_t r0 = NowNs();
  const bool sent =
      net::SendEnvelope(sock.value(), ping, net::Deadline::After(5.0),
                        &endpoint)
          .ok();
  Result<wire::Envelope> pong = net::RecvEnvelope(
      sock.value(), net::Deadline::After(5.0), ping.request_id);
  const int64_t r1 = NowNs();
  sock.value().Close();
  if (!sent || !pong.ok() || pong.value().type != wire::MsgType::kPong) {
    t->ok = false;
    return;
  }

  // wire: the query's request and the slowest node's response, encoded
  // into envelopes and decoded again.
  const int64_t w0 = NowNs();
  wire::WireQueryRequest req;
  req.strategy_ids = q.strategies;
  req.metric_ids = q.metrics;
  req.date_lo = q.lo;
  req.date_hi = q.hi;
  req.segments = slow.segments;
  req.want_trace = true;
  wire::WireQueryResponse resp;
  resp.segments = slow.results;
  bool codec_ok = true;
  for (int dir = 0; dir < 2; ++dir) {
    wire::Envelope env;
    env.type = dir == 0 ? wire::MsgType::kQueryRequest
                        : wire::MsgType::kQueryResponse;
    env.request_id = t->request_id;
    if (dir == 0) {
      wire::EncodeQueryRequest(req, &env.payload);
    } else {
      wire::EncodeQueryResponse(resp, &env.payload);
    }
    std::string frame;
    wire::EncodeEnvelope(env, &frame);
    Result<wire::Envelope> back = wire::DecodeEnvelope(frame);
    codec_ok = codec_ok && back.ok() &&
               (dir == 0 ? wire::DecodeQueryRequest(back.value().payload).ok()
                         : wire::DecodeQueryResponse(back.value().payload)
                               .ok());
  }
  const int64_t w1 = NowNs();
  if (!codec_ok) {
    t->ok = false;
    return;
  }

  const uint64_t qid = ++t->queries;
  t->connect_us.Add((c1 - c0) / 1e3);
  t->rtt_us.Add((r1 - r0) / 1e3);
  t->codec_us.Add((w1 - w0) / 1e3);
  t->masked_sums += slow.masked_sums;

  t->ledger.BeginOp(t1 - t0);
  t->ledger.Attribute("net.connect", c1 - c0);
  t->ledger.Attribute("net.rtt", r1 - r0);
  t->ledger.Attribute("wire.codec", w1 - w0);
  t->ledger.Attribute("storage.tier_fetch", slow.fetch_ns);
  t->ledger.Attribute("bsi.decode", slow.decode_ns);
  t->ledger.Attribute("bsi.expose_mask", slow.mask_ns);
  t->ledger.Attribute("bsi.masked_sum", slow.sum_ns);
  t->ledger.EndOp("serve.unattributed");

  const uint32_t root = t->spans.Add("serve.query", 0, qid, t0, t1);
  t->spans.Add("net.connect", root, qid, c0, c1);
  t->spans.Add("net.rtt", root, qid, r0, r1);
  t->spans.Add("wire.codec", root, qid, w0, w1);
  const uint32_t seg =
      t->spans.Add("cluster.segment_replay", root, qid, slow.start_ns,
                   slow.end_ns);
  int64_t at = slow.start_ns;
  for (const auto& [name, ns] :
       {std::pair<const char*, int64_t>{"storage.tier_fetch", slow.fetch_ns},
        {"bsi.decode", slow.decode_ns},
        {"bsi.expose_mask", slow.mask_ns},
        {"bsi.masked_sum", slow.sum_ns}}) {
    t->spans.Add(name, seg, qid, at, at + ns);
    at += ns;
  }
}

}  // namespace

bool RunScorecardServe(const Args& args, Report* report) {
  const ServeScale scale = ScaleOf(args.scale);
  const std::string dir = args.work_dir + "/scorecard_serve";
  const std::string snap_dir = dir + "/snapshot";
  if (!ResetDir(snap_dir)) return false;

  // ---- fixture (untimed): logs -> BSIs -> warehouse snapshot -------------
  expbsi::DatasetConfig config;
  config.num_users = scale.users;
  config.num_segments = scale.segments;
  config.num_days = kDays;
  config.seed = args.seed;
  std::vector<expbsi::ExperimentConfig> experiments;
  for (int e = 0; e < scale.experiments; ++e) {
    expbsi::ExperimentConfig exp;
    exp.strategy_ids = ArmsOf(e);
    exp.arm_effects = {1.0, 1.03, 0.98};
    exp.traffic_salt = 11 + static_cast<uint64_t>(e);
    experiments.push_back(exp);
  }
  // The metric population (value ranges, skew) is fixed across seeds; the
  // seed draws the users and their values.
  const std::vector<expbsi::MetricConfig> metrics =
      expbsi::MakeCoreMetricPopulation(kMaxMetrics, 9001, /*seed=*/7);
  std::vector<uint64_t> metric_ids;
  for (const auto& m : metrics) metric_ids.push_back(m.metric_id);

  // Oracle values of every (strategy, metric, window) cell a query can ask
  // for.
  std::map<RefKey, BucketValues> expected;
  double bsi_build_s = 0;
  {
    const expbsi::Dataset dataset =
        expbsi::GenerateDataset(config, experiments, metrics, {});
    expbsi::Stopwatch build;
    const expbsi::ExperimentBsiData bsi =
        expbsi::BuildExperimentBsiData(dataset, true);
    bsi_build_s = build.ElapsedSeconds();
    if (!expbsi::SnapshotWriter::Write(expbsi::BuildColdStore(bsi), snap_dir)
             .ok()) {
      std::fprintf(stderr, "serve: snapshot write failed\n");
      return false;
    }
    const expbsi::RefExperimentData ref =
        expbsi::BuildRefExperimentData(dataset);
    for (int e = 0; e < scale.experiments; ++e) {
      for (uint64_t s : ArmsOf(e)) {
        for (uint64_t m : metric_ids) {
          for (int w = 1; w <= kDays; ++w) {
            const Date lo = static_cast<Date>(kLastDay - (w - 1));
            expected[{s, m, lo}] =
                expbsi::RefComputeStrategyMetric(ref, s, m, lo, kLastDay);
          }
        }
      }
    }
  }
  const uint64_t snapshot_bytes = DirBytes(snap_dir);

  // ---- setup (timed, repeated): recover + node start ---------------------
  Samples setup_s, recover_s;
  std::unique_ptr<Fleet> fleet;
  ProgramMemory memory;
  for (int i = 0; i < scale.setups; ++i) {
    fleet.reset();  // Stop() joins every node thread of the previous fleet
    if (i + 1 == scale.setups && !memory.Start()) return false;
    fleet = std::make_unique<Fleet>(scale.segments);
    double recover = 0;
    expbsi::Stopwatch setup;
    if (!StartFleet(snap_dir, fleet.get(), &recover)) return false;
    setup_s.Add(setup.ElapsedSeconds());
    recover_s.Add(recover);
  }
  size_t slice_bytes = 0, hot_bytes = 0;
  for (int n = 0; n < kNodes; ++n) {
    slice_bytes += fleet->stores[n]->TotalBytes();
    hot_bytes += fleet->hot_capacity[n];
  }
  std::printf("fixture: %llu users, %d segments, %d experiments x 3 arms, "
              "%d metrics, %d days; snapshot %.1f MB; node slices %.1f MB, "
              "hot tiers %.1f MB (R=%d, %d nodes); %zu queries per "
              "second of --seconds\n",
              static_cast<unsigned long long>(scale.users), scale.segments,
              scale.experiments, kMaxMetrics, kDays, snapshot_bytes / 1e6,
              slice_bytes / 1e6, hot_bytes / 1e6, kReplication, kNodes,
              scale.queries_per_second);

  ServeTrace trace;
  if (args.trace) {
    for (int n = 0; n < kNodes; ++n) {
      trace.mirrors.push_back(std::make_unique<TieredStore>(
          fleet->stores[n].get(), fleet->hot_capacity[n]));
    }
  }
  expbsi::net::CoordinatorOptions options;
  options.node_ports = fleet->ports;
  options.num_segments = scale.segments;
  options.replication_factor = kReplication;
  options.want_trace = false;
  expbsi::net::Coordinator untraced(options);
  options.want_trace = true;
  expbsi::net::Coordinator traced(options);

  // ---- oracle pass: every (experiment, window) with all metrics ----------
  auto oracle_pass = [&]() {
    for (int e = 0; e < scale.experiments; ++e) {
      for (int w = 1; w <= kDays; ++w) {
        ServeQuery q;
        q.strategies = ArmsOf(e);
        q.metrics = metric_ids;
        q.lo = static_cast<Date>(kLastDay - (w - 1));
        auto got = untraced.QueryBsi(q.strategies, q.metrics, q.lo, q.hi);
        CheckScorecard(args, q, got, expected, report);
        if (args.trace && !SyncMirrors(*fleet, q, &trace)) return false;
      }
    }
    return true;
  };
  if (!oracle_pass()) return false;

  // ---- timed phase --------------------------------------------------------
  const std::vector<ServeQuery> plan =
      MakePlan(args.seed, scale.plan_queries, scale.experiments, metric_ids);
  std::vector<Samples> untraced_per(plan.size()), traced_per(plan.size());
  Samples latency_ms, untraced_ms;
  uint64_t hot_hits = 0, cold_bytes = 0;
  const uint64_t cold_reads0 = CounterValue("tier.cold_reads");
  const double vm0 = ProcStatusMb("VmSize");
  const size_t total = std::min(
      scale.max_queries,
      static_cast<size_t>(scale.queries_per_second * args.seconds + 0.5));
  // A run that takes this long stops early (and says so).
  const double ceiling_seconds = 6 * args.seconds;
  expbsi::Stopwatch phase;
  size_t executed = 0;
  while (executed < total && phase.ElapsedSeconds() < ceiling_seconds) {
    // A traced run decomposes its second half of the queries: the p50
    // difference of the halves is the tracing overhead.
    const bool decompose = args.trace && executed >= total / 2;
    const size_t i = executed++ % plan.size();
    const ServeQuery& q = plan[i];
    expbsi::net::Coordinator& coordinator = decompose ? traced : untraced;
    const KernelCounts kernels0 = KernelCounts::Now();
    const int64_t t0 = NowNs();
    auto got = coordinator.QueryBsi(q.strategies, q.metrics, q.lo, q.hi);
    const int64_t t1 = NowNs();
    const double ms = (t1 - t0) / 1e6;
    (decompose ? latency_ms : untraced_ms).Add(ms);
    (decompose ? traced_per : untraced_per)[i].Add(ms);
    if (got.ok()) {
      hot_hits += got.value().hot_hits;
      cold_bytes += got.value().bytes_from_cold;
    }
    if (decompose) {
      trace.kernels.AddSince(kernels0);
      if (got.ok()) {
        trace.segment_execute_ms.Add(
            SlowestNodeSegmentMs(got.value().trace.get()));
        trace.cold_bytes += got.value().bytes_from_cold;
      }
      DecomposeQuery(*fleet, q, got, t0, t1, &trace, report);
    } else if (args.trace && !SyncMirrors(*fleet, q, &trace)) {
      trace.ok = false;
    }
    CheckScorecard(args, q, got, expected, report);
  }
  const double vm_growth = ProcStatusMb("VmSize") - vm0;
  report->EndToEnd("peak_rss_mb", memory.PeakMb(), "MB", 1);
  const uint64_t cold_reads = CounterValue("tier.cold_reads") - cold_reads0;
  if (!oracle_pass()) return false;
  if (!trace.ok) {
    std::fprintf(stderr, "serve: traced decomposition failed\n");
    return false;
  }
  if (executed < total) {
    std::printf("note: stopped after %zu of %zu queries (time ceiling)\n",
                executed, total);
  } else if (total == scale.max_queries) {
    std::printf("note: capped at the %zu-query ceiling\n", total);
  }

  const Samples& raw = args.trace ? latency_ms : untraced_ms;
  report->EndToEnd("setup_s", setup_s.Median(), "s", setup_s.size());
  ReportQueryLatency(args.trace ? traced_per : untraced_per, raw, report);
  report->EndToEnd("ops_per_s", raw.size() / (raw.Sum() / 1e3), "1/s",
                   raw.size());
  if (!args.trace) {
    // The node tiers' hit ratio, from the responses and the process-wide
    // counter (a traced run's mirror tiers also count there).
    report->Info("tier_hit_ratio",
                 hot_hits + cold_reads == 0
                     ? 0.0
                     : static_cast<double>(hot_hits) / (hot_hits + cold_reads),
                 "ratio", executed);
  }
  report->Info("cold_bytes_per_query",
               static_cast<double>(cold_bytes) / executed, "count", executed);
  report->Layer("expdata.bsi_build_s", bsi_build_s, "s", 1);
  report->Layer("storage.snapshot_recover_s", recover_s.Median(), "s",
                recover_s.size());
  report->Layer("storage.snapshot_bytes", static_cast<double>(snapshot_bytes),
                "count", 1);
  report->Layer("net.vmsize_growth_mb", vm_growth, "MB", executed);
  if (!args.trace) return true;

  const uint64_t n = trace.queries;
  const double per_query = n == 0 ? 0.0 : 1.0 / n;
  uint64_t mirror_hits = 0, mirror_cold = 0;
  for (const auto& mirror : trace.mirrors) {
    mirror_hits += mirror->stats().hot_hits;
    mirror_cold += mirror->stats().cold_reads;
  }
  report->Layer("net.connect_us", trace.connect_us.Mean(), "us", n);
  report->Layer("net.rtt_us", trace.rtt_us.Mean(), "us", n);
  report->Layer("wire.codec_us", trace.codec_us.Mean(), "us", n);
  report->Layer("cluster.segment_execute_ms", trace.segment_execute_ms.Mean(),
                "ms", trace.segment_execute_ms.size());
  report->Layer("storage.tier_fetch_ms",
                trace.ledger.Total("storage.tier_fetch") / 1e6 * per_query,
                "ms", n);
  report->Layer("storage.tier_hit_ratio",
                mirror_hits + mirror_cold == 0
                    ? 0.0
                    : static_cast<double>(mirror_hits) /
                          (mirror_hits + mirror_cold),
                "ratio", n);
  report->Layer("storage.cold_bytes_per_query", trace.cold_bytes * per_query,
                "count", n);
  report->Layer("bsi.decode_ms",
                trace.ledger.Total("bsi.decode") / 1e6 * per_query, "ms", n);
  report->Layer("bsi.expose_mask_ms",
                trace.ledger.Total("bsi.expose_mask") / 1e6 * per_query, "ms",
                n);
  report->Layer("bsi.masked_sum_ms",
                trace.ledger.Total("bsi.masked_sum") / 1e6 * per_query, "ms",
                n);
  report->Layer("bsi.masked_sums_per_query", trace.masked_sums * per_query,
                "count", n);
  report->Layer("serve.unattributed_ms",
                trace.ledger.Total("serve.unattributed") / 1e6 * per_query,
                "ms", n);
  trace.kernels.ReportPerQuery(n, report);
  report->Layer("trace.overhead_pct",
                OverheadPct(PerOpQuantile(traced_per, 0.5),
                            PerOpQuantile(untraced_per, 0.5)),
                "%", n);
  trace.ledger.Print("scorecard_serve");
  const std::string dump = dir + "/spans.jsonl";
  if (trace.spans.WriteJsonLines(dump)) {
    std::printf("spans: %zu written to %s\n", trace.spans.size(),
                dump.c_str());
  }
  return true;
}

}  // namespace perfbench
