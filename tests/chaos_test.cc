// Chaos suite: seeded fault schedules (tests/property_gen.h
// GenFaultSchedule) replayed against the PR-1 differential oracle. The
// invariants, per docs/TESTING.md "Chaos tests":
//
//   (a) a non-degraded result is BIT-IDENTICAL to the fault-free run;
//   (b) a degraded result reports exactly the lost segments -- every other
//       segment's values still match the fault-free run bit for bit;
//   (c) no crash, no hang, no silently wrong answer (also exercised under
//       asan/tsan in the CI chaos job).
//
// Reproducing a failure: every assertion message carries the iteration
// seed. Re-run just that seed with
//
//   EXPBSI_CHAOS_SEED=<seed> ./build/tests/expbsi_tests
//       --gtest_filter='ChaosTest.*'   (one command, line-wrapped)
//
// EXPBSI_CHAOS_ITERS widens the random exploration (CI runs 200 in Release,
// 20 under each sanitizer); the corpus in tests/corpus/chaos_seeds.txt is
// replayed BEFORE the exploration so known-nasty recovery interleavings
// stay covered. EXPBSI_CHAOS_LOG=1 prints a one-line classification per
// seed, which is how corpus candidates are hunted.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/precompute_pipeline.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "wal/wal.h"
#include "tests/property_gen.h"

namespace expbsi {
namespace {

// ---------------------------------------------------------------------------
// Seed schedule (same shape as differential_test.cc).
// ---------------------------------------------------------------------------

uint64_t Splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<uint64_t> CorpusSeeds() {
  std::vector<uint64_t> seeds;
#ifdef EXPBSI_CORPUS_DIR
  std::ifstream in(std::string(EXPBSI_CORPUS_DIR) + "/chaos_seeds.txt");
  EXPECT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                         << "/chaos_seeds.txt";
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    uint64_t seed;
    if (ls >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 4u) << "chaos corpus unexpectedly small";
#endif
  return seeds;
}

int ExploreIters() {
  if (const char* env = std::getenv("EXPBSI_CHAOS_ITERS")) {
    return static_cast<int>(std::strtol(env, nullptr, 0));
  }
  return 25;
}

std::vector<uint64_t> SeedSchedule(uint64_t base) {
  if (const char* env = std::getenv("EXPBSI_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  std::vector<uint64_t> seeds = CorpusSeeds();
  uint64_t x = base;
  for (int i = 0, n = ExploreIters(); i < n; ++i) {
    x = Splitmix(x);
    seeds.push_back(x);
  }
  return seeds;
}

std::string Ctx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_CHAOS_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='ChaosTest.*')";
}

bool ChaosLogEnabled() {
  static const bool enabled = std::getenv("EXPBSI_CHAOS_LOG") != nullptr;
  return enabled;
}

// ---------------------------------------------------------------------------
// Fixture: one small dataset, fault-free baselines computed once.
// ---------------------------------------------------------------------------

constexpr Date kLo = 10;
constexpr Date kHi = 14;
const std::vector<uint64_t> kStrategies = {801, 802};
const std::vector<uint64_t> kMetrics = {901, 902};

std::vector<StrategyMetricPair> AllPairs() {
  std::vector<StrategyMetricPair> pairs;
  for (uint64_t s : kStrategies) {
    for (uint64_t m : kMetrics) pairs.push_back({s, m});
  }
  return pairs;
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_users = 3000;
    config.num_segments = 6;
    config.num_days = 5;
    config.start_date = kLo;
    config.seed = 71;

    ExperimentConfig exp;
    exp.strategy_ids = {801, 802};
    exp.arm_effects = {1.0, 1.1};
    exp.traffic_salt = 5;

    MetricConfig m1;
    m1.metric_id = 901;
    m1.value_range = 100;
    m1.daily_participation = 0.5;
    MetricConfig m2;
    m2.metric_id = 902;
    m2.value_range = 1;
    m2.daily_participation = 0.7;

    dataset_ = new Dataset(GenerateDataset(config, {exp}, {m1, m2}, {}));
    bsi_ = new ExperimentBsiData(BuildExperimentBsiData(*dataset_, true));
    baseline_ = new std::map<StrategyMetricPair, BucketValues>();
    for (const StrategyMetricPair& pair : AllPairs()) {
      (*baseline_)[pair] =
          ComputeStrategyMetricBsi(*bsi_, pair.first, pair.second, kLo, kHi);
    }
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete bsi_;
    delete dataset_;
  }

  // Degraded-aware comparison against the fault-free baseline: segments in
  // `lost` must be zero slots, every other segment bit-identical.
  static void ExpectMatchesBaselineExcept(
      const std::map<StrategyMetricPair, BucketValues>& results,
      const std::vector<int>& lost_segments, const std::string& ctx) {
    const std::set<int> lost(lost_segments.begin(), lost_segments.end());
    ASSERT_EQ(results.size(), baseline_->size()) << ctx;
    for (const auto& [pair, values] : results) {
      const BucketValues& want = baseline_->at(pair);
      ASSERT_EQ(values.sums.size(), want.sums.size()) << ctx;
      ASSERT_EQ(values.counts.size(), want.counts.size()) << ctx;
      for (size_t seg = 0; seg < values.sums.size(); ++seg) {
        if (lost.count(static_cast<int>(seg)) > 0) {
          EXPECT_EQ(values.sums[seg], 0.0)
              << ctx << " lost segment " << seg << " has a nonzero sum";
          EXPECT_EQ(values.counts[seg], 0.0)
              << ctx << " lost segment " << seg << " has a nonzero count";
        } else {
          EXPECT_EQ(values.sums[seg], want.sums[seg])
              << ctx << " pair " << pair.first << "/" << pair.second
              << " segment " << seg << " diverged without being reported";
          EXPECT_EQ(values.counts[seg], want.counts[seg])
              << ctx << " pair " << pair.first << "/" << pair.second
              << " segment " << seg << " count diverged";
        }
      }
    }
  }

  static void ExpectDegradedInfoWellFormed(
      const AdhocCluster::DegradedInfo& info, const std::string& ctx) {
    EXPECT_TRUE(std::is_sorted(info.lost_segments.begin(),
                               info.lost_segments.end()))
        << ctx;
    EXPECT_EQ(std::adjacent_find(info.lost_segments.begin(),
                                 info.lost_segments.end()),
              info.lost_segments.end())
        << ctx << " duplicate lost segment";
    for (int seg : info.lost_segments) {
      EXPECT_GE(seg, 0) << ctx;
      EXPECT_LT(seg, dataset_->config.num_segments) << ctx;
    }
    EXPECT_EQ(info.segments_answered,
              dataset_->config.num_segments -
                  static_cast<int>(info.lost_segments.size()))
        << ctx;
  }

  // One full ad-hoc chaos iteration for `seed`: generate a schedule, run a
  // fresh cluster under it in degraded mode, check invariants (a)-(c).
  static void RunAdhocIteration(uint64_t seed) {
    Rng rng(seed);
    const propgen::FaultSchedule schedule = propgen::GenFaultSchedule(rng);
    AdhocClusterConfig config;
    config.num_nodes = 2 + static_cast<int>(rng.NextBounded(3));
    config.allow_degraded = true;
    AdhocCluster cluster(dataset_, bsi_, config);

    FaultInjector injector(schedule.injector_seed);
    schedule.ApplyTo(&injector);
    Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
    {
      ScopedFaultInjection scoped(&injector);
      result = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    }
    const std::string ctx = Ctx(seed, "adhoc chaos");
    ASSERT_TRUE(result.ok()) << ctx << " degraded-mode query failed: "
                             << result.status().ToString();
    const AdhocCluster::QueryStats& stats = result.value();
    ExpectDegradedInfoWellFormed(stats.degraded, ctx);
    ExpectMatchesBaselineExcept(stats.results, stats.degraded.lost_segments,
                                ctx);
    if (ChaosLogEnabled()) {
      std::fprintf(
          stderr,
          "[chaos] seed=%llu lost=%d nodes_lost=%d retries=%d survived=%d "
          "corruptions=%llu injected=%llu\n",
          static_cast<unsigned long long>(seed),
          static_cast<int>(stats.degraded.lost_segments.size()),
          stats.degraded.nodes_lost, stats.degraded.retries,
          stats.degraded.faults_survived,
          static_cast<unsigned long long>(injector.stats().corruptions),
          static_cast<unsigned long long>(injector.stats().any()));
    }
  }

  // One pipeline chaos iteration: successful pairs bit-identical, failed
  // pairs explicit and uncached.
  static void RunPipelineIteration(uint64_t seed) {
    Rng rng(seed);
    const propgen::FaultSchedule schedule = propgen::GenFaultSchedule(rng);
    PrecomputeConfig config;
    config.num_threads = 1 + static_cast<int>(rng.NextBounded(4));
    config.batch_size = 1 + static_cast<int>(rng.NextBounded(6));
    PrecomputePipeline pipeline(dataset_, bsi_, config);

    FaultInjector injector(schedule.injector_seed);
    schedule.ApplyTo(&injector);
    const std::vector<StrategyMetricPair> pairs = AllPairs();
    PrecomputeStats stats;
    {
      ScopedFaultInjection scoped(&injector);
      stats = pipeline.RunBsi(pairs, kLo, kHi);
    }
    const std::string ctx = Ctx(seed, "pipeline chaos");
    const std::set<StrategyMetricPair> failed(stats.failed_pairs.begin(),
                                              stats.failed_pairs.end());
    EXPECT_EQ(failed.size(), stats.failed_pairs.size())
        << ctx << " duplicate failed pair";
    EXPECT_EQ(stats.pairs_computed + static_cast<int>(failed.size()),
              static_cast<int>(pairs.size()))
        << ctx;
    for (const StrategyMetricPair& pair : pairs) {
      const BucketValues* got = pipeline.GetResult(pair);
      if (failed.count(pair) > 0) {
        EXPECT_EQ(got, nullptr)
            << ctx << " failed pair still has a cached result";
        continue;
      }
      ASSERT_NE(got, nullptr) << ctx;
      const BucketValues& want = baseline_->at(pair);
      EXPECT_EQ(got->sums, want.sums) << ctx;
      EXPECT_EQ(got->counts, want.counts) << ctx;
    }
  }

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
  static std::map<StrategyMetricPair, BucketValues>* baseline_;
};

Dataset* ChaosTest::dataset_ = nullptr;
ExperimentBsiData* ChaosTest::bsi_ = nullptr;
std::map<StrategyMetricPair, BucketValues>* ChaosTest::baseline_ = nullptr;

// ---------------------------------------------------------------------------
// Baseline sanity: the fault-free cluster answer IS the oracle answer.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, FaultFreeBaselineMatchesScalarOracle) {
  ASSERT_EQ(FaultInjector::Get(), nullptr);
  const RefExperimentData ref = BuildRefExperimentData(*dataset_);
  for (const auto& [pair, values] : *baseline_) {
    const BucketValues want =
        RefComputeStrategyMetric(ref, pair.first, pair.second, kLo, kHi);
    EXPECT_EQ(values.sums, want.sums) << pair.first << "/" << pair.second;
    EXPECT_EQ(values.counts, want.counts);
  }
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto stats = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().degraded.degraded());
  ExpectMatchesBaselineExcept(stats.value().results, {}, "fault-free");
}

// ---------------------------------------------------------------------------
// The seeded sweeps (corpus first, then exploration).
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, AdhocSurvivesSeededFaultSchedules) {
  for (uint64_t seed : SeedSchedule(0xADC0C5u)) {
    RunAdhocIteration(seed);
    if (HasFatalFailure()) return;
  }
}

TEST_F(ChaosTest, PipelineSurvivesSeededFaultSchedules) {
  for (uint64_t seed : SeedSchedule(0xF1BE5u)) {
    RunPipelineIteration(seed);
    if (HasFatalFailure()) return;
  }
}

// Same seed, fresh cluster and injector: results and degradation accounting
// replay identically (the whole point of deterministic injection).
TEST_F(ChaosTest, SameSeedReplaysIdentically) {
  const uint64_t seed = Splitmix(0xDE7E12ull);
  auto run = [&](std::map<StrategyMetricPair, BucketValues>* results,
                 AdhocCluster::DegradedInfo* degraded) {
    Rng rng(seed);
    const propgen::FaultSchedule schedule = propgen::GenFaultSchedule(rng);
    AdhocClusterConfig config;
    config.num_nodes = 2 + static_cast<int>(rng.NextBounded(3));
    config.allow_degraded = true;
    AdhocCluster cluster(dataset_, bsi_, config);
    FaultInjector injector(schedule.injector_seed);
    schedule.ApplyTo(&injector);
    ScopedFaultInjection scoped(&injector);
    const auto stats = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    ASSERT_TRUE(stats.ok());
    *results = stats.value().results;
    *degraded = stats.value().degraded;
  };
  std::map<StrategyMetricPair, BucketValues> first, second;
  AdhocCluster::DegradedInfo dfirst, dsecond;
  run(&first, &dfirst);
  run(&second, &dsecond);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [pair, values] : first) {
    EXPECT_EQ(values.sums, second.at(pair).sums);
    EXPECT_EQ(values.counts, second.at(pair).counts);
  }
  EXPECT_EQ(dfirst.lost_segments, dsecond.lost_segments);
  EXPECT_EQ(dfirst.segments_answered, dsecond.segments_answered);
  EXPECT_EQ(dfirst.retries, dsecond.retries);
  EXPECT_EQ(dfirst.faults_survived, dsecond.faults_survived);
  EXPECT_EQ(dfirst.nodes_lost, dsecond.nodes_lost);
}

// ---------------------------------------------------------------------------
// Named recovery scenarios (hand-pinned schedules).
// ---------------------------------------------------------------------------

// A corrupt transfer is caught by the fingerprint gate, retried, and the
// retry re-reads the warehouse: full recovery, flagged only in the stats.
TEST_F(ChaosTest, CorruptTransferRecoversOnRetry) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  config.allow_degraded = true;
  AdhocCluster cluster(dataset_, bsi_, config);
  FaultInjector injector(/*seed=*/11);
  injector.ScheduleFault(fault_sites::kTierFetch, 0, FaultKind::kCorrupt);
  ScopedFaultInjection scoped(&injector);
  const auto stats = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().degraded.degraded());
  EXPECT_GE(stats.value().degraded.retries, 1);
  EXPECT_GE(stats.value().degraded.faults_survived, 1);
  EXPECT_EQ(injector.stats().corruptions, 1u);
  ExpectMatchesBaselineExcept(stats.value().results, {},
                              "corrupt-transfer-retry");
}

// Node 0 crashes in wave 1; its segments requeue onto nodes 1 and 2. Node 1
// then crashes at the start of wave 2 -- a crash DURING requeue -- and the
// twice-orphaned segment finishes on node 2. Nothing is lost.
TEST_F(ChaosTest, CrashDuringRequeueStillCompletes) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  config.allow_degraded = true;
  AdhocCluster cluster(dataset_, bsi_, config);
  // 6 segments over 3 nodes: node0={0,3} node1={1,4} node2={2,5}. Wave-1
  // coordinator order evaluates adhoc.node_segment ops 0..4 (node0 crashes
  // at op 0, so segments 1,4,2,5 take ops 1-4); the wave-2 requeue puts
  // segment 0 on node1 (op 5, crash again) and segment 3 on node2 (op 6);
  // wave 3 retries segment 0 on node2 (op 7).
  FaultInjector injector(/*seed=*/12);
  injector.ScheduleFault(fault_sites::kNodeSegment, 0, FaultKind::kCrash);
  injector.ScheduleFault(fault_sites::kNodeSegment, 5, FaultKind::kCrash);
  ScopedFaultInjection scoped(&injector);
  const auto stats = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().degraded.degraded());
  EXPECT_EQ(stats.value().degraded.nodes_lost, 2);
  EXPECT_GE(stats.value().degraded.faults_survived, 2);
  ExpectMatchesBaselineExcept(stats.value().results, {},
                              "crash-during-requeue");
}

// Every node crashes: in degraded mode the whole scorecard is lost but the
// loss is fully reported; in strict mode the query errors out.
TEST_F(ChaosTest, TotalNodeLossDegradesEverySegment) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  config.allow_degraded = true;
  AdhocCluster cluster(dataset_, bsi_, config);
  FaultInjector injector(/*seed=*/13);
  injector.SetCrashProbability(fault_sites::kNodeSegment, 1.0);
  ScopedFaultInjection scoped(&injector);
  const auto stats = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_TRUE(stats.ok());
  const AdhocCluster::DegradedInfo& info = stats.value().degraded;
  EXPECT_EQ(static_cast<int>(info.lost_segments.size()),
            dataset_->config.num_segments);
  EXPECT_EQ(info.segments_answered, 0);
  EXPECT_EQ(info.nodes_lost, 3);
  ExpectMatchesBaselineExcept(stats.value().results, info.lost_segments,
                              "total-node-loss");

  AdhocClusterConfig strict = config;
  strict.allow_degraded = false;
  AdhocCluster strict_cluster(dataset_, bsi_, strict);
  FaultInjector strict_injector(/*seed=*/13);
  strict_injector.SetCrashProbability(fault_sites::kNodeSegment, 1.0);
  ScopedFaultInjection strict_scoped(&strict_injector);
  const auto strict_result =
      strict_cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_FALSE(strict_result.ok());
  EXPECT_EQ(strict_result.status().code(), StatusCode::kUnavailable);
}

// Persistent corruption (every transfer flips bits) exhausts the retry
// budget; strict mode surfaces it as a Status instead of degrading.
TEST_F(ChaosTest, StrictModePersistentCorruptionSurfacesAsStatus) {
  AdhocClusterConfig config;
  config.allow_degraded = false;
  AdhocCluster cluster(dataset_, bsi_, config);
  FaultInjector injector(/*seed=*/14);
  injector.SetCorruptProbability(fault_sites::kTierFetch, 1.0);
  ScopedFaultInjection scoped(&injector);
  const auto result = cluster.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// Pipeline: one pair's every attempt fails -> explicit failed_pairs entry
// and no cached result; a single-attempt blip on another pair is retried
// away without a trace beyond the retry counter.
TEST_F(ChaosTest, PipelineFailedPairsAreExplicitAndUncached) {
  const std::vector<StrategyMetricPair> pairs = AllPairs();
  PrecomputeConfig config;
  config.num_threads = 2;
  config.batch_size = 2;
  PrecomputePipeline pipeline(dataset_, bsi_, config);
  FaultInjector injector(/*seed=*/15);
  // Pair index 2 fails all three attempts; pair index 0 only the first.
  for (uint64_t attempt = 0; attempt < 3; ++attempt) {
    injector.ScheduleFault(fault_sites::kPipelineTask,
                           2 * kPipelineAttemptStride + attempt,
                           FaultKind::kFail);
  }
  injector.ScheduleFault(fault_sites::kPipelineTask, 0, FaultKind::kFail);
  PrecomputeStats stats;
  {
    ScopedFaultInjection scoped(&injector);
    stats = pipeline.RunBsi(pairs, kLo, kHi);
  }
  ASSERT_EQ(stats.failed_pairs.size(), 1u);
  EXPECT_EQ(stats.failed_pairs[0], pairs[2]);
  EXPECT_EQ(pipeline.GetResult(pairs[2]), nullptr);
  EXPECT_EQ(stats.pairs_computed, static_cast<int>(pairs.size()) - 1);
  EXPECT_GE(stats.retries, 3);  // 2 for the doomed pair + 1 for the blip
  EXPECT_GT(stats.backoff_seconds, 0.0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 2) continue;
    const BucketValues* got = pipeline.GetResult(pairs[i]);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->sums, baseline_->at(pairs[i]).sums);
    EXPECT_EQ(got->counts, baseline_->at(pairs[i]).counts);
  }
}

// ---------------------------------------------------------------------------
// FaultInjector unit behavior.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisabledByDefault) {
  EXPECT_EQ(FaultInjector::Get(), nullptr);
}

TEST(FaultInjectorTest, ScopedInstallRestoresPrevious) {
  FaultInjector outer(1), inner(2);
  {
    ScopedFaultInjection outer_scope(&outer);
    EXPECT_EQ(FaultInjector::Get(), &outer);
    {
      ScopedFaultInjection inner_scope(&inner);
      EXPECT_EQ(FaultInjector::Get(), &inner);
    }
    EXPECT_EQ(FaultInjector::Get(), &outer);
  }
  EXPECT_EQ(FaultInjector::Get(), nullptr);
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  const auto decisions = [](uint64_t seed) {
    FaultInjector fi(seed);
    fi.SetFailProbability(fault_sites::kTierFetch, 0.3);
    fi.SetCorruptProbability(fault_sites::kTierFetch, 0.2);
    fi.SetDelayProbability(fault_sites::kTierFetch, 0.25, 0.01);
    fi.SetCrashProbability(fault_sites::kNodeSegment, 0.15);
    std::vector<int> out;
    for (int i = 0; i < 200; ++i) {
      const FaultDecision a = fi.Evaluate(fault_sites::kTierFetch);
      const FaultDecision b = fi.Evaluate(fault_sites::kNodeSegment);
      out.push_back((a.fail ? 1 : 0) | (a.corrupt ? 2 : 0) |
                    (a.delay_seconds > 0 ? 4 : 0) | (b.crash ? 8 : 0));
    }
    return out;
  };
  EXPECT_EQ(decisions(42), decisions(42));
  EXPECT_NE(decisions(42), decisions(43));
}

TEST(FaultInjectorTest, OneShotFiresAtExactlyItsOpIndex) {
  FaultInjector fi(7);
  fi.ScheduleFault(fault_sites::kWarehouseGet, 3, FaultKind::kFail);
  for (int i = 0; i < 10; ++i) {
    const FaultDecision d = fi.Evaluate(fault_sites::kWarehouseGet);
    EXPECT_EQ(d.fail, i == 3) << "op " << i;
  }
  EXPECT_EQ(fi.stats().fails, 1u);
  EXPECT_EQ(fi.stats().evaluations, 10u);
}

TEST(FaultInjectorTest, EvaluateAtDoesNotAdvanceTheCounter) {
  FaultInjector fi(8);
  fi.ScheduleFault(fault_sites::kPipelineTask, 0, FaultKind::kFail);
  EXPECT_TRUE(fi.EvaluateAt(fault_sites::kPipelineTask, 0).fail);
  EXPECT_FALSE(fi.EvaluateAt(fault_sites::kPipelineTask, 1).fail);
  // The counter-consuming path still starts at op 0.
  EXPECT_TRUE(fi.Evaluate(fault_sites::kPipelineTask).fail);
}

TEST(FaultInjectorTest, CorruptBlobIsDeterministicAndFlipsBits) {
  const std::string original = "serialized bsi payload bytes 0123456789";
  FaultInjector fi(9);
  std::string a = original, b = original;
  fi.CorruptBlob(17, &a);
  fi.CorruptBlob(17, &b);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, original);
  EXPECT_EQ(a.size(), original.size());
  std::string c = original;
  fi.CorruptBlob(18, &c);
  EXPECT_NE(c, a);  // different token, different flips
  std::string empty;
  fi.CorruptBlob(17, &empty);  // no-op, must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjectorTest, UnconfiguredSitesNeverFire) {
  FaultInjector fi(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.Evaluate(fault_sites::kTierFetch).any());
  }
  EXPECT_EQ(fi.stats().any(), 0u);
  EXPECT_EQ(fi.stats().evaluations, 100u);
}

// BlobFingerprint is the corruption detector; it must see single bit flips.
TEST(FaultInjectorTest, FingerprintDetectsEveryInjectedCorruption) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::string blob(1 + rng.NextBounded(300), '\0');
    for (char& ch : blob) ch = static_cast<char>(rng.NextBounded(256));
    const uint64_t clean = BlobFingerprint(blob);
    FaultInjector fi(rng.Next());
    std::string corrupted = blob;
    fi.CorruptBlob(iter, &corrupted);
    if (corrupted != blob) {
      EXPECT_NE(BlobFingerprint(corrupted), clean) << "iter " << iter;
    }
  }
}


// ---------------------------------------------------------------------------
// Snapshot kill-recovery chaos (DESIGN.md §6). The property under test: a
// snapshot commit killed or corrupted at ANY step leaves the directory in a
// state where recovery returns either the previous version or the new one
// -- surviving segments bit-identical to that version, lost segments
// enumerated, never a torn mix and never a silent zero.
// ---------------------------------------------------------------------------

std::string SnapCtx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_CHAOS_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='SnapshotChaosTest.*')";
}

// Fresh, emptied scratch directory (snapshot files persist across runs in
// the test tmp root otherwise).
std::string SnapshotChaosDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "expbsi_chaos_" + name;
  EXPECT_TRUE(fileio::CreateDirIfMissing(dir).ok());
  const Result<std::vector<std::string>> listing1 = fileio::ListDir(dir);
  EXPECT_TRUE(listing1.ok());
  if (listing1.ok()) {
    for (const std::string& entry : listing1.value()) {
      EXPECT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
    }
  }
  return dir;
}

// Opaque deterministic blobs; the snapshot layer never looks inside them.
BsiStore MakeChaosStore(uint64_t seed, int num_segments) {
  Rng rng(seed);
  BsiStore store;
  for (int seg = 0; seg < num_segments; ++seg) {
    const int blobs = 1 + static_cast<int>(rng.NextBounded(4));
    for (int b = 0; b < blobs; ++b) {
      std::string bytes(1 + rng.NextBounded(500), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xff);
      BsiStoreKey key;
      key.segment = static_cast<uint16_t>(seg);
      key.kind = static_cast<BsiKind>(b % 3);
      key.id = 50 + b;
      key.date = static_cast<uint32_t>(b);
      store.Put(key, std::move(bytes));
    }
  }
  return store;
}

using SnapBlobKey = std::tuple<uint16_t, uint8_t, uint64_t, uint32_t>;

std::map<SnapBlobKey, std::string> SnapContentsOf(const BsiStore& store) {
  std::map<SnapBlobKey, std::string> out;
  store.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
    out[{key.segment, static_cast<uint8_t>(key.kind), key.id, key.date}] =
        bytes;
  });
  return out;
}

// The core invariant: `recovered` against the version the manifest says was
// loaded. Surviving segments bit-identical, lost enumerated, nothing else.
void ExpectRecoveredConsistent(const BsiStore& recovered,
                               const RecoveryReport& report,
                               const BsiStore& expected,
                               const std::string& ctx) {
  const std::map<SnapBlobKey, std::string> want = SnapContentsOf(expected);
  const std::map<SnapBlobKey, std::string> got = SnapContentsOf(recovered);
  const std::set<uint16_t> lost(report.lost_segments.begin(),
                                report.lost_segments.end());
  const std::set<uint16_t> ok_segs(report.segments_recovered.begin(),
                                   report.segments_recovered.end());
  EXPECT_EQ(lost.size(), report.lost_segments.size())
      << ctx << " duplicate lost segment";
  for (uint16_t seg : lost) {
    EXPECT_EQ(ok_segs.count(seg), 0u)
        << ctx << " segment " << seg << " both lost and recovered";
  }
  std::set<uint16_t> expected_segments;
  for (const auto& [k, v] : want) expected_segments.insert(std::get<0>(k));
  std::set<uint16_t> reported;
  reported.insert(lost.begin(), lost.end());
  reported.insert(ok_segs.begin(), ok_segs.end());
  EXPECT_EQ(reported, expected_segments)
      << ctx << " lost+recovered does not partition the manifest segments";
  size_t live_blobs = 0;
  for (const auto& [k, v] : want) {
    const uint16_t seg = std::get<0>(k);
    const auto it = got.find(k);
    if (lost.count(seg) > 0) {
      EXPECT_EQ(it, got.end()) << ctx << " lost segment leaked a blob";
    } else {
      ++live_blobs;
      ASSERT_NE(it, got.end())
          << ctx << " segment " << seg << " silently dropped a blob";
      EXPECT_EQ(it->second, v)
          << ctx << " recovered blob diverged from the committed version";
    }
  }
  EXPECT_EQ(got.size(), live_blobs)
      << ctx << " recovered store holds blobs from no committed version";
}

// One seeded iteration: commit v1 clean, attempt v2 under a generated
// snapshot fault schedule, recover under the same injector (read faults
// fire here), then check the invariant against whichever version the
// manifest selected.
void RunSnapshotChaosIteration(uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  const int v1_segments = 1 + static_cast<int>(rng.NextBounded(3));
  const BsiStore v1 = MakeChaosStore(rng.Next(), v1_segments);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());

  const int v2_segments =
      v1_segments + (rng.NextBernoulli(0.3) ? 1 : 0);
  const BsiStore v2 = MakeChaosStore(rng.Next(), v2_segments);
  const propgen::FaultSchedule schedule = propgen::GenSnapshotFaultSchedule(
      rng, static_cast<uint64_t>(v2_segments) + 1);

  FaultInjector injector(schedule.injector_seed);
  schedule.ApplyTo(&injector);
  Status write_status = Status::OK();
  Result<BsiStore> recovered(Status::Unavailable("not run"));
  RecoveryReport report;
  {
    ScopedFaultInjection scoped(&injector);
    const Result<SnapshotWriteStats> written =
        SnapshotWriter::Write(v2, dir);
    write_status = written.status();
    recovered = BsiStore::Recover(dir, &report);
  }
  const std::string ctx = SnapCtx(seed, "snapshot chaos");
  // v1's manifest was committed fault-free and manifest reads are never
  // injected, so recovery always has a floor to land on.
  ASSERT_TRUE(recovered.ok()) << ctx << ": "
                              << recovered.status().ToString();
  ASSERT_TRUE(report.manifest_version == 1 || report.manifest_version == 2)
      << ctx << " manifest version " << report.manifest_version;
  if (!write_status.ok()) {
    EXPECT_EQ(report.manifest_version, 1u)
        << ctx << " failed commit must not be visible";
  }
  const BsiStore& expected = report.manifest_version == 2 ? v2 : v1;
  ExpectRecoveredConsistent(recovered.value(), report, expected, ctx);
  if (ChaosLogEnabled()) {
    std::fprintf(
        stderr,
        "[snapchaos] seed=%llu write_ok=%d version=%llu lost=%d skipped=%u "
        "injected=%llu\n",
        static_cast<unsigned long long>(seed),
        write_status.ok() ? 1 : 0,
        static_cast<unsigned long long>(report.manifest_version),
        static_cast<int>(report.lost_segments.size()),
        report.manifests_skipped,
        static_cast<unsigned long long>(injector.stats().any()));
  }
}

std::vector<uint64_t> SnapshotSeedSchedule(uint64_t base) {
  if (const char* env = std::getenv("EXPBSI_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  std::vector<uint64_t> seeds;
#ifdef EXPBSI_CORPUS_DIR
  std::ifstream in(std::string(EXPBSI_CORPUS_DIR) + "/snapshot_seeds.txt");
  EXPECT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                         << "/snapshot_seeds.txt";
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    uint64_t seed;
    if (ls >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 4u) << "snapshot chaos corpus unexpectedly small";
#endif
  uint64_t x = base;
  for (int i = 0, n = ExploreIters(); i < n; ++i) {
    x = Splitmix(x);
    seeds.push_back(x);
  }
  return seeds;
}

TEST(SnapshotChaosTest, SurvivesSeededKillSchedules) {
  const std::string dir = SnapshotChaosDir("seeded");
  for (uint64_t seed : SnapshotSeedSchedule(0x5A4B111ull)) {
    // Fresh directory per iteration: stale committed versions from the
    // previous seed would shift version numbers.
    const Result<std::vector<std::string>> listing2 = fileio::ListDir(dir);
    ASSERT_TRUE(listing2.ok());
    for (const std::string& entry : listing2.value()) {
      ASSERT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
    }
    RunSnapshotChaosIteration(seed, dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Exhaustive deterministic sweep: one-shot kill at EVERY write and rename
// step of the commit. Before the manifest rename lands the old version must
// recover exactly; a clean retry must then commit the new version with no
// residue from the killed attempt.
TEST(SnapshotChaosTest, KillSweepMidCommitNeverTearsASnapshot) {
  constexpr int kSegments = 3;
  const BsiStore v1 = MakeChaosStore(101, kSegments);
  const BsiStore v2 = MakeChaosStore(202, kSegments);
  const char* sites[] = {fault_sites::kSnapshotWrite,
                         fault_sites::kSnapshotRename};
  for (const char* site : sites) {
    // kSegments segment files + the manifest = kSegments + 1 ops per site.
    for (uint64_t k = 0; k <= kSegments; ++k) {
      const std::string ctx = std::string("kill at ") + site + " op " +
                              std::to_string(k);
      const std::string dir = SnapshotChaosDir("kill_sweep");
      ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok()) << ctx;
      {
        FaultInjector injector(7);
        injector.ScheduleFault(site, k, FaultKind::kCrash);
        ScopedFaultInjection scoped(&injector);
        EXPECT_FALSE(SnapshotWriter::Write(v2, dir).ok()) << ctx;
      }
      RecoveryReport report;
      Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
      ASSERT_TRUE(recovered.ok()) << ctx;
      EXPECT_EQ(report.manifest_version, 1u) << ctx;
      EXPECT_TRUE(report.fully_recovered()) << ctx;
      ExpectRecoveredConsistent(recovered.value(), report, v1, ctx);

      // Clean retry: the killed attempt's residue must not block or taint
      // the next commit.
      ASSERT_TRUE(SnapshotWriter::Write(v2, dir).ok()) << ctx;
      report = RecoveryReport();
      recovered = BsiStore::Recover(dir, &report);
      ASSERT_TRUE(recovered.ok()) << ctx;
      EXPECT_EQ(report.manifest_version, 2u) << ctx;
      EXPECT_TRUE(report.fully_recovered()) << ctx;
      ExpectRecoveredConsistent(recovered.value(), report, v2,
                                ctx + " after retry");
      const Result<std::vector<std::string>> listing3 = fileio::ListDir(dir);
      ASSERT_TRUE(listing3.ok());
      for (const std::string& name : listing3.value()) {
        EXPECT_EQ(name.find(".tmp"), std::string::npos)
            << ctx << " stale temp file " << name << " survived the commit";
      }
    }
  }
}

// A kill right before the manifest rename: the new version's manifest is
// durable as a .tmp, which must never count as a commit.
TEST(SnapshotChaosTest, RecoverAfterTornManifestFallsBack) {
  constexpr int kSegments = 2;
  const std::string dir = SnapshotChaosDir("torn_manifest");
  const BsiStore v1 = MakeChaosStore(301, kSegments);
  const BsiStore v2 = MakeChaosStore(302, kSegments);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());
  {
    FaultInjector injector(9);
    // Crash on the write of the manifest itself (op kSegments): its .tmp
    // holds a torn prefix.
    injector.ScheduleFault(fault_sites::kSnapshotWrite, kSegments,
                           FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    EXPECT_FALSE(SnapshotWriter::Write(v2, dir).ok());
  }
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.manifest_version, 1u);
  EXPECT_EQ(report.manifests_skipped, 0u);  // a .tmp is not a candidate
  ExpectRecoveredConsistent(recovered.value(), report, v1, "torn manifest");
}

// A kill mid-way through a segment file write: v2's partial bytes exist
// only as a .tmp; v1 recovers untouched.
TEST(SnapshotChaosTest, RecoverAfterPartialSegmentFile) {
  constexpr int kSegments = 2;
  const std::string dir = SnapshotChaosDir("partial_segment");
  const BsiStore v1 = MakeChaosStore(401, kSegments);
  const BsiStore v2 = MakeChaosStore(402, kSegments);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());
  {
    FaultInjector injector(13);
    injector.ScheduleFault(fault_sites::kSnapshotWrite, 0,
                           FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    EXPECT_FALSE(SnapshotWriter::Write(v2, dir).ok());
  }
  // The torn prefix is on disk (as .tmp), proving the kill really happened
  // mid-write rather than before it.
  bool saw_tmp = false;
  const Result<std::vector<std::string>> listing4 = fileio::ListDir(dir);
  ASSERT_TRUE(listing4.ok());
  for (const std::string& name : listing4.value()) {
    if (name.find(".tmp") != std::string::npos) saw_tmp = true;
  }
  EXPECT_TRUE(saw_tmp);
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.manifest_version, 1u);
  EXPECT_TRUE(report.fully_recovered());
  ExpectRecoveredConsistent(recovered.value(), report, v1,
                            "partial segment");
}

// Bits flipped in a segment file while it was being written, with the
// commit still landing: the block checksums catch it at recovery, the
// segment is quarantined and enumerated, the rest of v2 serves.
TEST(SnapshotChaosTest, RecoverAfterBitflippedBlockQuarantines) {
  constexpr int kSegments = 3;
  const std::string dir = SnapshotChaosDir("bitflipped_block");
  const BsiStore v1 = MakeChaosStore(501, kSegments);
  const BsiStore v2 = MakeChaosStore(502, kSegments);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());
  {
    FaultInjector injector(17);
    injector.ScheduleFault(fault_sites::kSnapshotWrite, 1,
                           FaultKind::kCorrupt);
    ScopedFaultInjection scoped(&injector);
    // The corruption is silent at write time -- exactly the failure mode
    // the read-side checksums exist for.
    ASSERT_TRUE(SnapshotWriter::Write(v2, dir).ok());
  }
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.manifest_version, 2u);
  EXPECT_EQ(report.lost_segments, (std::vector<uint16_t>{1}));
  EXPECT_FALSE(report.quarantined_files.empty());
  ASSERT_FALSE(report.errors.empty());
  ExpectRecoveredConsistent(recovered.value(), report, v2,
                            "bitflipped block");
}

// ---------------------------------------------------------------------------
// Delta commits (SnapshotWriter::WriteDelta): the same property for a
// version that extends the chains of the one before it -- a killed delta
// or compaction commit recovers the previous version, never a chain that
// mixes the two.
// ---------------------------------------------------------------------------

// A later version of `base`: every blob is replaced with probability
// `replace_p` (by fewer or more bytes, so some segments cross the 2x rule
// and some do not), segments may gain a blob, and segments at or past
// base's count are new.
BsiStore EvolveChaosStore(const BsiStore& base, uint64_t seed,
                          int num_segments, double replace_p) {
  Rng rng(seed);
  BsiStore out;
  auto random_bytes = [&rng] {
    const uint64_t len = rng.NextBernoulli(0.5) ? 1 + rng.NextBounded(8)
                                                : 1 + rng.NextBounded(900);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xff);
    return bytes;
  };
  std::map<SnapBlobKey, std::string> blobs = SnapContentsOf(base);
  for (auto& [key, bytes] : blobs) {
    if (rng.NextBernoulli(replace_p)) bytes = random_bytes();
  }
  for (int seg = 0; seg < num_segments; ++seg) {
    if (rng.NextBernoulli(0.3)) {
      blobs[{static_cast<uint16_t>(seg), 1, 90, 7}] = random_bytes();
    }
  }
  std::set<uint16_t> filled;
  for (const auto& [key, bytes] : blobs) {
    if (std::get<0>(key) >= num_segments) continue;
    out.Put(BsiStoreKey{std::get<0>(key),
                        static_cast<BsiKind>(std::get<1>(key)),
                        std::get<2>(key), std::get<3>(key)},
            bytes);
    filled.insert(std::get<0>(key));
  }
  for (int seg = 0; seg < num_segments; ++seg) {
    if (filled.count(static_cast<uint16_t>(seg)) > 0) continue;
    BsiStoreKey key;  // a new segment: at least one blob
    key.segment = static_cast<uint16_t>(seg);
    key.id = 91;
    out.Put(key, random_bytes());
  }
  return out;
}

// `after` as a delta on top of the committed version `base_version` of
// `before`: the blobs that differ go to `changed`, the sizes and the
// whole-segment loader come from `after`.
SnapshotDelta DeltaBetween(const BsiStore& before, const BsiStore& after,
                           uint64_t base_version, BsiStore* changed) {
  const std::map<SnapBlobKey, std::string> old_blobs = SnapContentsOf(before);
  SnapshotDelta delta;
  delta.base_version = base_version;
  delta.changed = changed;
  after.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
    SnapshotSegmentSize& size = delta.live[key.segment];
    ++size.blobs;
    size.payload_bytes += bytes.size();
    const auto it = old_blobs.find(
        {key.segment, static_cast<uint8_t>(key.kind), key.id, key.date});
    if (it == old_blobs.end() || it->second != bytes) changed->Put(key, bytes);
  });
  delta.load_segment = [&after](uint16_t segment, BsiStore* out) {
    after.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
      if (key.segment == segment) out->Put(key, bytes);
    });
  };
  return delta;
}

// One seeded iteration: v1 committed clean, v2 attempted as a delta under a
// generated fault schedule, recovery checked against whichever version the
// manifest selected.
void RunDeltaChaosIteration(uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  const int v1_segments = 1 + static_cast<int>(rng.NextBounded(3));
  const BsiStore v1 = MakeChaosStore(rng.Next(), v1_segments);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());
  const int v2_segments = v1_segments + (rng.NextBernoulli(0.3) ? 1 : 0);
  const BsiStore v2 =
      EvolveChaosStore(v1, rng.Next(), v2_segments, /*replace_p=*/0.5);
  BsiStore changed;
  const SnapshotDelta delta = DeltaBetween(v1, v2, 1, &changed);
  const propgen::FaultSchedule schedule = propgen::GenSnapshotFaultSchedule(
      rng, static_cast<uint64_t>(v2_segments) + 1);

  FaultInjector injector(schedule.injector_seed);
  schedule.ApplyTo(&injector);
  Result<SnapshotWriteStats> written(Status::Unavailable("not run"));
  Result<BsiStore> recovered(Status::Unavailable("not run"));
  RecoveryReport report;
  {
    ScopedFaultInjection scoped(&injector);
    written = SnapshotWriter::WriteDelta(delta, dir);
    recovered = BsiStore::Recover(dir, &report);
  }
  const std::string ctx = SnapCtx(seed, "delta chaos");
  ASSERT_TRUE(recovered.ok()) << ctx << ": "
                              << recovered.status().ToString();
  ASSERT_TRUE(report.manifest_version == 1 || report.manifest_version == 2)
      << ctx << " manifest version " << report.manifest_version;
  if (!written.ok()) {
    EXPECT_EQ(report.manifest_version, 1u)
        << ctx << " failed commit must not be visible";
  }
  ExpectRecoveredConsistent(recovered.value(), report,
                            report.manifest_version == 2 ? v2 : v1, ctx);
  if (ChaosLogEnabled()) {
    std::fprintf(
        stderr,
        "[deltachaos] seed=%llu write_ok=%d version=%llu lost=%d "
        "skipped=%u delta_files=%u compactions=%u injected=%llu\n",
        static_cast<unsigned long long>(seed), written.ok() ? 1 : 0,
        static_cast<unsigned long long>(report.manifest_version),
        static_cast<int>(report.lost_segments.size()),
        report.manifests_skipped,
        written.ok() ? written.value().delta_files : 0u,
        written.ok() ? written.value().compactions : 0u,
        static_cast<unsigned long long>(injector.stats().any()));
  }
}

TEST(SnapshotChaosTest, DeltaCommitSurvivesSeededKillSchedules) {
  const std::string dir = SnapshotChaosDir("delta_seeded");
  for (uint64_t seed : SnapshotSeedSchedule(0xDE17A5EEDull)) {
    const Result<std::vector<std::string>> listing = fileio::ListDir(dir);
    ASSERT_TRUE(listing.ok());
    for (const std::string& entry : listing.value()) {
      ASSERT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
    }
    RunDeltaChaosIteration(seed, dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Kill at every write and rename of a delta commit of `v2` on top of `v1`
// (`ops` files in all, the manifest last): each kill recovers v1 exactly,
// and a clean retry commits v2 with `compactions` segments rewritten whole.
// `name` also names the scratch directory: ctest runs each test as its own
// process, concurrently.
void KillSweepDeltaCommit(const BsiStore& v1, const BsiStore& v2,
                          uint64_t ops, uint32_t compactions,
                          const std::string& name) {
  const char* sites[] = {fault_sites::kSnapshotWrite,
                         fault_sites::kSnapshotRename};
  for (const char* site : sites) {
    for (uint64_t k = 0; k < ops; ++k) {
      const std::string ctx = name + ": kill at " + site + " op " +
                              std::to_string(k);
      const std::string dir = SnapshotChaosDir(name);
      ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok()) << ctx;
      BsiStore changed;
      const SnapshotDelta delta = DeltaBetween(v1, v2, 1, &changed);
      {
        FaultInjector injector(7);
        injector.ScheduleFault(site, k, FaultKind::kCrash);
        ScopedFaultInjection scoped(&injector);
        EXPECT_FALSE(SnapshotWriter::WriteDelta(delta, dir).ok()) << ctx;
        EXPECT_EQ(injector.stats().any(), 1u) << ctx << " kill never fired";
      }
      RecoveryReport report;
      Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
      ASSERT_TRUE(recovered.ok()) << ctx;
      EXPECT_EQ(report.manifest_version, 1u) << ctx;
      EXPECT_TRUE(report.fully_recovered()) << ctx;
      ExpectRecoveredConsistent(recovered.value(), report, v1, ctx);

      const Result<SnapshotWriteStats> retry =
          SnapshotWriter::WriteDelta(delta, dir);
      ASSERT_TRUE(retry.ok()) << ctx << ": " << retry.status().ToString();
      EXPECT_EQ(retry.value().segment_files + 1, ops) << ctx;
      EXPECT_EQ(retry.value().compactions, compactions) << ctx;
      EXPECT_EQ(retry.value().delta_files + compactions,
                retry.value().segment_files)
          << ctx;
      report = RecoveryReport();
      recovered = BsiStore::Recover(dir, &report);
      ASSERT_TRUE(recovered.ok()) << ctx;
      EXPECT_EQ(report.manifest_version, 2u) << ctx;
      EXPECT_TRUE(report.fully_recovered()) << ctx;
      ExpectRecoveredConsistent(recovered.value(), report, v2,
                                ctx + " after retry");
      const Result<std::vector<std::string>> listing = fileio::ListDir(dir);
      ASSERT_TRUE(listing.ok());
      for (const std::string& file : listing.value()) {
        EXPECT_EQ(file.find(".tmp"), std::string::npos)
            << ctx << " stale temp file " << file << " survived the commit";
      }
    }
  }
}

// Blobs of `store` with segment `segment`'s replaced by `make(key)`.
template <typename Fn>
BsiStore ReplaceSegmentBlobs(const BsiStore& store, uint16_t segment,
                             Fn make) {
  BsiStore out;
  store.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
    out.Put(key, key.segment == segment ? make(key) : bytes);
  });
  return out;
}

TEST(SnapshotChaosTest, KillSweepMidDeltaCommitNeverTearsASnapshot) {
  const BsiStore v1 = MakeChaosStore(601, 3);
  // Segments 0 and 2 grow (their superseded bytes stay under the live
  // bytes): two delta files plus the manifest; segment 1 keeps its chain.
  const BsiStore half = ReplaceSegmentBlobs(v1, 0, [](const BsiStoreKey& k) {
    return std::string(600, static_cast<char>('a' + k.id % 7));
  });
  const BsiStore v2 = ReplaceSegmentBlobs(half, 2, [](const BsiStoreKey& k) {
    return std::string(700, static_cast<char>('k' + k.id % 5));
  });
  KillSweepDeltaCommit(v1, v2, /*ops=*/3, /*compactions=*/0,
                       "delta_commit");
}

TEST(SnapshotChaosTest, KillSweepMidCompactionCommitNeverTearsASnapshot) {
  const BsiStore v1 = ReplaceSegmentBlobs(
      MakeChaosStore(701, 3), 1,
      [](const BsiStoreKey& k) { return std::string(400, 'c' + k.id % 3); });
  // Segment 1's blobs shrink to one byte each: its superseded v1 bytes
  // exceed the live bytes, so the commit rewrites it as a one-file chain.
  const BsiStore v2 = ReplaceSegmentBlobs(v1, 1, [](const BsiStoreKey& k) {
    return std::string(1, static_cast<char>('z' - k.id % 3));
  });
  KillSweepDeltaCommit(v1, v2, /*ops=*/2, /*compactions=*/1,
                       "compaction_commit");
}

// ---------------------------------------------------------------------------
// WAL kill-recovery chaos (DESIGN.md §8.4). The property under test: a
// writer killed at ANY append, fsync barrier or segment roll leaves a log
// from which IngestStore::Open recovers an exact prefix of the acked batch
// stream -- never a torn record, never a lost acked record, never a
// phantom -- and resuming ingestion from last_sequence() converges to an
// answer bit-identical to the scalar reference engine's full rebuild.
// ---------------------------------------------------------------------------

std::string WalCtx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_CHAOS_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='WalChaosTest.*')";
}

std::vector<uint64_t> WalChaosCorpusSeeds() {
  std::vector<uint64_t> seeds;
#ifdef EXPBSI_CORPUS_DIR
  std::ifstream in(std::string(EXPBSI_CORPUS_DIR) + "/wal_chaos_seeds.txt");
  EXPECT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                         << "/wal_chaos_seeds.txt";
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    uint64_t seed;
    if (ls >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 4u) << "WAL chaos corpus unexpectedly small";
#endif
  return seeds;
}

std::vector<uint64_t> WalChaosSeedSchedule(uint64_t base) {
  if (const char* env = std::getenv("EXPBSI_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  std::vector<uint64_t> seeds = WalChaosCorpusSeeds();
  uint64_t x = base;
  for (int i = 0, n = ExploreIters(); i < n; ++i) {
    x = Splitmix(x);
    seeds.push_back(x);
  }
  return seeds;
}

constexpr int kWalChaosSegments = 2;
constexpr int kWalChaosBuckets = 5;
constexpr size_t kWalChaosBatch = 32;

// One fixed dataset for the whole WAL chaos suite: the faults are the
// random surface here, not the data. Built (with its scalar-reference
// oracle and the canonical event stream) once.
struct WalChaosData {
  Dataset dataset;
  RefExperimentData ref;
  std::vector<WalEvent> events;
  std::vector<std::vector<WalEvent>> batches;  // canonical 32-event records
  Date lo = 0;
  Date hi = 0;
};

const WalChaosData& WalData() {
  static const WalChaosData* data = [] {
    auto* d = new WalChaosData();
    DatasetConfig config;
    config.num_users = 90;
    config.num_segments = kWalChaosSegments;
    config.num_buckets = kWalChaosBuckets;
    config.bucket_equals_segment = false;
    config.start_date = 20;
    config.num_days = 3;
    config.seed = 93;
    ExperimentConfig experiment;
    experiment.strategy_ids = {951, 952};
    experiment.arm_effects = {1.0, 1.2};
    experiment.traffic_fraction = 0.9;
    MetricConfig metric_a;
    metric_a.metric_id = 651;
    metric_a.value_range = 40;
    MetricConfig metric_b;
    metric_b.metric_id = 652;
    metric_b.value_range = 6;
    metric_b.daily_participation = 0.5;
    DimensionConfig dim;
    dim.dimension_id = 21;
    dim.cardinality = 3;
    d->dataset =
        GenerateDataset(config, {experiment}, {metric_a, metric_b}, {dim});
    d->ref = BuildRefExperimentData(d->dataset);
    d->events = MakeWalEventStream(d->dataset);
    d->batches = BatchWalEvents(d->events, kWalChaosBatch);
    d->lo = config.start_date;
    d->hi = config.start_date + config.num_days - 1;
    return d;
  }();
  return *data;
}

IngestOptions WalChaosOptions(uint64_t segment_bytes) {
  IngestOptions options;
  options.num_segments = kWalChaosSegments;
  options.num_buckets = kWalChaosBuckets;
  options.bucket_equals_segment = false;
  options.wal.segment_bytes = segment_bytes;
  return options;
}

// The answer of record: every strategy x metric scorecard query against the
// recovered store must be bit-identical to the scalar reference, over the
// full date range and a subrange (the subrange exercises the per-day
// exposure filters the delta merges maintain).
void ExpectWalMatchesReference(const IngestStore& store,
                               const std::string& ctx) {
  const WalChaosData& d = WalData();
  for (uint64_t strategy : {951ull, 952ull}) {
    for (uint64_t metric : {651ull, 652ull}) {
      for (Date lo : {d.lo, static_cast<Date>(d.lo + 1)}) {
        const BucketValues got =
            ComputeStrategyMetricBsi(store.data(), strategy, metric, lo, d.hi);
        const BucketValues want =
            RefComputeStrategyMetric(d.ref, strategy, metric, lo, d.hi);
        EXPECT_EQ(got.sums, want.sums)
            << ctx << " strategy=" << strategy << " metric=" << metric
            << " lo=" << lo << " sums diverged from the scalar oracle";
        EXPECT_EQ(got.counts, want.counts)
            << ctx << " strategy=" << strategy << " metric=" << metric
            << " lo=" << lo << " counts diverged from the scalar oracle";
      }
    }
  }
}

// Reopen with retry: recovery itself passes through the wal.roll site (the
// fresh active segment's header), so a scheduled roll fault can fail the
// first attempt. A later attempt must succeed -- each attempt consumes the
// fault without corrupting anything.
std::unique_ptr<IngestStore> ReopenWalStore(const std::string& wal_dir,
                                            const std::string& snap_dir,
                                            const IngestOptions& options,
                                            IngestRecoveryReport* report,
                                            const std::string& ctx) {
  for (int attempt = 0; attempt < 10; ++attempt) {
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options, report);
    if (store.ok()) return std::move(store.value());
  }
  ADD_FAILURE() << ctx << " store did not reopen within 10 attempts";
  return nullptr;
}

TEST(WalChaosTest, WalChaosCorpusIsPresent) {
  const std::vector<uint64_t> seeds = WalChaosCorpusSeeds();
#ifdef EXPBSI_CORPUS_DIR
  EXPECT_GE(seeds.size(), 4u);
#endif
}

// The kill-at-every-record sweep: for each WAL fault site, crash the writer
// at op 0, 1, 2, ... and prove recovery lands on an exact prefix every
// time. 1 KB segments against ~1.2 KB records force a roll before (almost)
// every append, so the roll sweep visits every record boundary too. A
// checkpoint halfway through makes half the sweep points recover through
// snapshot + WAL tail rather than a cold replay.
TEST(WalChaosTest, KillSweepAtEveryRecordRecoversExactPrefix) {
  const WalChaosData& d = WalData();
  const size_t num_batches = d.batches.size();
  ASSERT_GE(num_batches, 8u) << "dataset too small to sweep";
  const IngestOptions options = WalChaosOptions(/*segment_bytes=*/1024);

  struct SweepSite {
    const char* site;
    const char* name;
  };
  const SweepSite sites[] = {{fault_sites::kWalAppend, "append"},
                             {fault_sites::kWalFsync, "fsync"},
                             {fault_sites::kWalRoll, "roll"}};
  for (const SweepSite& site : sites) {
    // wal.roll op 0 is consumed by Open() itself (the first segment's
    // header); killing it fails Open before any batch exists, which the
    // random sweep's reopen-retry path covers. Start the sweep at the
    // first op that can interrupt a record.
    const size_t first_op = (site.site == fault_sites::kWalRoll) ? 1 : 0;
    for (size_t k = first_op; k < num_batches; ++k) {
      const std::string ctx =
          std::string("kill site=") + site.name + " op=" + std::to_string(k);
      const std::string wal_dir = SnapshotChaosDir("walsweep_wal");
      const std::string snap_dir = SnapshotChaosDir("walsweep_snap");

      size_t acked = 0;
      bool crashed = false;
      {
        FaultInjector injector(7);
        injector.ScheduleFault(site.site, k, FaultKind::kCrash);
        ScopedFaultInjection scoped(&injector);
        Result<std::unique_ptr<IngestStore>> store =
            IngestStore::Open(wal_dir, snap_dir, options);
        ASSERT_TRUE(store.ok()) << ctx;
        for (size_t i = 0; i < num_batches; ++i) {
          if (i == num_batches / 2) {
            ASSERT_TRUE(store.value()->Checkpoint().ok()) << ctx;
          }
          const Result<uint64_t> seq = store.value()->Ingest(d.batches[i]);
          if (!seq.ok()) {
            crashed = true;
            break;
          }
          ASSERT_EQ(seq.value(), i + 1) << ctx;
          ++acked;
        }
      }
      ASSERT_TRUE(crashed) << ctx << " scheduled kill never fired";
      // Every site is evaluated once per record, so op k dies during
      // batch k: exactly k batches were acked before the crash.
      ASSERT_EQ(acked, k) << ctx;

      // Recover (no injector: the kill is in the past) and check the
      // no-silent-loss window. The batch in flight may or may not have
      // become durable:
      //  * append-kill fsyncs a torn prefix of the record -- usually lost,
      //    but the torn length can cover the whole record, which then
      //    replays (CRC-complete records are indistinguishable from acked
      //    ones, and replaying them is the correct choice);
      //  * fsync-kill fires AFTER the flush: the record must ALWAYS
      //    survive -- losing it would be losing flushed bytes;
      //  * roll-kill dies writing the new segment's header, before any of
      //    the record's bytes: the record must NEVER appear.
      IngestRecoveryReport report;
      Result<std::unique_ptr<IngestStore>> recovered =
          IngestStore::Open(wal_dir, snap_dir, options, &report);
      ASSERT_TRUE(recovered.ok()) << ctx;
      const uint64_t resumed = recovered.value()->last_sequence();
      ASSERT_GE(resumed, acked) << ctx << " lost an acked record";
      ASSERT_LE(resumed, acked + 1) << ctx << " replayed a phantom record";
      if (site.site == fault_sites::kWalFsync) {
        ASSERT_EQ(resumed, acked + 1) << ctx << " flushed record lost";
      }
      if (site.site == fault_sites::kWalRoll) {
        ASSERT_EQ(resumed, acked)
            << ctx << " record appeared before its segment header";
      }

      // Replay determinism: recovering the same log again (after the
      // first recovery's torn-tail repair) lands on the same sequence.
      recovered.value().reset();
      recovered = IngestStore::Open(wal_dir, snap_dir, options, &report);
      ASSERT_TRUE(recovered.ok()) << ctx;
      ASSERT_EQ(recovered.value()->last_sequence(), resumed)
          << ctx << " recovery is not deterministic";

      // Resume exactly where the log says; the final answer must be
      // bit-identical to the oracle -- nothing lost, nothing doubled.
      for (size_t i = resumed; i < num_batches; ++i) {
        const Result<uint64_t> seq = recovered.value()->Ingest(d.batches[i]);
        ASSERT_TRUE(seq.ok()) << ctx;
        ASSERT_EQ(seq.value(), i + 1) << ctx;
      }
      ExpectWalMatchesReference(*recovered.value(), ctx);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
}

// One seeded iteration of the random schedule sweep: a generated fault
// schedule (background append rejections plus crash/fail one-shots across
// all three WAL sites), random batching, random segment sizes and random
// checkpoints. Clean rejections retry the same batch (the writer is alive
// and the sequence was not consumed); crashes recover and resume from
// whatever sequence the log proves durable.
void RunWalChaosIteration(uint64_t seed, const std::string& wal_dir,
                          const std::string& snap_dir) {
  const WalChaosData& d = WalData();
  Rng rng(seed);
  const size_t batch_sizes[] = {8, 32, 128};
  const uint64_t segment_sizes[] = {512, 2048, 16384};
  const double checkpoint_levels[] = {0.0, 0.1, 0.25};
  const std::vector<std::vector<WalEvent>> batches =
      BatchWalEvents(d.events, batch_sizes[rng.NextBounded(3)]);
  const IngestOptions options =
      WalChaosOptions(segment_sizes[rng.NextBounded(3)]);
  const double checkpoint_p = checkpoint_levels[rng.NextBounded(3)];
  const propgen::FaultSchedule schedule =
      propgen::GenWalFaultSchedule(rng, batches.size());
  const std::string ctx = WalCtx(seed, "wal schedule");

  int crashes = 0;
  int rejects = 0;
  int checkpoints = 0;
  FaultInjector injector(schedule.injector_seed);
  schedule.ApplyTo(&injector);
  {
    ScopedFaultInjection scoped(&injector);
    std::unique_ptr<IngestStore> store =
        ReopenWalStore(wal_dir, snap_dir, options, nullptr, ctx);
    ASSERT_TRUE(store != nullptr) << ctx;
    ASSERT_EQ(store->last_sequence(), 0u) << ctx << " dirty scratch dir";
    size_t next = 0;  // index of the next batch to ingest == acked count
    while (next < batches.size()) {
      const Result<uint64_t> seq = store->Ingest(batches[next]);
      if (seq.ok()) {
        ASSERT_EQ(seq.value(), next + 1) << ctx;
        ++next;
        if (rng.NextBernoulli(checkpoint_p)) {
          ASSERT_TRUE(store->Checkpoint().ok()) << ctx;
          ++checkpoints;
        }
        continue;
      }
      if (!store->wal().dead()) {
        // Clean rejection: the append was refused before any byte was
        // written, the sequence was not consumed and the live data was
        // not touched. Retrying the SAME batch is the correct move.
        ++rejects;
        ASSERT_LT(rejects, 10000) << ctx << " reject storm never cleared";
        continue;
      }
      // Crash: the writer is dead. Recover and resume from whatever the
      // log proves durable -- at least every acked batch, at most one
      // more (the record that was in flight when the crash hit).
      ++crashes;
      store.reset();
      IngestRecoveryReport report;
      store = ReopenWalStore(wal_dir, snap_dir, options, &report, ctx);
      ASSERT_TRUE(store != nullptr) << ctx;
      const uint64_t resumed = store->last_sequence();
      ASSERT_GE(resumed, next) << ctx << " lost an acked record";
      ASSERT_LE(resumed, next + 1) << ctx << " replayed a phantom record";
      next = static_cast<size_t>(resumed);
    }
  }
  // Fault-free final recovery: the complete stream must have landed, and
  // the scorecards must be bit-identical to the scalar oracle.
  IngestRecoveryReport report;
  Result<std::unique_ptr<IngestStore>> final_store =
      IngestStore::Open(wal_dir, snap_dir, options, &report);
  ASSERT_TRUE(final_store.ok()) << ctx;
  ASSERT_EQ(final_store.value()->last_sequence(), batches.size()) << ctx;
  ExpectWalMatchesReference(*final_store.value(), ctx);

  if (ChaosLogEnabled()) {
    std::fprintf(stderr,
                 "[walchaos] seed=%llu batches=%zu crashes=%d rejects=%d "
                 "checkpoints=%d injected=%llu\n",
                 static_cast<unsigned long long>(seed), batches.size(),
                 crashes, rejects, checkpoints,
                 static_cast<unsigned long long>(injector.stats().any()));
  }
}

TEST(WalChaosTest, SeededScheduleSweepConvergesToOracle) {
  for (uint64_t seed : WalChaosSeedSchedule(0x57A1C4A05ull)) {
    const std::string wal_dir = SnapshotChaosDir("walchaos_wal");
    const std::string snap_dir = SnapshotChaosDir("walchaos_snap");
    RunWalChaosIteration(seed, wal_dir, snap_dir);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

}  // namespace
}  // namespace expbsi
