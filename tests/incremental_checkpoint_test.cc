// Incremental ingest checkpoints (DESIGN.md §6, §8.4): IngestStore::
// Checkpoint writes only the blobs merged since the previous checkpoint, as
// delta files on the snapshot's segment chains. The property under test:
// after EVERY checkpoint, recovering the snapshot directory yields exactly
// the blobs -- keys, bytes and fingerprints -- of a full
// BuildSnapshotStore() of the live data, and the directory stays within
// the 2x space rule.
//
// Reproducing a failure: every assertion message carries the iteration
// seed. Re-run just that seed with
//
//   EXPBSI_FUZZ_SEED=<seed> ./build/tests/expbsi_tests
//       --gtest_filter='IncrementalCheckpointTest.*'   (one command)
//
// EXPBSI_FUZZ_ITERS overrides the number of seeds the sweep explores.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/rng.h"
#include "expdata/segmenter.h"
#include "obs/metrics.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "wal/wal.h"
#include "tests/property_gen.h"

namespace expbsi {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "expbsi_incr_" + name;
  EXPECT_TRUE(fileio::CreateDirIfMissing(dir).ok());
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  EXPECT_TRUE(entries.ok());
  for (const std::string& entry : entries.value()) {
    EXPECT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
  }
  return dir;
}

using BlobKey = std::tuple<uint16_t, uint8_t, uint64_t, uint32_t>;
using BlobMap = std::map<BlobKey, std::pair<std::string, uint64_t>>;

BlobMap ContentsOf(const BsiStore& store) {
  BlobMap out;
  store.ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                         uint64_t fingerprint) {
    out[{key.segment, static_cast<uint8_t>(key.kind), key.id, key.date}] = {
        bytes, fingerprint};
  });
  return out;
}

// Recovery of the store's snapshot directory against the full serialized
// live data, blob for blob.
void ExpectRecoversFullSnapshot(const IngestStore& store,
                                const std::string& ctx) {
  RecoveryReport report;
  const Result<BsiStore> recovered =
      SnapshotReader::Recover(store.snapshot_dir(), &report);
  ASSERT_TRUE(recovered.ok()) << ctx << ": "
                              << recovered.status().ToString();
  ASSERT_TRUE(report.fully_recovered()) << ctx;
  const BlobMap got = ContentsOf(recovered.value());
  const BlobMap want = ContentsOf(store.BuildSnapshotStore());
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (const auto& [key, blob] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << ctx << " blob missing: segment " << std::get<0>(key) << " kind "
        << int{std::get<1>(key)} << " id " << std::get<2>(key) << " date "
        << std::get<3>(key);
    EXPECT_EQ(it->second.first, blob.first) << ctx << " blob bytes diverged";
    EXPECT_EQ(it->second.second, blob.second)
        << ctx << " fingerprint diverged";
  }
}

IngestOptions OptionsFor(const Dataset& dataset) {
  IngestOptions options;
  options.num_segments = dataset.config.num_segments;
  options.num_buckets = dataset.config.num_buckets;
  options.bucket_equals_segment = dataset.config.bucket_equals_segment;
  return options;
}

std::string Ctx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_FUZZ_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='IncrementalCheckpointTest.*')";
}

struct SweepTotals {
  uint64_t checkpoints = 0;
  uint64_t delta_files = 0;
  uint64_t compactions = 0;
};

void Accumulate(const IngestCheckpointStats& stats, SweepTotals* totals) {
  ++totals->checkpoints;
  totals->delta_files += stats.snapshot.delta_files;
  totals->compactions += stats.snapshot.compactions;
}

// One seeded run in three stretches: a cold start ingesting with random
// checkpoints; a stretch with no checkpoint, which the next Open replays
// as its WAL tail; then a reopen, a checkpoint right after it, and the
// rest ingested with random checkpoints again.
void RunSweepIteration(uint64_t seed, SweepTotals* totals) {
  Rng rng(seed);
  const propgen::FuzzDataset fuzz = propgen::GenDataset(rng);
  const Dataset& dataset = fuzz.dataset;
  const size_t batch_sizes[] = {7, 32, 128};
  const size_t batch_events = batch_sizes[rng.NextBounded(3)];
  const double checkpoint_levels[] = {0.1, 0.3, 0.6};
  const double checkpoint_p = checkpoint_levels[rng.NextBounded(3)];
  const std::vector<std::vector<WalEvent>> batches =
      BatchWalEvents(MakeWalEventStream(dataset), batch_events);
  const std::string ctx =
      Ctx(seed, "batch_events=" + std::to_string(batch_events) +
                    " checkpoint_p=" + std::to_string(checkpoint_p));
  const std::string wal_dir = FreshDir("sweep_wal");
  const std::string snap_dir = FreshDir("sweep_snap");
  IngestOptions options = OptionsFor(dataset);
  // Records need no fsync of their own: every reopen here is clean.
  options.wal.sync_each_append = false;

  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_TRUE(store.ok()) << ctx << ": " << store.status().ToString();
  const size_t tail_begin = batches.size() / 3;
  const size_t tail_end = 2 * batches.size() / 3;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i == tail_end) {
      store.value().reset();
      store = IngestStore::Open(wal_dir, snap_dir, options);
      ASSERT_TRUE(store.ok()) << ctx << ": " << store.status().ToString();
      ASSERT_EQ(store.value()->last_sequence(), i) << ctx;
      const Result<IngestCheckpointStats> checkpoint =
          store.value()->Checkpoint();
      ASSERT_TRUE(checkpoint.ok()) << ctx;
      Accumulate(checkpoint.value(), totals);
      ExpectRecoversFullSnapshot(*store.value(),
                                 ctx + " first checkpoint after Open");
    }
    ASSERT_TRUE(store.value()->Ingest(batches[i]).ok()) << ctx;
    const bool in_tail = i >= tail_begin && i < tail_end;
    if (!in_tail && rng.NextBernoulli(checkpoint_p)) {
      const Result<IngestCheckpointStats> checkpoint =
          store.value()->Checkpoint();
      ASSERT_TRUE(checkpoint.ok()) << ctx;
      Accumulate(checkpoint.value(), totals);
      ExpectRecoversFullSnapshot(*store.value(),
                                 ctx + " after batch " + std::to_string(i));
    }
  }
  const Result<IngestCheckpointStats> last = store.value()->Checkpoint();
  ASSERT_TRUE(last.ok()) << ctx;
  Accumulate(last.value(), totals);
  ExpectRecoversFullSnapshot(*store.value(), ctx + " final checkpoint");
}

std::vector<uint64_t> SweepSeeds() {
  if (const char* env = std::getenv("EXPBSI_FUZZ_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  int n = 8;
  if (const char* env = std::getenv("EXPBSI_FUZZ_ITERS")) n = std::atoi(env);
  std::vector<uint64_t> seeds;
  uint64_t x = 0x1DC4EC9ull;
  for (int i = 0; i < n; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

TEST(IncrementalCheckpointTest, EveryCheckpointRecoversTheFullSnapshot) {
  SweepTotals totals;
  const std::vector<uint64_t> seeds = SweepSeeds();
  for (uint64_t seed : seeds) {
    RunSweepIteration(seed, &totals);
    if (::testing::Test::HasFailure()) return;
  }
  if (seeds.size() > 1) {
    // The sweep crosses the delta path and the compaction boundary.
    EXPECT_GT(totals.delta_files, 0u);
    EXPECT_GT(totals.compactions, 0u);
  }
}

// Bytes of `store` as one-file chains: what the 2x rule measures against.
uint64_t OneFileChainBytes(const BsiStore& store) {
  std::map<uint16_t, uint64_t> by_segment;
  store.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
    uint64_t& total = by_segment[key.segment];
    if (total == 0) total = kSegmentFileHeaderBytes;
    total += kSnapshotRecordFramingBytes + bytes.size();
  });
  uint64_t total = 0;
  for (const auto& [segment, bytes] : by_segment) total += bytes;
  return total;
}

SnapshotManifest NewestManifest(const std::string& dir) {
  const uint64_t version = SnapshotReader::ListManifestVersions(dir).back();
  const Result<std::string> bytes = fileio::ReadFileToString(
      dir + "/" + SnapshotManifestName(version), kMaxManifestBytes);
  EXPECT_TRUE(bytes.ok());
  Result<SnapshotManifest> manifest =
      DecodeSnapshotManifest(bytes.value(), version);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return std::move(manifest).value();
}

uint64_t SegmentFileBytesOnDisk(const std::string& dir) {
  uint64_t total = 0;
  const Result<std::vector<std::string>> names = fileio::ListDir(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& name : names.value()) {
    if (name.rfind("seg-", 0) != 0) continue;
    const Result<uint64_t> size = fileio::FileSizeOf(dir + "/" + name);
    EXPECT_TRUE(size.ok()) << name;
    total += size.value();
  }
  return total;
}

#if !defined(EXPBSI_NO_METRICS)
uint64_t CounterValue(const char* name) {
  return obs::GetCounter(name).Value();
}
#endif

// A checkpoint after every small batch rewrites the same encoder, expose
// and metric blobs again and again, so superseded bytes pile up and the
// 2x rule has to compact. After every checkpoint the current manifest's
// chains hold at most twice the live bytes; the directory holds nothing
// else, except right after a compaction, when GC keeps the previous
// version's chain (the fallback target) too.
TEST(IncrementalCheckpointTest, SnapshotStaysWithinTwiceTheLiveBytes) {
  Rng rng(0x2A11FEull);
  const propgen::FuzzDataset fuzz = propgen::GenDataset(rng);
  const std::vector<std::vector<WalEvent>> batches =
      BatchWalEvents(MakeWalEventStream(fuzz.dataset), 8);
  ASSERT_GT(batches.size(), 40u);
  const std::string wal_dir = FreshDir("space_wal");
  const std::string snap_dir = FreshDir("space_snap");
  IngestOptions options = OptionsFor(fuzz.dataset);
  options.wal.sync_each_append = false;  // the snapshot is under test
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
#if !defined(EXPBSI_NO_METRICS)
  const uint64_t delta_files0 = CounterValue("snapshot.delta_files_written");
  const uint64_t compactions0 = CounterValue("snapshot.segment_compactions");
#endif
  SweepTotals totals;
  uint64_t previous_live = 0;
  for (size_t i = 0; i < 40; ++i) {
    const std::string ctx = "after batch " + std::to_string(i);
    ASSERT_TRUE(store.value()->Ingest(batches[i]).ok()) << ctx;
    const Result<IngestCheckpointStats> checkpoint =
        store.value()->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << ctx;
    Accumulate(checkpoint.value(), &totals);
    const uint64_t live = OneFileChainBytes(store.value()->BuildSnapshotStore());
    uint64_t referenced = 0;
    for (const SnapshotChain& chain : NewestManifest(snap_dir).chains) {
      for (const SnapshotChainFile& file : chain.files) {
        referenced += file.file_size;
      }
    }
    EXPECT_LE(referenced, 2 * live) << ctx;
    const uint64_t on_disk = SegmentFileBytesOnDisk(snap_dir);
    EXPECT_GE(on_disk, referenced) << ctx;
    if (checkpoint.value().snapshot.compactions == 0) {
      EXPECT_LE(on_disk, 2 * live) << ctx;
    } else {
      EXPECT_LE(on_disk, 2 * live + 2 * previous_live) << ctx;
    }
    previous_live = live;
  }
  EXPECT_GT(totals.delta_files, 0u);
  EXPECT_GT(totals.compactions, 0u);
#if !defined(EXPBSI_NO_METRICS)
  EXPECT_EQ(CounterValue("snapshot.delta_files_written") - delta_files0,
            totals.delta_files);
  EXPECT_EQ(CounterValue("snapshot.segment_compactions") - compactions0,
            totals.compactions);
#endif
  ExpectRecoversFullSnapshot(*store.value(), "final");
}

// Dirty tracking: after a checkpoint, a batch whose units all live in one
// segment makes the next checkpoint write two delta files -- that segment
// and segment 0, whose meta blob carries the new WAL sequence -- and
// nothing for the other segments.
TEST(IncrementalCheckpointTest, CheckpointWritesOnlyTheSegmentsThatChanged) {
  IngestOptions options;
  options.num_segments = 3;
  const std::string wal_dir = FreshDir("dirty_wal");
  const std::string snap_dir = FreshDir("dirty_snap");
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<WalEvent> seed_batch;
  for (UnitId unit = 1; seed_batch.size() < 30; ++unit) {
    WalEvent event;
    event.kind = WalEventKind::kMetric;
    event.id = 7;
    event.analysis_unit_id = unit;
    event.date = 3;
    event.value = unit % 5 + 1;
    seed_batch.push_back(event);
  }
  ASSERT_TRUE(store.value()->Ingest(seed_batch).ok());
  const Result<IngestCheckpointStats> first = store.value()->Checkpoint();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().snapshot.delta_files, 0u);  // cold start: bases
  EXPECT_EQ(first.value().snapshot.segment_files,
            static_cast<uint32_t>(options.num_segments));

  const int target = options.num_segments - 1;
  std::vector<WalEvent> batch;
  for (UnitId unit = 1000; batch.size() < 10; ++unit) {
    if (SegmentOf(unit, options.num_segments) != target) continue;
    WalEvent event;
    event.kind = WalEventKind::kMetric;
    event.id = 8;
    event.analysis_unit_id = unit;
    event.date = 4;
    event.value = 2;
    batch.push_back(event);
  }
  ASSERT_TRUE(store.value()->Ingest(batch).ok());
  const Result<IngestCheckpointStats> second = store.value()->Checkpoint();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().snapshot.segment_files, 2u);
  EXPECT_EQ(second.value().snapshot.delta_files, 2u);
  const SnapshotManifest manifest = NewestManifest(snap_dir);
  ASSERT_EQ(manifest.chains.size(),
            static_cast<size_t>(options.num_segments));
  for (const SnapshotChain& chain : manifest.chains) {
    const bool changed = chain.segment == 0 || chain.segment == target;
    EXPECT_EQ(chain.files.size(), changed ? 2u : 1u)
        << "segment " << chain.segment;
  }
  ExpectRecoversFullSnapshot(*store.value(), "after the one-segment batch");

  // A checkpoint with nothing ingested rewrites only the meta blob.
  const Result<IngestCheckpointStats> idle = store.value()->Checkpoint();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle.value().snapshot.segment_files, 1u);
  ExpectRecoversFullSnapshot(*store.value(), "idle checkpoint");
}

}  // namespace
}  // namespace expbsi
