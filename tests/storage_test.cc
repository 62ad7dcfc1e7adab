#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/bsi_store.h"
#include "storage/column_store.h"
#include "storage/tiered_store.h"

namespace expbsi {
namespace {

TEST(NormalMetricTableTest, AppendAndRawBytes) {
  NormalMetricTable table;
  table.Append(3, MetricRow{10, 8371, 12345, 7});
  table.Append(3, MetricRow{10, 8371, 12346, 9});
  EXPECT_EQ(table.NumRows(), 2u);
  EXPECT_EQ(table.RawBytes(), 2u * 18);
  EXPECT_EQ(table.value()[0], 7u);
  EXPECT_EQ(table.unit_id()[1], 12346u);
}

TEST(NormalMetricTableTest, SortImprovesCompression) {
  Rng rng(1);
  NormalMetricTable table;
  for (int i = 0; i < 50000; ++i) {
    table.Append(static_cast<uint16_t>(rng.NextBounded(16)),
                 MetricRow{static_cast<Date>(rng.NextBounded(7)),
                           1000 + rng.NextBounded(3),
                           rng.NextBounded(1u << 20),
                           1 + rng.NextBounded(50)});
  }
  const size_t unsorted = table.CompressedBytes();
  table.SortForStorage();
  const size_t sorted = table.CompressedBytes();
  EXPECT_LT(sorted, unsorted);
  // Sort preserves row multiset: spot-check the ordering key.
  for (size_t i = 1; i < table.NumRows(); ++i) {
    EXPECT_LE(table.segment()[i - 1], table.segment()[i]);
  }
}

TEST(NormalExposeTableTest, AppendSortCompress) {
  Rng rng(2);
  NormalExposeTable table;
  for (int i = 0; i < 20000; ++i) {
    table.Append(static_cast<uint16_t>(rng.NextBounded(16)),
                 static_cast<uint16_t>(rng.NextBounded(1024)),
                 ExposeRow{8764293 + rng.NextBounded(3),
                           rng.NextBounded(1u << 20),
                           rng.NextBounded(1u << 20),
                           static_cast<Date>(rng.NextBounded(7))});
  }
  EXPECT_EQ(table.RawBytes(), 20000u * 16);
  const size_t unsorted = table.CompressedBytes();
  table.SortForStorage();
  EXPECT_LT(table.CompressedBytes(), unsorted);
}

TEST(BsiStoreTest, PutGetReplace) {
  BsiStore store;
  const BsiStoreKey key{3, BsiKind::kMetric, 8371, 20};
  EXPECT_FALSE(store.Contains(key));
  EXPECT_FALSE(store.Get(key).ok());
  store.Put(key, "hello");
  EXPECT_TRUE(store.Contains(key));
  EXPECT_EQ(*store.Get(key).value(), "hello");
  EXPECT_EQ(store.TotalBytes(), 5u);
  store.Put(key, "hi");
  EXPECT_EQ(*store.Get(key).value(), "hi");
  EXPECT_EQ(store.TotalBytes(), 2u);
  EXPECT_EQ(store.NumBlobs(), 1u);
}

TEST(BsiStoreTest, KeyComponentsDistinguish) {
  BsiStore store;
  store.Put({1, BsiKind::kMetric, 5, 10}, "a");
  store.Put({2, BsiKind::kMetric, 5, 10}, "b");
  store.Put({1, BsiKind::kExpose, 5, 10}, "c");
  store.Put({1, BsiKind::kMetric, 6, 10}, "d");
  store.Put({1, BsiKind::kMetric, 5, 11}, "e");
  EXPECT_EQ(store.NumBlobs(), 5u);
  EXPECT_EQ(*store.Get({1, BsiKind::kMetric, 5, 10}).value(), "a");
  EXPECT_EQ(*store.Get({1, BsiKind::kMetric, 5, 11}).value(), "e");
}

TEST(TieredStoreTest, HotHitAfterColdRead) {
  BsiStore cold;
  const BsiStoreKey key{0, BsiKind::kMetric, 1, 1};
  cold.Put(key, std::string(100, 'x'));
  TieredStore tier(&cold, 1 << 20);
  auto first = tier.Fetch(key);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(tier.stats().cold_reads, 1u);
  EXPECT_EQ(tier.stats().hot_hits, 0u);
  EXPECT_EQ(tier.stats().bytes_from_cold, 100u);
  auto second = tier.Fetch(key);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(tier.stats().cold_reads, 1u);
  EXPECT_EQ(tier.stats().hot_hits, 1u);
}

TEST(TieredStoreTest, LruEvictionUnderBudget) {
  BsiStore cold;
  for (uint64_t i = 0; i < 10; ++i) {
    cold.Put({0, BsiKind::kMetric, i, 0}, std::string(100, 'x'));
  }
  TieredStore tier(&cold, 350);  // room for ~3 blobs
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tier.Fetch({0, BsiKind::kMetric, i, 0}).ok());
  }
  EXPECT_GT(tier.stats().evictions, 0u);
  EXPECT_LE(tier.hot_bytes(), 350u);
  // Most recent key is hot; the oldest has been evicted.
  const auto before = tier.stats();
  ASSERT_TRUE(tier.Fetch({0, BsiKind::kMetric, 9, 0}).ok());
  EXPECT_EQ(tier.stats().hot_hits, before.hot_hits + 1);
  ASSERT_TRUE(tier.Fetch({0, BsiKind::kMetric, 0, 0}).ok());
  EXPECT_EQ(tier.stats().cold_reads, before.cold_reads + 1);
}

TEST(TieredStoreTest, WarmDoesNotCountAsQueryTraffic) {
  BsiStore cold;
  const BsiStoreKey key{0, BsiKind::kMetric, 1, 1};
  cold.Put(key, "payload");
  TieredStore tier(&cold, 1 << 20);
  ASSERT_TRUE(tier.Warm(key).ok());
  EXPECT_EQ(tier.stats().cold_reads, 0u);
  auto fetched = tier.Fetch(key);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(tier.stats().hot_hits, 1u);
  EXPECT_EQ(tier.stats().bytes_from_cold, 0u);
}

TEST(TieredStoreTest, MissingKeyPropagatesNotFound) {
  BsiStore cold;
  TieredStore tier(&cold, 100);
  auto result = tier.Fetch({9, BsiKind::kExpose, 42, 0});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// Regression: a blob larger than the whole hot budget used to be inserted
// and then evict every other entry for nothing. It must be served straight
// from cold, leaving the cache untouched.
TEST(TieredStoreTest, OversizeBlobBypassesHotTier) {
  BsiStore cold;
  for (uint64_t i = 0; i < 3; ++i) {
    cold.Put({0, BsiKind::kMetric, i, 0}, std::string(100, 'x'));
  }
  const BsiStoreKey big{0, BsiKind::kMetric, 99, 0};
  cold.Put(big, std::string(5000, 'y'));
  TieredStore tier(&cold, 350);  // fits the three small blobs, never `big`
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(tier.Fetch({0, BsiKind::kMetric, i, 0}).ok());
  }
  auto blob = tier.Fetch(big);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value()->size(), 5000u);
  EXPECT_EQ(tier.stats().oversize_bypasses, 1u);
  EXPECT_EQ(tier.stats().evictions, 0u);
  EXPECT_LE(tier.hot_bytes(), 350u);
  // The small blobs are still hot...
  const auto before = tier.stats();
  ASSERT_TRUE(tier.Fetch({0, BsiKind::kMetric, 0, 0}).ok());
  EXPECT_EQ(tier.stats().hot_hits, before.hot_hits + 1);
  // ...and the oversize blob goes back to cold every time.
  ASSERT_TRUE(tier.Fetch(big).ok());
  EXPECT_EQ(tier.stats().cold_reads, before.cold_reads + 1);
  EXPECT_EQ(tier.stats().oversize_bypasses, 2u);
}

TEST(BsiStoreTest, FingerprintTracksBlobContent) {
  BsiStore store;
  const BsiStoreKey key{0, BsiKind::kMetric, 1, 1};
  store.Put(key, "hello world");
  const auto fp = store.Fingerprint(key);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp.value(), BlobFingerprint("hello world"));
  store.Put(key, "hello world!");  // replaced content, new fingerprint
  ASSERT_TRUE(store.Fingerprint(key).ok());
  EXPECT_NE(store.Fingerprint(key).value(), fp.value());
  EXPECT_FALSE(store.Fingerprint({9, BsiKind::kExpose, 7, 0}).ok());
  // Single-bit sensitivity, the property corruption detection rests on.
  EXPECT_NE(BlobFingerprint("hello world"), BlobFingerprint("hello worle"));
  EXPECT_NE(BlobFingerprint(""), BlobFingerprint(std::string(1, '\0')));
}

TEST(BsiStoreTest, ForEachVisitsAll) {
  BsiStore store;
  store.Put({1, BsiKind::kMetric, 1, 1}, "a");
  store.Put({2, BsiKind::kMetric, 2, 2}, "bb");
  size_t visited = 0, bytes = 0;
  store.ForEach([&](const BsiStoreKey& key, const std::string& blob) {
    (void)key;
    ++visited;
    bytes += blob.size();
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(bytes, 3u);
}

}  // namespace
}  // namespace expbsi
