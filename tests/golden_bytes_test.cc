// Known-answer tests for every persisted and shipped blob encoding: the
// Roaring containers and bitmaps, the BSI, the three experiment-data BSI
// blobs, the position encoder, and the WAL segment header and record. Each
// value is encoded and compared against golden bytes written out by hand,
// then decoded back and re-encoded to the same bytes.
//
// Warehouse blobs, snapshot segment files, WAL segments and wire payloads
// all carry these bytes, so a refactor of the codec that changes a single
// byte breaks on-disk compatibility; the round-trip and fuzz suites would
// not notice, because they only check that decode inverts encode. All
// integers are little-endian.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "common/file_io.h"
#include "expdata/bsi_builder.h"
#include "expdata/position_encoder.h"
#include "roaring/container.h"
#include "roaring/roaring_bitmap.h"
#include "wal/wal.h"

namespace expbsi {
namespace {

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const uint8_t b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string Repeat(std::string_view hex, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out.append(hex);
  return out;
}

// Decodes `bytes` with Container::Deserialize, which must consume them all
// and re-encode to the same bytes.
void ExpectContainerRoundTrip(const std::string& bytes, ContainerType type) {
  const uint8_t* cursor = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* end = cursor + bytes.size();
  const Result<Container> decoded = Container::Deserialize(&cursor, end);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(cursor, end);
  EXPECT_EQ(decoded.value().type(), type);
  std::string again;
  decoded.value().Serialize(&again);
  EXPECT_EQ(ToHex(again), ToHex(bytes));
}

// Array container {1, 2, 0x1234}: [type 0][count 3][values u16...].
TEST(GoldenBytesTest, ArrayContainer) {
  const uint16_t values[] = {1, 2, 0x1234};
  const Container c = Container::FromSorted(values, 3);
  ASSERT_EQ(c.type(), ContainerType::kArray);
  std::string bytes;
  c.Serialize(&bytes);
  EXPECT_EQ(ToHex(bytes), "00" "03000000" "0100" "0200" "3412");
  ExpectContainerRoundTrip(bytes, ContainerType::kArray);
}

// Bitmap container holding every even value below 10000 (5000 values):
// [type 1][cardinality 5000][1024 words u64].
TEST(GoldenBytesTest, BitmapContainer) {
  std::vector<uint16_t> values;
  for (uint16_t v = 0; v < 10000; v += 2) values.push_back(v);
  const Container c =
      Container::FromSorted(values.data(), static_cast<int>(values.size()));
  ASSERT_EQ(c.type(), ContainerType::kBitmap);
  std::string bytes;
  c.Serialize(&bytes);
  // Words 0..155 cover 0..9983; word 156 holds 9984..9998.
  const std::string golden = "01" "88130000" +
                             Repeat("5555555555555555", 156) +
                             "5555000000000000" +
                             Repeat("0000000000000000", 1024 - 157);
  EXPECT_EQ(ToHex(bytes), golden);
  ExpectContainerRoundTrip(bytes, ContainerType::kBitmap);
}

// Run container [10, 20] + [100, 299]: [type 2][run count 2]
// [(start, length - 1) u16 pairs].
TEST(GoldenBytesTest, RunContainer) {
  Container c;
  c.AddRange(10, 21);
  c.AddRange(100, 300);
  c.RunOptimize();
  ASSERT_EQ(c.type(), ContainerType::kRun);
  std::string bytes;
  c.Serialize(&bytes);
  EXPECT_EQ(ToHex(bytes), "02" "02000000" "0a00" "0a00" "6400" "c700");
  ExpectContainerRoundTrip(bytes, ContainerType::kRun);
}

// [container count u32] then per container [key u16][container].
TEST(GoldenBytesTest, RoaringBitmap) {
  RoaringBitmap bm = RoaringBitmap::FromSorted({3, 7, (1u << 16) + 5});
  bm.AddRange((2ull << 16) + 8, (2ull << 16) + 40);
  bm.RunOptimize();
  const std::string bytes = bm.SerializeToString();
  EXPECT_EQ(ToHex(bytes), "03000000"
                          "0000" "00" "02000000" "0300" "0700"
                          "0100" "00" "01000000" "0500"
                          "0200" "02" "01000000" "0800" "1f00");
  const Result<RoaringBitmap> decoded = RoaringBitmap::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().Equals(bm));
  EXPECT_EQ(ToHex(decoded.value().SerializeToString()), ToHex(bytes));
}

// Values 5 (0b101) at position 1 and 3 (0b011) at position 70000:
// [slice count u32][existence block][slice blocks], each block
// [length u32][roaring bitmap].
Bsi GoldenBsi() { return Bsi::FromPairs({{1, 5}, {70000, 3}}); }

TEST(GoldenBytesTest, Bsi) {
  const Bsi bsi = GoldenBsi();
  const std::string bytes = bsi.SerializeToString();
  EXPECT_EQ(ToHex(bytes),
            "03000000"
            // existence {1, 70000}
            "16000000" "02000000" "0000" "00" "01000000" "0100"
            "0100" "00" "01000000" "7011"
            // bit 0: {1, 70000}
            "16000000" "02000000" "0000" "00" "01000000" "0100"
            "0100" "00" "01000000" "7011"
            // bit 1: {70000}
            "0d000000" "01000000" "0100" "00" "01000000" "7011"
            // bit 2: {1}
            "0d000000" "01000000" "0000" "00" "01000000" "0100");
  const Result<Bsi> decoded = Bsi::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().Equals(bsi));
  EXPECT_EQ(ToHex(decoded.value().SerializeToString()), ToHex(bytes));
}

// [strategy id u64][min expose date u32][offset block][bucket block].
TEST(GoldenBytesTest, ExposeBsi) {
  ExposeBsi expose;
  expose.strategy_id = 0x0102030405060708ull;
  expose.min_expose_date = 30;
  expose.offset = Bsi::FromPairs({{0, 1}, {2, 2}});
  expose.bucket = Bsi::FromPairs({{0, 4}});
  std::string bytes;
  expose.Serialize(&bytes);
  EXPECT_EQ(ToHex(bytes),
            "0807060504030201" "1e000000"
            // offset: 1 at position 0, 2 at position 2
            "39000000" "02000000"
            "0f000000" "01000000" "0000" "00" "02000000" "0000" "0200"
            "0d000000" "01000000" "0000" "00" "01000000" "0000"
            "0d000000" "01000000" "0000" "00" "01000000" "0200"
            // bucket: 4 at position 0, with empty bit-0 and bit-1 slices
            "36000000" "03000000"
            "0d000000" "01000000" "0000" "00" "01000000" "0000"
            "04000000" "00000000"
            "04000000" "00000000"
            "0d000000" "01000000" "0000" "00" "01000000" "0000");
  const Result<ExposeBsi> decoded = ExposeBsi::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().strategy_id, expose.strategy_id);
  EXPECT_EQ(decoded.value().min_expose_date, expose.min_expose_date);
  EXPECT_TRUE(decoded.value().offset.Equals(expose.offset));
  EXPECT_TRUE(decoded.value().bucket.Equals(expose.bucket));
  std::string again;
  decoded.value().Serialize(&again);
  EXPECT_EQ(ToHex(again), ToHex(bytes));
}

// [date u32][metric id u64][value block].
TEST(GoldenBytesTest, MetricBsi) {
  MetricBsi metric;
  metric.date = 31;
  metric.metric_id = 8371;
  metric.value = GoldenBsi();
  std::string bytes;
  metric.Serialize(&bytes);
  EXPECT_EQ(ToHex(bytes),
            "1f000000" "b320000000000000"
            // the Bsi test's bytes
            "5a000000" "03000000"
            "16000000" "02000000" "0000" "00" "01000000" "0100"
            "0100" "00" "01000000" "7011"
            "16000000" "02000000" "0000" "00" "01000000" "0100"
            "0100" "00" "01000000" "7011"
            "0d000000" "01000000" "0100" "00" "01000000" "7011"
            "0d000000" "01000000" "0000" "00" "01000000" "0100");
  const Result<MetricBsi> decoded = MetricBsi::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().date, metric.date);
  EXPECT_EQ(decoded.value().metric_id, metric.metric_id);
  EXPECT_TRUE(decoded.value().value.Equals(metric.value));
  std::string again;
  decoded.value().Serialize(&again);
  EXPECT_EQ(ToHex(again), ToHex(bytes));
}

// [date u32][dimension id u32][value block].
TEST(GoldenBytesTest, DimensionBsi) {
  DimensionBsi dim;
  dim.date = 32;
  dim.dimension_id = 7;
  dim.value = Bsi::FromPairs({{4, 2}});
  std::string bytes;
  dim.Serialize(&bytes);
  EXPECT_EQ(ToHex(bytes),
            "20000000" "07000000"
            // 2 at position 4: an empty bit-0 slice, then bit 1
            "2e000000" "02000000"
            "0d000000" "01000000" "0000" "00" "01000000" "0400"
            "04000000" "00000000"
            "0d000000" "01000000" "0000" "00" "01000000" "0400");
  const Result<DimensionBsi> decoded = DimensionBsi::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().date, dim.date);
  EXPECT_EQ(decoded.value().dimension_id, dim.dimension_id);
  EXPECT_TRUE(decoded.value().value.Equals(dim.value));
  std::string again;
  decoded.value().Serialize(&again);
  EXPECT_EQ(ToHex(again), ToHex(bytes));
}

// [count u32][unit id u64 ...] in position order.
TEST(GoldenBytesTest, PositionEncoder) {
  PositionEncoder encoder;
  encoder.Encode(0x1122334455667788ull);
  encoder.Encode(42);
  encoder.Encode(7);
  std::string bytes;
  encoder.Serialize(&bytes);
  EXPECT_EQ(ToHex(bytes), "03000000"
                          "8877665544332211"
                          "2a00000000000000"
                          "0700000000000000");
  const Result<PositionEncoder> decoded = PositionEncoder::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value().Decode(0), 0x1122334455667788ull);
  EXPECT_EQ(decoded.value().Decode(1), 42u);
  EXPECT_EQ(decoded.value().Decode(2), 7u);
  std::string again;
  decoded.value().Serialize(&again);
  EXPECT_EQ(ToHex(again), ToHex(bytes));
}

// A WAL segment holding one record of one event. Segment header:
// [magic u32][format u32][first sequence u64][header crc u32]. Record:
// [payload length u32][sequence u64][event count u32][header crc u32]
// [events][payload crc u32], each event
// [kind u8][id u64][analysis unit u64][randomization unit u64][date u32]
// [value u64].
TEST(GoldenBytesTest, WalSegmentHeaderAndRecord) {
  const std::string dir = ::testing::TempDir() + "expbsi_golden_wal";
  ASSERT_TRUE(fileio::CreateDirIfMissing(dir).ok());
  const Result<std::vector<std::string>> stale = fileio::ListDir(dir);
  ASSERT_TRUE(stale.ok());
  for (const std::string& name : stale.value()) {
    ASSERT_TRUE(fileio::RemoveFileIfExists(dir + "/" + name).ok());
  }

  WalEvent event;
  event.kind = WalEventKind::kMetric;
  event.id = 8371;
  event.analysis_unit_id = 0x0102030405060708ull;
  event.randomization_unit_id = 99;
  event.date = 33;
  event.value = 1000;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, {});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const Result<uint64_t> seq = writer.value()->Append({event});
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(seq.value(), 1u);
  }
  const Result<std::string> file = fileio::ReadFileToString(
      dir + "/" + WalSegmentFileName(1), kMaxWalSegmentBytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file.value().size(), kWalSegmentHeaderBytes +
                                     kWalRecordHeaderBytes + kWalEventBytes +
                                     sizeof(uint32_t));
  EXPECT_EQ(ToHex(file.value().substr(0, kWalSegmentHeaderBytes)),
            "4c574245" "01000000" "0100000000000000" "f00af6f7");
  EXPECT_EQ(ToHex(file.value().substr(kWalSegmentHeaderBytes)),
            "25000000" "0100000000000000" "01000000" "091400b6"
            "01" "b320000000000000" "0807060504030201" "6300000000000000"
            "21000000" "e803000000000000"
            "ca833394");

  const Result<std::vector<WalRecord>> replayed = ReplayWal(dir, nullptr);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed.value().size(), 1u);
  EXPECT_EQ(replayed.value()[0].sequence, 1u);
  ASSERT_EQ(replayed.value()[0].events.size(), 1u);
  const WalEvent& back = replayed.value()[0].events[0];
  EXPECT_EQ(back.kind, event.kind);
  EXPECT_EQ(back.id, event.id);
  EXPECT_EQ(back.analysis_unit_id, event.analysis_unit_id);
  EXPECT_EQ(back.randomization_unit_id, event.randomization_unit_id);
  EXPECT_EQ(back.date, event.date);
  EXPECT_EQ(back.value, event.value);
}

}  // namespace
}  // namespace expbsi
