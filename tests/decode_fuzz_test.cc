// Corrupt-bytes fuzz harness for every byte-decoding path in the codebase
// (docs/TESTING.md "Decode fuzzing"): Container::Deserialize,
// RoaringBitmap::Deserialize, Bsi::Deserialize, the snapshot reader, the
// WAL segment replay path, and the serving protocol's wire codec
// (envelope framing plus every payload decoder, DESIGN.md §9).
// Each iteration serializes a clean object, applies one seeded mutation
// (truncation, 1-8 bitflips, a garbage window, pure garbage, or appended
// bytes) and replays the decoder. The contract:
//
//   (a) no crash, hang or sanitizer report (CI runs this under ASan);
//   (b) no allocation sized from untrusted metadata -- hostile counts are
//       rejected against the remaining bytes BEFORE any resize (the CI ASan
//       leg enforces this mechanically with max_allocation_size_mb);
//   (c) no silent wrong accept: anything a raw decoder accepts must be
//       self-consistent (it re-serializes and re-decodes to an equal
//       object), and the *checksummed* snapshot layer must never present a
//       mutated file's segment as recovered -- surviving segments are bit
//       identical, everything else is enumerated as lost.
//
// Reproduction knobs, same style as the chaos suite:
//   EXPBSI_FUZZ_SEED=<seed>   replay exactly one iteration per path
//   EXPBSI_FUZZ_ITERS=<n>     iterations per path (default 150; the CI
//                             persistence job runs 2500 per path = 10k)
//
// Known-nasty blobs live in tests/corpus/malformed_blobs.txt and are
// replayed before the random exploration.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "common/byte_io.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "roaring/container.h"
#include "roaring/roaring_bitmap.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"
#include "wal/wal.h"
#include "wire/envelope.h"
#include "wire/messages.h"

namespace expbsi {
namespace {

// ---------------------------------------------------------------------------
// Seed schedule and mutators
// ---------------------------------------------------------------------------

uint64_t Splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int FuzzIters() {
  if (const char* env = std::getenv("EXPBSI_FUZZ_ITERS")) {
    return static_cast<int>(std::strtol(env, nullptr, 0));
  }
  return 150;
}

std::vector<uint64_t> FuzzSeedSchedule(uint64_t base) {
  if (const char* env = std::getenv("EXPBSI_FUZZ_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  std::vector<uint64_t> seeds;
  uint64_t x = base;
  for (int i = 0, n = FuzzIters(); i < n; ++i) {
    x = Splitmix(x);
    seeds.push_back(x);
  }
  return seeds;
}

std::string Ctx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_FUZZ_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='DecodeFuzzTest.*')";
}

enum class MutationKind {
  kTruncate,
  kBitflips,
  kGarbageWindow,
  kPureGarbage,
  kExtend,
};

// One seeded mutation of `clean`. kBitflips always changes the bytes; the
// others can degenerate into a no-op (e.g. truncating at full length), which
// callers detect by comparing against `clean`.
std::string Mutate(Rng& rng, const std::string& clean, MutationKind kind) {
  std::string out = clean;
  switch (kind) {
    case MutationKind::kTruncate:
      out = out.substr(0, rng.NextBounded(out.size() + 1));
      break;
    case MutationKind::kBitflips: {
      if (out.empty()) {
        out.push_back('\x01');
        break;
      }
      const int flips = 1 + static_cast<int>(rng.NextBounded(8));
      for (int i = 0; i < flips; ++i) {
        const size_t bit = rng.NextBounded(out.size() * 8);
        out[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
      break;
    }
    case MutationKind::kGarbageWindow: {
      if (out.empty()) break;
      const size_t start = rng.NextBounded(out.size());
      const size_t len =
          std::min(out.size() - start, 1 + rng.NextBounded(32));
      for (size_t i = 0; i < len; ++i) {
        out[start + i] = static_cast<char>(rng.Next() & 0xff);
      }
      break;
    }
    case MutationKind::kPureGarbage: {
      out.resize(rng.NextBounded(600));
      for (char& c : out) c = static_cast<char>(rng.Next() & 0xff);
      break;
    }
    case MutationKind::kExtend: {
      const size_t extra = 1 + rng.NextBounded(64);
      for (size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<char>(rng.Next() & 0xff));
      }
      break;
    }
  }
  return out;
}

MutationKind RandomMutation(Rng& rng) {
  return static_cast<MutationKind>(rng.NextBounded(5));
}

// ---------------------------------------------------------------------------
// Clean-object builders
// ---------------------------------------------------------------------------

Container RandomContainer(Rng& rng) {
  std::vector<uint16_t> values;
  switch (rng.NextBounded(4)) {
    case 0: {  // sparse array
      std::set<uint16_t> s;
      const int n = static_cast<int>(rng.NextBounded(200));
      for (int i = 0; i < n; ++i) {
        s.insert(static_cast<uint16_t>(rng.NextBounded(65536)));
      }
      values.assign(s.begin(), s.end());
      break;
    }
    case 1: {  // dense -> bitmap
      std::set<uint16_t> s;
      for (int i = 0; i < 6000; ++i) {
        s.insert(static_cast<uint16_t>(rng.NextBounded(65536)));
      }
      values.assign(s.begin(), s.end());
      break;
    }
    case 2: {  // runs
      uint32_t v = rng.NextBounded(100);
      while (v < 65500 && values.size() < 5000) {
        const uint32_t len = 1 + rng.NextBounded(50);
        for (uint32_t i = 0; i < len && v + i < 65536; ++i) {
          values.push_back(static_cast<uint16_t>(v + i));
        }
        v += len + 1 + static_cast<uint32_t>(rng.NextBounded(200));
      }
      break;
    }
    default:  // empty / tiny
      if (rng.NextBernoulli(0.5)) {
        values.push_back(static_cast<uint16_t>(rng.NextBounded(65536)));
      }
      break;
  }
  Container c = Container::FromSorted(values.data(),
                                      static_cast<int>(values.size()));
  if (rng.NextBernoulli(0.5)) c.RunOptimize();
  return c;
}

RoaringBitmap RandomBitmap(Rng& rng) {
  RoaringBitmap bm;
  const int n = static_cast<int>(rng.NextBounded(3000));
  for (int i = 0; i < n; ++i) {
    bm.Add(static_cast<uint32_t>(rng.NextBounded(1u << 22)));
  }
  if (rng.NextBernoulli(0.4)) {
    const uint32_t start = rng.NextBounded(1u << 20);
    bm.AddRange(start, start + rng.NextBounded(20000));
  }
  if (rng.NextBernoulli(0.5)) bm.RunOptimize();
  return bm;
}

Bsi RandomBsi(Rng& rng) {
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  const int n = static_cast<int>(rng.NextBounded(2000));
  const uint64_t range = uint64_t{1} << (1 + rng.NextBounded(40));
  std::set<uint32_t> seen;
  for (int i = 0; i < n; ++i) {
    const uint32_t pos = static_cast<uint32_t>(rng.NextBounded(1u << 20));
    if (seen.insert(pos).second) {
      pairs.push_back({pos, rng.NextBounded(range)});
    }
  }
  return Bsi::FromPairs(std::move(pairs));
}

// ---------------------------------------------------------------------------
// Raw-decoder iterations: decode; on accept, require self-consistency.
// ---------------------------------------------------------------------------

void RunContainerIteration(uint64_t seed) {
  Rng rng(seed);
  const Container clean = RandomContainer(rng);
  std::string bytes;
  clean.Serialize(&bytes);
  const std::string mutated = Mutate(rng, bytes, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "container");

  const uint8_t* cursor = reinterpret_cast<const uint8_t*>(mutated.data());
  const uint8_t* end = cursor + mutated.size();
  const Result<Container> parsed = Container::Deserialize(&cursor, end);
  if (!parsed.ok()) return;  // clean rejection
  ASSERT_LE(cursor, end) << ctx << " cursor ran past the buffer";
  // Accepted: must round-trip to an equal object.
  std::string again;
  parsed.value().Serialize(&again);
  const uint8_t* c2 = reinterpret_cast<const uint8_t*>(again.data());
  const Result<Container> reparsed =
      Container::Deserialize(&c2, c2 + again.size());
  ASSERT_TRUE(reparsed.ok()) << ctx << " accepted bytes do not round-trip: "
                             << reparsed.status().ToString();
  EXPECT_TRUE(parsed.value().Equals(reparsed.value())) << ctx;
  EXPECT_EQ(parsed.value().Cardinality(), reparsed.value().Cardinality())
      << ctx;
}

void RunRoaringIteration(uint64_t seed) {
  Rng rng(seed);
  const RoaringBitmap clean = RandomBitmap(rng);
  const std::string bytes = clean.SerializeToString();
  const std::string mutated = Mutate(rng, bytes, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "roaring");

  const Result<RoaringBitmap> parsed = RoaringBitmap::Deserialize(mutated);
  if (!parsed.ok()) return;
  const Result<RoaringBitmap> reparsed =
      RoaringBitmap::Deserialize(parsed.value().SerializeToString());
  ASSERT_TRUE(reparsed.ok()) << ctx << " accepted bytes do not round-trip: "
                             << reparsed.status().ToString();
  EXPECT_TRUE(parsed.value().Equals(reparsed.value())) << ctx;
  EXPECT_EQ(parsed.value().Cardinality(),
            static_cast<uint64_t>(parsed.value().ToVector().size()))
      << ctx << " cardinality out of sync with contents";
}

void RunBsiIteration(uint64_t seed) {
  Rng rng(seed);
  const Bsi clean = RandomBsi(rng);
  const std::string bytes = clean.SerializeToString();
  const std::string mutated = Mutate(rng, bytes, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "bsi");

  const Result<Bsi> parsed = Bsi::Deserialize(mutated);
  if (!parsed.ok()) return;
  const Result<Bsi> reparsed =
      Bsi::Deserialize(parsed.value().SerializeToString());
  ASSERT_TRUE(reparsed.ok()) << ctx << " accepted bytes do not round-trip: "
                             << reparsed.status().ToString();
  EXPECT_TRUE(parsed.value().Equals(reparsed.value())) << ctx;
  parsed.value().Sum();          // must not crash on whatever was accepted
  parsed.value().Cardinality();
}

TEST(DecodeFuzzTest, ContainerDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0xC0117A11ull)) {
    RunContainerIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, RoaringDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x20A21116ull)) {
    RunRoaringIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, BsiDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0xB51F0221ull)) {
    RunBsiIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Wire codec (DESIGN.md §9). The serving protocol's decoders face bytes
// from the network, so the contract is strictly stronger than the raw
// decoders' round-trip: every encoding is CANONICAL -- one byte string per
// message -- so anything a decoder accepts must re-encode BIT-IDENTICALLY
// to the accepted bytes. A mutation either produces a clean Corruption
// rejection or lands on the one encoding of some other valid message;
// there is no third state where a frame decodes to something that would
// serialize differently.
// ---------------------------------------------------------------------------

std::string RandomWireBytes(Rng& rng, size_t max_len) {
  std::string out(rng.NextBounded(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.Next() & 0xff);
  return out;
}

wire::Envelope RandomEnvelope(Rng& rng) {
  wire::Envelope env;
  env.type =
      static_cast<wire::MsgType>(rng.NextBounded(wire::kMaxMsgType + 1));
  env.flags = static_cast<uint16_t>(rng.Next() & 0xffff);
  env.request_id = rng.Next();
  env.payload = RandomWireBytes(rng, 400);
  return env;
}

wire::WireQueryRequest RandomWireRequest(Rng& rng) {
  wire::WireQueryRequest req;
  for (uint64_t i = rng.NextBounded(5); i > 0; --i) {
    req.strategy_ids.push_back(rng.Next());
  }
  for (uint64_t i = rng.NextBounded(4); i > 0; --i) {
    req.metric_ids.push_back(rng.Next());
  }
  req.date_lo = static_cast<Date>(rng.NextBounded(100));
  req.date_hi = static_cast<Date>(req.date_lo + rng.NextBounded(30));
  for (uint64_t i = rng.NextBounded(9); i > 0; --i) {
    req.segments.push_back(static_cast<uint32_t>(rng.NextBounded(64)));
  }
  req.allow_degraded = rng.NextBernoulli(0.5);
  req.want_trace = rng.NextBernoulli(0.5);
  return req;
}

// Doubles drawn straight from the bit space: mutations already produce
// NaNs and infinities, but the CLEAN message should carry them too so the
// canonical contract is exercised on every bit pattern, not just finite
// values.
double RandomDoubleBits(Rng& rng) {
  const uint64_t bits = rng.Next();
  double d;
  __builtin_memcpy(&d, &bits, 8);
  return d;
}

wire::WireQueryResponse RandomWireResponse(Rng& rng) {
  wire::WireQueryResponse resp;
  resp.segments.resize(rng.NextBounded(5));
  for (wire::WireSegmentResult& seg : resp.segments) {
    seg.segment = static_cast<uint32_t>(rng.NextBounded(64));
    seg.lost = rng.NextBernoulli(0.2) ? 1 : 0;
    if (seg.lost == 0) {
      const size_t cells = rng.NextBounded(8);
      for (size_t i = 0; i < cells; ++i) {
        seg.sums.push_back(RandomDoubleBits(rng));
        seg.counts.push_back(RandomDoubleBits(rng));
      }
    }
  }
  resp.retries = static_cast<uint32_t>(rng.NextBounded(10));
  resp.faults_survived = static_cast<uint32_t>(rng.NextBounded(10));
  resp.bytes_from_cold = rng.Next();
  resp.hot_hits = rng.Next();
  resp.cpu_seconds = RandomDoubleBits(rng);
  resp.spans.resize(rng.NextBounded(4));
  uint32_t id = 0;
  for (wire::WireSpan& span : resp.spans) {
    span.id = ++id;
    span.parent_id = id > 1 ? 1 + static_cast<uint32_t>(
                                      rng.NextBounded(id - 1))
                            : 0;
    span.name = RandomWireBytes(rng, 24);  // arbitrary bytes, not just text
    span.start_ns = rng.Next();
    span.duration_ns = rng.Next();
    span.attrs.resize(rng.NextBounded(3));
    for (auto& [key, value] : span.attrs) {
      key = RandomWireBytes(rng, 16);
      value = rng.Next();
    }
  }
  return resp;
}

wire::WireError RandomWireError(Rng& rng) {
  wire::WireError err;
  err.code = static_cast<StatusCode>(
      1 + rng.NextBounded(static_cast<uint64_t>(StatusCode::kUnavailable)));
  err.message = RandomWireBytes(rng, 120);
  return err;
}

void RunEnvelopeIteration(uint64_t seed) {
  Rng rng(seed);
  std::string frame;
  wire::EncodeEnvelope(RandomEnvelope(rng), &frame);
  const std::string mutated = Mutate(rng, frame, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "envelope");

  // The transport-side header peek must never promise a frame beyond the
  // cap -- this is the check that bounds the receive allocation.
  if (mutated.size() >= wire::kEnvelopeHeaderBytes) {
    const Result<size_t> size = wire::FrameSizeFromHeader(
        mutated.substr(0, wire::kEnvelopeHeaderBytes));
    if (size.ok()) {
      EXPECT_LE(size.value(), wire::kEnvelopeHeaderBytes +
                                  size_t{wire::kMaxEnvelopePayloadBytes} + 4)
          << ctx << " header peek promised a frame over the cap";
    }
  }

  const Result<wire::Envelope> parsed = wire::DecodeEnvelope(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  std::string again;
  wire::EncodeEnvelope(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted frame did not re-encode bit-identically";
}

void RunWireRequestIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeQueryRequest(RandomWireRequest(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "wire request");

  const Result<wire::WireQueryRequest> parsed =
      wire::DecodeQueryRequest(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  std::string again;
  wire::EncodeQueryRequest(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
}

void RunWireResponseIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeQueryResponse(RandomWireResponse(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "wire response");

  const Result<wire::WireQueryResponse> parsed =
      wire::DecodeQueryResponse(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  std::string again;
  wire::EncodeQueryResponse(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
  for (const wire::WireSegmentResult& seg : parsed.value().segments) {
    EXPECT_LE(seg.lost, 1) << ctx;
  }
}

void RunWireErrorIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeError(RandomWireError(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "wire error");

  const Result<wire::WireError> parsed = wire::DecodeError(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  // An accepted error must carry a code the coordinator can act on.
  EXPECT_NE(static_cast<uint8_t>(parsed.value().code), 0) << ctx;
  EXPECT_LE(static_cast<uint8_t>(parsed.value().code),
            static_cast<uint8_t>(StatusCode::kUnavailable))
      << ctx;
  std::string again;
  wire::EncodeError(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
}

wire::WireSegmentFetch RandomSegmentFetch(Rng& rng) {
  wire::WireSegmentFetch fetch;
  fetch.segment = static_cast<uint32_t>(rng.NextBounded(65536));
  return fetch;
}

wire::WireSegmentPush RandomSegmentPush(Rng& rng) {
  wire::WireSegmentPush push;
  push.segment = static_cast<uint32_t>(rng.NextBounded(65536));
  // Strictly ascending (kind, id, date) keys: the canonical order the
  // decoder enforces.
  std::set<std::tuple<uint8_t, uint64_t, uint32_t>> keys;
  for (uint64_t i = rng.NextBounded(5); i > 0; --i) {
    keys.insert({static_cast<uint8_t>(rng.NextBounded(4)),
                 rng.NextBounded(2000), static_cast<uint32_t>(
                     rng.NextBounded(50))});
  }
  for (const auto& [kind, id, date] : keys) {
    wire::WireRepairBlob blob;
    blob.kind = kind;
    blob.id = id;
    blob.date = date;
    blob.fingerprint = rng.Next();
    blob.bytes = RandomWireBytes(rng, 200);
    push.blobs.push_back(std::move(blob));
  }
  return push;
}

void RunSegmentFetchIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeSegmentFetch(RandomSegmentFetch(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "segment fetch");

  const Result<wire::WireSegmentFetch> parsed =
      wire::DecodeSegmentFetch(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  EXPECT_LE(parsed.value().segment, 65535u) << ctx;
  std::string again;
  wire::EncodeSegmentFetch(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
}

void RunSegmentPushIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeSegmentPush(RandomSegmentPush(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "segment push");

  const Result<wire::WireSegmentPush> parsed =
      wire::DecodeSegmentPush(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  // Accepted pushes obey every structural invariant the repair client
  // relies on: canonical order, bounded kinds and blob sizes.
  EXPECT_LE(parsed.value().segment, 65535u) << ctx;
  for (size_t i = 0; i < parsed.value().blobs.size(); ++i) {
    const wire::WireRepairBlob& blob = parsed.value().blobs[i];
    EXPECT_LE(blob.kind, 3) << ctx;
    EXPECT_LE(blob.bytes.size(), wire::kMaxRepairBlobBytes) << ctx;
    if (i > 0) {
      const wire::WireRepairBlob& prev = parsed.value().blobs[i - 1];
      EXPECT_LT(std::make_tuple(prev.kind, prev.id, prev.date),
                std::make_tuple(blob.kind, blob.id, blob.date))
          << ctx << " accepted blobs out of canonical order";
    }
  }
  std::string again;
  wire::EncodeSegmentPush(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
}

wire::WireStatsFetch RandomStatsFetch(Rng& rng) {
  wire::WireStatsFetch fetch;
  fetch.since_seq = rng.Next() >> (rng.NextBounded(64));
  fetch.want_metrics = rng.NextBounded(2) == 1;
  fetch.want_events = rng.NextBounded(2) == 1;
  return fetch;
}

wire::WireStatsReply RandomStatsReply(Rng& rng) {
  wire::WireStatsReply reply;
  reply.node_id = static_cast<uint32_t>(rng.NextBounded(64));
  reply.uptime_seconds = static_cast<double>(rng.NextBounded(100000)) / 7.0;
  reply.build_info = "expbsi/0.t " + std::to_string(rng.NextBounded(100));
  reply.queries_served = rng.NextBounded(1u << 20);
  reply.backpressure_rejections = rng.NextBounded(100);
  // Strictly ascending names per section: build from a set.
  std::set<std::string> names;
  for (uint64_t i = rng.NextBounded(5); i > 0; --i) {
    names.insert("c." + std::to_string(rng.NextBounded(1000)));
  }
  for (const std::string& n : names) {
    reply.counters.emplace_back(n, rng.Next());
  }
  names.clear();
  for (uint64_t i = rng.NextBounded(4); i > 0; --i) {
    names.insert("g." + std::to_string(rng.NextBounded(1000)));
  }
  for (const std::string& n : names) {
    reply.gauges.emplace_back(
        n, static_cast<double>(rng.NextBounded(1u << 16)) / 3.0);
  }
  names.clear();
  for (uint64_t i = rng.NextBounded(3); i > 0; --i) {
    names.insert("h." + std::to_string(rng.NextBounded(1000)));
  }
  for (const std::string& n : names) {
    wire::WireHistogram h;
    h.name = n;
    // Strictly le-ascending non-empty buckets whose counts total `count`.
    uint64_t le = 0;
    for (uint64_t b = rng.NextBounded(4); b > 0; --b) {
      le += 1 + rng.NextBounded(100);
      const uint64_t cnt = 1 + rng.NextBounded(50);
      h.buckets.emplace_back(le, cnt);
      h.count += cnt;
      h.sum += cnt * le;
    }
    reply.histograms.push_back(std::move(h));
  }
  // Strictly seq-ascending events, all below next_seq.
  uint64_t seq = rng.NextBounded(100);
  for (uint64_t i = rng.NextBounded(6); i > 0; --i) {
    wire::WireFlightEvent ev;
    ev.seq = seq;
    seq += 1 + rng.NextBounded(5);
    ev.t_ns = rng.Next() >> 20;
    ev.trace_id = rng.NextBounded(1000);
    ev.kind = static_cast<uint8_t>(rng.NextBounded(obs::kMaxFlightEventKind + 1));
    ev.a = rng.NextBounded(10000);
    ev.b = rng.NextBounded(10000);
    reply.events.push_back(ev);
  }
  reply.next_seq = seq + rng.NextBounded(10);
  return reply;
}

void RunStatsFetchIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeStatsFetch(RandomStatsFetch(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "stats fetch");

  const Result<wire::WireStatsFetch> parsed =
      wire::DecodeStatsFetch(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  std::string again;
  wire::EncodeStatsFetch(parsed.value(), &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
}

void RunStatsReplyIteration(uint64_t seed) {
  Rng rng(seed);
  std::string payload;
  wire::EncodeStatsReply(RandomStatsReply(rng), &payload);
  const std::string mutated = Mutate(rng, payload, RandomMutation(rng));
  const std::string ctx = Ctx(seed, "stats reply");

  const Result<wire::WireStatsReply> parsed =
      wire::DecodeStatsReply(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  // Accepted replies obey the invariants the fleet merger trusts: canonical
  // name order, consistent histograms, bounded event kinds under next_seq.
  const wire::WireStatsReply& reply = parsed.value();
  for (size_t i = 1; i < reply.counters.size(); ++i) {
    EXPECT_LT(reply.counters[i - 1].first, reply.counters[i].first) << ctx;
  }
  for (const wire::WireHistogram& h : reply.histograms) {
    uint64_t total = 0;
    uint64_t prev_le = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) {
        EXPECT_LT(prev_le, h.buckets[b].first) << ctx;
      }
      prev_le = h.buckets[b].first;
      EXPECT_NE(h.buckets[b].second, 0u) << ctx;
      total += h.buckets[b].second;
    }
    EXPECT_EQ(total, h.count) << ctx;
  }
  for (size_t i = 0; i < reply.events.size(); ++i) {
    EXPECT_LE(reply.events[i].kind, obs::kMaxFlightEventKind) << ctx;
    if (i > 0) {
      EXPECT_LT(reply.events[i - 1].seq, reply.events[i].seq) << ctx;
    }
  }
  if (!reply.events.empty()) {
    EXPECT_LT(reply.events.back().seq, reply.next_seq) << ctx;
  }
  std::string again;
  wire::EncodeStatsReply(reply, &again);
  EXPECT_EQ(again, mutated)
      << ctx << " accepted payload did not re-encode bit-identically";
}

TEST(DecodeFuzzTest, EnvelopeDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0xE4E10BE5ull)) {
    RunEnvelopeIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, WireRequestDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E01ull)) {
    RunWireRequestIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, WireResponseDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E02ull)) {
    RunWireResponseIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, WireErrorDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E03ull)) {
    RunWireErrorIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, SegmentFetchDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E04ull)) {
    RunSegmentFetchIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, SegmentPushDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E05ull)) {
    RunSegmentPushIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, StatsFetchDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E06ull)) {
    RunStatsFetchIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DecodeFuzzTest, StatsReplyDecodeSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x317E0E07ull)) {
    RunStatsReplyIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Snapshot reader: the checksummed layer. A mutated file must never be
// presented as recovered -- surviving segments bit-identical, the rest
// enumerated as lost (or the whole recovery cleanly refused).
// ---------------------------------------------------------------------------

// Each test gets its own directory: ctest runs gtest cases as concurrent
// processes, so two tests sharing a dir would clobber each other's files.
std::string FuzzDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "expbsi_decode_fuzz_" + name;
  EXPECT_TRUE(fileio::CreateDirIfMissing(dir).ok());
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  EXPECT_TRUE(entries.ok());
  for (const std::string& entry : entries.value()) {
    EXPECT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
  }
  return dir;
}

BsiStore MakeFuzzStore(Rng& rng) {
  BsiStore store;
  const int num_segments = 1 + static_cast<int>(rng.NextBounded(3));
  for (int seg = 0; seg < num_segments; ++seg) {
    const int blobs = 1 + static_cast<int>(rng.NextBounded(4));
    for (int b = 0; b < blobs; ++b) {
      std::string bytes(1 + rng.NextBounded(400), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xff);
      BsiStoreKey key;
      key.segment = static_cast<uint16_t>(seg);
      key.kind = static_cast<BsiKind>(b % 3);
      key.id = 10 + b;
      key.date = static_cast<uint32_t>(b);
      store.Put(key, std::move(bytes));
    }
  }
  return store;
}

using BlobKey = std::tuple<uint16_t, uint8_t, uint64_t, uint32_t>;

std::map<BlobKey, std::string> ContentsOf(const BsiStore& store) {
  std::map<BlobKey, std::string> out;
  store.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
    out[{key.segment, static_cast<uint8_t>(key.kind), key.id, key.date}] =
        bytes;
  });
  return out;
}

void RunSnapshotIteration(uint64_t seed, const std::string& dir) {
  // One committed version per iteration: with older versions on disk a
  // mutation could hit a file recovery legitimately ignores (or legitimately
  // falls back to), which would make the assertions below meaningless. The
  // multi-version fallback path is chaos_test.cc territory.
  {
    const Result<std::vector<std::string>> stale = fileio::ListDir(dir);
    ASSERT_TRUE(stale.ok());
    for (const std::string& entry : stale.value()) {
      ASSERT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
    }
  }
  Rng rng(seed);
  const BsiStore store = MakeFuzzStore(rng);
  const Result<SnapshotWriteStats> written = SnapshotWriter::Write(store, dir);
  const std::string ctx = Ctx(seed, "snapshot");
  ASSERT_TRUE(written.ok()) << ctx << ": " << written.status().ToString();

  Result<std::vector<std::string>> files = fileio::ListDir(dir);
  ASSERT_TRUE(files.ok()) << ctx;
  ASSERT_FALSE(files.value().empty()) << ctx;
  // Sorted so victim choice depends only on the seed, not on readdir order.
  std::sort(files.value().begin(), files.value().end());
  const std::string victim =
      files.value()[rng.NextBounded(files.value().size())];
  const Result<std::string> clean =
      fileio::ReadFileToString(dir + "/" + victim, kMaxSegmentFileBytes);
  ASSERT_TRUE(clean.ok()) << ctx;
  const MutationKind kind = RandomMutation(rng);
  const std::string mutated = Mutate(rng, clean.value(), kind);
  const bool changed = mutated != clean.value();
  {
    std::ofstream out(dir + "/" + victim,
                      std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    ASSERT_TRUE(out.good()) << ctx;
  }

  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  if (changed && kind == MutationKind::kBitflips) {
    // The checksum contract: bitflips anywhere in any snapshot file are
    // ALWAYS caught -- a flipped file can contribute nothing to a "fully
    // recovered" result.
    EXPECT_FALSE(recovered.ok() && report.fully_recovered())
        << ctx << " bitflipped " << victim << " silently accepted";
  }
  if (!recovered.ok()) {
    // Refusal must be classified, never a crash.
    EXPECT_TRUE(recovered.status().code() == StatusCode::kCorruption ||
                recovered.status().code() == StatusCode::kNotFound)
        << ctx << ": " << recovered.status().ToString();
    return;
  }
  // Whatever was recovered must be bit-identical to the written store, and
  // the lost/recovered lists must exactly partition the manifest segments.
  const std::map<BlobKey, std::string> want = ContentsOf(store);
  const std::map<BlobKey, std::string> got = ContentsOf(recovered.value());
  const std::set<uint16_t> lost(report.lost_segments.begin(),
                                report.lost_segments.end());
  const std::set<uint16_t> ok_segs(report.segments_recovered.begin(),
                                   report.segments_recovered.end());
  for (uint16_t seg : lost) {
    EXPECT_EQ(ok_segs.count(seg), 0u) << ctx << " segment both lost and ok";
  }
  for (const auto& [k, v] : want) {
    const uint16_t seg = std::get<0>(k);
    const auto it = got.find(k);
    if (lost.count(seg) > 0) {
      EXPECT_EQ(it, got.end()) << ctx << " lost segment leaked a blob";
    } else {
      ASSERT_NE(it, got.end())
          << ctx << " segment " << seg << " silently dropped a blob";
      EXPECT_EQ(it->second, v) << ctx << " recovered blob diverged";
    }
  }
  EXPECT_EQ(got.size() + [&] {
    size_t lost_blobs = 0;
    for (const auto& [k, v] : want) {
      if (lost.count(std::get<0>(k)) > 0) ++lost_blobs;
    }
    return lost_blobs;
  }(), want.size())
      << ctx << " recovered store holds foreign blobs";
}

TEST(DecodeFuzzTest, SnapshotRecoverySurvivesMutations) {
  const std::string dir = FuzzDir("snapshot");
  for (uint64_t seed : FuzzSeedSchedule(0x5A4E0F11ull)) {
    RunSnapshotIteration(seed, dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Chain manifests (DESIGN.md §6). Mutated bodies are re-sealed with a valid
// CRC, so the mutations reach the structural checks behind the checksum:
// decoding fails cleanly, or every chain either carries its error or obeys
// every chain rule, and a clean decode re-encodes bit-identically.
// ---------------------------------------------------------------------------

SnapshotManifest RandomManifest(Rng& rng) {
  SnapshotManifest m;
  m.version = 1 + rng.NextBounded(40);
  const int chains = static_cast<int>(rng.NextBounded(5));
  uint16_t segment = 0;
  for (int c = 0; c < chains; ++c) {
    SnapshotChain chain;
    segment = static_cast<uint16_t>(segment + 1 + rng.NextBounded(3));
    chain.segment = segment;
    uint64_t version = 0;
    const int files = 1 + static_cast<int>(rng.NextBounded(5));
    for (int f = 0; f < files; ++f) {
      version += 1 + rng.NextBounded(3);
      if (version > m.version) break;
      chain.files.push_back(SnapshotChainFile{
          SnapshotSegmentFileName(segment, version), version,
          kSegmentFileHeaderBytes + rng.NextBounded(5000),
          rng.NextBounded(20)});
    }
    if (chain.files.empty()) {
      chain.files.push_back(SnapshotChainFile{
          SnapshotSegmentFileName(segment, m.version), m.version,
          kSegmentFileHeaderBytes, 0});
    }
    m.chains.push_back(std::move(chain));
  }
  return m;
}

void RunManifestIteration(uint64_t seed) {
  Rng rng(seed);
  const std::string ctx = Ctx(seed, "manifest");
  const SnapshotManifest manifest = RandomManifest(rng);
  const std::string clean = EncodeSnapshotManifest(manifest);
  const Result<SnapshotManifest> round =
      DecodeSnapshotManifest(clean, manifest.version);
  ASSERT_TRUE(round.ok()) << ctx << ": " << round.status().ToString();
  for (const SnapshotChain& chain : round.value().chains) {
    ASSERT_TRUE(chain.error.empty()) << ctx << ": " << chain.error;
  }
  ASSERT_EQ(EncodeSnapshotManifest(round.value()), clean) << ctx;

  std::string body = Mutate(rng, clean.substr(0, clean.size() - 4),
                            RandomMutation(rng));
  PutU32(&body, Crc32c(body));
  const Result<SnapshotManifest> got =
      DecodeSnapshotManifest(body, manifest.version);
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << ctx;
    return;
  }
  EXPECT_EQ(got.value().version, manifest.version) << ctx;
  for (const SnapshotChain& chain : got.value().chains) {
    if (!chain.error.empty()) continue;
    ASSERT_FALSE(chain.files.empty()) << ctx;
    uint64_t prev = 0;
    for (const SnapshotChainFile& file : chain.files) {
      EXPECT_GT(file.version, prev) << ctx;
      EXPECT_LE(file.version, manifest.version) << ctx;
      EXPECT_EQ(file.name, SnapshotSegmentFileName(chain.segment,
                                                   file.version))
          << ctx;
      EXPECT_LE(file.file_size, kMaxSegmentFileBytes) << ctx;
      prev = file.version;
    }
  }
  EXPECT_EQ(EncodeSnapshotManifest(got.value()), body)
      << ctx << " decode is not canonical";
}

TEST(DecodeFuzzTest, SnapshotManifestSurvivesMutations) {
  for (uint64_t seed : FuzzSeedSchedule(0x3A1F357ull)) {
    RunManifestIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A manifest that passes every check but names a chain file that is not on
// disk, or names one file twice: that segment is lost and reported, the
// others recover.
TEST(DecodeFuzzTest, ChainNamingMissingOrDuplicateFileLosesOnlyThatSegment) {
  const std::string dir = FuzzDir("chain_rules");
  BsiStore store;
  for (uint16_t seg = 0; seg < 3; ++seg) {
    BsiStoreKey key;
    key.segment = seg;
    key.id = 5;
    store.Put(key, std::string(20 + seg, 'x'));
  }
  ASSERT_TRUE(SnapshotWriter::Write(store, dir).ok());
  const Result<std::string> bytes = fileio::ReadFileToString(
      dir + "/" + SnapshotManifestName(1), kMaxManifestBytes);
  ASSERT_TRUE(bytes.ok());
  Result<SnapshotManifest> manifest = DecodeSnapshotManifest(bytes.value(), 1);
  ASSERT_TRUE(manifest.ok());
  SnapshotManifest next = manifest.value();
  next.version = 2;
  // Segment 1 names a file no writer produced; segment 2 names its base
  // twice.
  next.chains[1].files.push_back(SnapshotChainFile{
      SnapshotSegmentFileName(1, 2), 2, kSegmentFileHeaderBytes, 0});
  next.chains[2].files.push_back(next.chains[2].files[0]);
  {
    std::ofstream out(dir + "/" + SnapshotManifestName(2),
                      std::ios::binary | std::ios::trunc);
    const std::string encoded = EncodeSnapshotManifest(next);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  }
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.manifest_version, 2u);
  EXPECT_EQ(report.segments_recovered, (std::vector<uint16_t>{0}));
  EXPECT_EQ(report.lost_segments, (std::vector<uint16_t>{1, 2}));
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_NE(report.errors[1].find("duplicate file"), std::string::npos)
      << report.errors[1];
  EXPECT_EQ(recovered.value().NumBlobs(), 1u);
}

// ---------------------------------------------------------------------------
// WAL segments: the CRC-framed replay path (DESIGN.md §8.1-8.2). The log's
// contract under arbitrary at-rest corruption:
//
//   (a) replay never crashes and never runs past the buffer;
//   (b) a replayed record is bit-identical to one the writer appended, at
//       its original sequence: bitflipped records never replay (header and
//       payload CRCs), and replay stops at the first damaged record, so
//       what comes back is an EXACT PREFIX of the appended stream --
//       including across segments, where the sequence-continuity check
//       drops everything after a shortened middle segment;
//   (c) the stop point is exactly where the corruption begins: truncating
//       a tail keeps every record wholly before the tear, and appended
//       garbage loses nothing;
//   (d) repair-on-open leaves a log that accepts new appends and then
//       replays the surviving prefix plus the new record, tear-free.
//
// The framed layout is a deterministic function of the event counts and
// the roll threshold, so the test rebuilds it (SimulateWalLayout) to map
// the mutation's first damaged byte to the first record that must vanish.
// ---------------------------------------------------------------------------

std::vector<WalEvent> RandomWalEvents(Rng& rng) {
  std::vector<WalEvent> events(1 + rng.NextBounded(6));
  for (WalEvent& event : events) {
    event.kind = static_cast<WalEventKind>(rng.NextBounded(3));
    event.id = 1 + rng.NextBounded(1000);
    event.analysis_unit_id = rng.NextBounded(5000);
    event.randomization_unit_id = rng.NextBounded(5000);
    event.date = static_cast<Date>(10 + rng.NextBounded(5));
    event.value = rng.NextBounded(uint64_t{1} << 20);
  }
  return events;
}

struct WalSegSim {
  uint64_t first_sequence = 0;
  std::vector<size_t> record_sizes;  // framed sizes, in append order
};

// Mirrors WalWriter's roll rule: a record rolls to a fresh segment when the
// active one already holds a record and would overflow the threshold.
std::vector<WalSegSim> SimulateWalLayout(const std::vector<size_t>& counts,
                                         uint64_t segment_bytes) {
  std::vector<WalSegSim> segments;
  segments.push_back({1, {}});
  size_t active = kWalSegmentHeaderBytes;
  uint64_t sequence = 1;
  for (size_t count : counts) {
    const size_t record = kWalRecordHeaderBytes + count * kWalEventBytes + 4;
    if (active > kWalSegmentHeaderBytes && active + record > segment_bytes) {
      segments.push_back({sequence, {}});
      active = kWalSegmentHeaderBytes;
    }
    segments.back().record_sizes.push_back(record);
    active += record;
    ++sequence;
  }
  return segments;
}

void RunWalSegmentIteration(uint64_t seed, const std::string& dir) {
  {
    const Result<std::vector<std::string>> stale = fileio::ListDir(dir);
    ASSERT_TRUE(stale.ok());
    for (const std::string& entry : stale.value()) {
      ASSERT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
    }
  }
  Rng rng(seed);
  WalOptions options;
  const uint64_t segment_sizes[] = {128, 512, 1ull << 20};
  options.segment_bytes = segment_sizes[rng.NextBounded(3)];
  options.sync_each_append = false;  // durability is chaos_test territory
  const std::string ctx = Ctx(seed, "wal");

  std::vector<WalRecord> appended;
  std::vector<size_t> counts;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok()) << ctx;
    const int n = 1 + static_cast<int>(rng.NextBounded(8));
    for (int i = 0; i < n; ++i) {
      WalRecord record;
      record.events = RandomWalEvents(rng);
      const Result<uint64_t> seq = writer.value()->Append(record.events);
      ASSERT_TRUE(seq.ok()) << ctx;
      record.sequence = seq.value();
      counts.push_back(record.events.size());
      appended.push_back(std::move(record));
    }
  }

  const std::vector<WalSegSim> layout =
      SimulateWalLayout(counts, options.segment_bytes);
  std::vector<std::string> files;
  {
    const Result<std::vector<std::string>> listing = fileio::ListDir(dir);
    ASSERT_TRUE(listing.ok()) << ctx;
    for (const std::string& name : listing.value()) {
      uint64_t first = 0;
      if (ParseWalSegmentFileName(name, &first)) files.push_back(name);
    }
    std::sort(files.begin(), files.end());
  }
  ASSERT_EQ(files.size(), layout.size()) << ctx << " layout model diverged";

  const size_t victim_index = rng.NextBounded(files.size());
  const WalSegSim& victim = layout[victim_index];
  const std::string victim_path = dir + "/" + files[victim_index];
  const Result<std::string> clean =
      fileio::ReadFileToString(victim_path, 1u << 24);
  ASSERT_TRUE(clean.ok()) << ctx;
  {
    size_t want = kWalSegmentHeaderBytes;
    for (size_t record : victim.record_sizes) want += record;
    ASSERT_EQ(clean.value().size(), want) << ctx << " layout model diverged";
  }

  const std::string mutated = Mutate(rng, clean.value(), RandomMutation(rng));
  {
    std::ofstream out(victim_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    ASSERT_TRUE(out.good()) << ctx;
  }

  // First damaged byte of the CLEAN file: the first in-place difference, or
  // the truncation point when bytes were removed. Bytes appended past the
  // original end damage nothing that was already durable.
  size_t damaged_from = clean.value().size();
  const size_t common = std::min(clean.value().size(), mutated.size());
  for (size_t i = 0; i < common; ++i) {
    if (clean.value()[i] != mutated[i]) {
      damaged_from = i;
      break;
    }
  }
  if (mutated.size() < clean.value().size()) {
    damaged_from = std::min(damaged_from, mutated.size());
  }

  // Map the damage to the first sequence that must vanish. Damage inside
  // the segment header refuses the whole segment; damage inside record r
  // stops replay at r; replay of later segments is then cut off by the
  // sequence-continuity check. Bytes APPENDED to the victim damage no
  // record, but they do tear the scan right after the victim's last
  // record, so a middle segment's extension still drops later segments
  // (for the last segment the same formula is a no-op).
  uint64_t expected_last = appended.size();
  if (damaged_from < clean.value().size()) {
    if (damaged_from < kWalSegmentHeaderBytes) {
      expected_last = victim.first_sequence - 1;
    } else {
      size_t offset = kWalSegmentHeaderBytes;
      uint64_t sequence = victim.first_sequence;
      for (size_t record : victim.record_sizes) {
        if (damaged_from < offset + record) break;
        offset += record;
        ++sequence;
      }
      expected_last = sequence - 1;
    }
  } else if (mutated.size() > clean.value().size()) {
    expected_last = std::min<uint64_t>(
        expected_last,
        victim.first_sequence + victim.record_sizes.size() - 1);
  }

  WalRecoveryReport report;
  const Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok()) << ctx << ": " << replayed.status().ToString();
  ASSERT_EQ(replayed.value().size(), expected_last)
      << ctx << " replay did not stop exactly at the corruption";
  EXPECT_EQ(report.last_sequence, expected_last) << ctx;
  for (size_t i = 0; i < replayed.value().size(); ++i) {
    ASSERT_EQ(replayed.value()[i].sequence, i + 1) << ctx;
    ASSERT_EQ(replayed.value()[i].events, appended[i].events)
        << ctx << " replayed record diverged from what was appended";
  }

  // Repair-on-open must leave an appendable, tear-free log holding exactly
  // the surviving prefix.
  std::vector<WalEvent> extra;
  {
    WalRecoveryReport repair_report;
    std::vector<WalRecord> survivors;
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir, options, &repair_report, &survivors);
    ASSERT_TRUE(writer.ok()) << ctx;
    ASSERT_EQ(survivors.size(), expected_last)
        << ctx << " repair changed the surviving prefix";
    extra = RandomWalEvents(rng);
    const Result<uint64_t> seq = writer.value()->Append(extra);
    ASSERT_TRUE(seq.ok()) << ctx << " repaired log refused an append";
    ASSERT_EQ(seq.value(), expected_last + 1) << ctx;
  }
  WalRecoveryReport after;
  const Result<std::vector<WalRecord>> final_replay = ReplayWal(dir, &after);
  ASSERT_TRUE(final_replay.ok()) << ctx;
  ASSERT_EQ(final_replay.value().size(), expected_last + 1) << ctx;
  ASSERT_EQ(final_replay.value().back().events, extra)
      << ctx << " record appended after repair diverged";
  EXPECT_FALSE(after.tail_torn)
      << ctx << " repaired log still reports a tear";
}

TEST(DecodeFuzzTest, WalReplaySurvivesMutations) {
  const std::string dir = FuzzDir("wal");
  for (uint64_t seed : FuzzSeedSchedule(0x7A111EDull)) {
    RunWalSegmentIteration(seed, dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Hostile-header fail-fast: counts that exceed what the payload can hold
// must be rejected before they size an allocation.
// ---------------------------------------------------------------------------

std::string Hex(std::string_view hex) {
  std::string out;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    EXPECT_GE(hi, 0);
    EXPECT_GE(lo, 0);
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

TEST(DecodeFuzzTest, HostileCountsFailBeforeAllocation) {
  {
    // Roaring header claiming 65535 containers over a 1-byte payload.
    const std::string bytes = Hex("ffff0000" "00");
    const Result<RoaringBitmap> r = RoaringBitmap::Deserialize(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("count exceeds payload"),
              std::string::npos)
        << r.status().ToString();
  }
  {
    // Bsi header claiming 64 slices over 4 remaining bytes.
    const std::string bytes = Hex("40000000" "00000000");
    const Result<Bsi> r = Bsi::Deserialize(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("slice count exceeds payload"),
              std::string::npos)
        << r.status().ToString();
  }
  {
    // Container array claiming 70000 values (over the 65536 cap).
    const std::string bytes = Hex("00" "70110100");
    const uint8_t* cursor = reinterpret_cast<const uint8_t*>(bytes.data());
    const Result<Container> r =
        Container::Deserialize(&cursor, cursor + bytes.size());
    ASSERT_FALSE(r.ok());
  }
  {
    // Wire request claiming 2^30 strategy ids over an empty remainder.
    const Result<wire::WireQueryRequest> r =
        wire::DecodeQueryRequest(Hex("00000040"));
    ASSERT_FALSE(r.ok());
  }
  {
    // Wire response claiming 2^30 segment results over an empty remainder.
    const Result<wire::WireQueryResponse> r =
        wire::DecodeQueryResponse(Hex("00000040"));
    ASSERT_FALSE(r.ok());
  }
  {
    // Wire response with valid empty segments and stats, then a span count
    // of 2^32-1: rejected against the remaining bytes before resize.
    std::string payload;
    PutU32(&payload, 0);  // segments
    PutU32(&payload, 0);  // retries
    PutU32(&payload, 0);  // faults_survived
    PutU64(&payload, 0);  // bytes_from_cold
    PutU64(&payload, 0);  // hot_hits
    PutF64(&payload, 0);  // cpu_seconds
    PutU32(&payload, 0xffffffffu);  // hostile span count
    ASSERT_FALSE(wire::DecodeQueryResponse(payload).ok());
  }
  {
    // Wire error whose message claims 4 GiB: the string cap rejects it
    // before any allocation.
    ASSERT_FALSE(wire::DecodeError(Hex("01" "ffffffff")).ok());
  }
}

// ---------------------------------------------------------------------------
// Regression corpus: hand-crafted malformed blobs, every one of which must
// be rejected cleanly. Lines: "<decoder> <hex>  # comment", decoder one of
// container / roaring / bsi / envelope / queryrequest /
// queryresponse / wireerror / segmentfetch / segmentpush / statsfetch /
// statsreply / manifest.
// ---------------------------------------------------------------------------

TEST(DecodeFuzzTest, MalformedCorpusIsRejected) {
#ifdef EXPBSI_CORPUS_DIR
  std::ifstream in(std::string(EXPBSI_CORPUS_DIR) + "/malformed_blobs.txt");
  ASSERT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                         << "/malformed_blobs.txt";
  std::string line;
  int entries = 0;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string decoder, hex;
    if (!(ls >> decoder >> hex)) continue;
    ++entries;
    const std::string bytes = Hex(hex);
    const std::string ctx = "corpus entry " + decoder + " " + hex;
    if (decoder == "container") {
      const uint8_t* cursor = reinterpret_cast<const uint8_t*>(bytes.data());
      EXPECT_FALSE(Container::Deserialize(&cursor, cursor + bytes.size()).ok())
          << ctx;
    } else if (decoder == "roaring") {
      EXPECT_FALSE(RoaringBitmap::Deserialize(bytes).ok()) << ctx;
    } else if (decoder == "bsi") {
      EXPECT_FALSE(Bsi::Deserialize(bytes).ok()) << ctx;
    } else if (decoder == "envelope") {
      EXPECT_FALSE(wire::DecodeEnvelope(bytes).ok()) << ctx;
    } else if (decoder == "queryrequest") {
      EXPECT_FALSE(wire::DecodeQueryRequest(bytes).ok()) << ctx;
    } else if (decoder == "queryresponse") {
      EXPECT_FALSE(wire::DecodeQueryResponse(bytes).ok()) << ctx;
    } else if (decoder == "wireerror") {
      EXPECT_FALSE(wire::DecodeError(bytes).ok()) << ctx;
    } else if (decoder == "segmentfetch") {
      EXPECT_FALSE(wire::DecodeSegmentFetch(bytes).ok()) << ctx;
    } else if (decoder == "segmentpush") {
      EXPECT_FALSE(wire::DecodeSegmentPush(bytes).ok()) << ctx;
    } else if (decoder == "statsfetch") {
      EXPECT_FALSE(wire::DecodeStatsFetch(bytes).ok()) << ctx;
    } else if (decoder == "statsreply") {
      EXPECT_FALSE(wire::DecodeStatsReply(bytes).ok()) << ctx;
    } else if (decoder == "manifest") {
      // The hex is a manifest body for MANIFEST-0000000000000001; its CRC
      // is appended here so the entry reaches the check it names. Rejected
      // means the decode fails or some chain is marked lost.
      std::string sealed = bytes;
      PutU32(&sealed, Crc32c(sealed));
      const Result<SnapshotManifest> m = DecodeSnapshotManifest(sealed, 1);
      bool rejected = !m.ok();
      if (m.ok()) {
        for (const SnapshotChain& chain : m.value().chains) {
          rejected = rejected || !chain.error.empty();
        }
      }
      EXPECT_TRUE(rejected) << ctx;
    } else {
      ADD_FAILURE() << "unknown decoder in corpus: " << decoder;
    }
  }
  EXPECT_GE(entries, 10) << "malformed-blob corpus unexpectedly small";
#else
  GTEST_SKIP() << "corpus dir not configured";
#endif
}

}  // namespace
}  // namespace expbsi
