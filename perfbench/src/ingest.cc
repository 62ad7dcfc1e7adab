// ingest_mixed: the streaming write path (DESIGN.md §8) with reads beside
// it, on one thread. IngestStore::Ingest takes a fixed number of 512-event
// batches (WAL records written without per-record fsync, see Options());
// every 16 batches one EQL read from the adhoc classes runs on
// store.data(), and every 200 batches IngestStore::Checkpoint() writes an
// fsync'd snapshot. There is no concurrent reader.
//
// The event stream is date-ordered, so when the next event to ingest is
// dated d every day before d is complete. Reads query the last two complete
// days: they run on freshly merged BSIs, their cost does not grow with how
// far ingest got, and over those days the events ingested so far and the
// generated logs agree, so the oracle over the logs is the oracle over the
// ingested prefix.
//
// Traced mode replays each batch's layers after the real Ingest call:
// WalWriter::Append of the same batch under the same options into a sibling
// directory, DeltaBuilder::Add per event and DeltaBuilder::MergeInto a
// mirror copy of the live data. Ingest wall time minus those three is
// ingest.unattributed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "engine/experiment_data.h"
#include "query/executor.h"
#include "reference/ref_data.h"
#include "reference/ref_query.h"
#include "storage/snapshot.h"
#include "wal/delta_builder.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "wal/wal.h"
#include "eql_mix.h"
#include "workloads.h"

namespace perfbench {

namespace {

using expbsi::Date;
using expbsi::IngestStore;
using expbsi::Result;
using expbsi::WalEvent;

constexpr size_t kBatchEvents = 512;
constexpr size_t kFixtureChunk = 8192;

struct IngestScale {
  uint64_t users;
  int segments;
  int days;
  int base_days;  // days inside the fixture snapshot
  int mix_units;  // read-mix units per day (MakeEqlMix: 6 queries each)
  int tail_batches;  // WAL records past the fixture snapshot
  // The timed phase ingests a fixed number of batches, this many per
  // --seconds, so every run does the same work: the same prefix, reads and
  // checkpoint sizes (a checkpoint writes the whole store, so later ones
  // cost more).
  uint64_t batches_per_second;
  uint64_t read_every;        // batches per interleaved read
  uint64_t checkpoint_every;  // batches per checkpoint
  int setups;
};

IngestScale ScaleOf(Scale scale) {
  if (scale == Scale::kTiny) return {1500, 2, 5, 1, 1, 4, 40, 4, 16, 2};
  return {40000, 4, 36, 2, 6, 64, 850, 16, 200, 31};
}

expbsi::IngestOptions Options(int segments) {
  expbsi::IngestOptions options;
  // Records are framed, checksummed and written but not fsync'd one by one:
  // on a shared disk fsync latency swings several-fold within seconds, and
  // with one fsync per 512-event batch ingest throughput measured the
  // neighbours' disk load (10-run spread 59%). Checkpoints still fsync.
  options.wal.sync_each_append = false;
  options.num_segments = segments;
  options.bucket_equals_segment = true;
  return options;
}

std::vector<WalEvent> Slice(const std::vector<WalEvent>& stream, size_t at,
                            size_t n) {
  const size_t end = std::min(stream.size(), at + n);
  return std::vector<WalEvent>(stream.begin() + at, stream.begin() + end);
}

// Read queries and their oracle answers, per last complete day. Every read
// of a run is looked up before the timed phase; the entries stay put.
class ReadMixes {
 public:
  ReadMixes(const EqlSchema& schema, const expbsi::RefExperimentData* ref,
            int mix_units, uint64_t seed)
      : schema_(schema), ref_(ref), mix_units_(mix_units), seed_(seed) {}

  // Mix slots per day. The mix seed is the same every day, so slot i has
  // the same class, shape and constants on every day: its runs over the
  // phase are repetitions of one read.
  size_t slots() const { return 6 * static_cast<size_t>(mix_units_); }

  // The n-th read with `last_day` complete; false if the oracle rejects it.
  bool Get(Date last_day, uint64_t n, const EqlQuery** query,
           const expbsi::QueryResult** expected) {
    auto [it, fresh] = mixes_.try_emplace(last_day);
    if (fresh) {
      EqlSchema window = schema_;
      window.first_day = last_day == 0 ? 0 : last_day - 1;
      it->second.queries =
          MakeEqlMix(window, last_day, mix_units_, seed_);
      it->second.expected.resize(it->second.queries.size());
      it->second.known.assign(it->second.queries.size(), false);
    }
    Mix& mix = it->second;
    const size_t i = n % mix.queries.size();
    if (!mix.known[i]) {
      Result<expbsi::QueryResult> want =
          expbsi::RefRunQuery(*ref_, mix.queries[i].text);
      if (!want.ok()) {
        std::fprintf(stderr, "ingest: oracle rejects [%s]: %s\n",
                     mix.queries[i].text.c_str(),
                     want.status().ToString().c_str());
        return false;
      }
      mix.expected[i] = std::move(want).value();
      mix.known[i] = true;
    }
    *query = &mix.queries[i];
    *expected = &mix.expected[i];
    return true;
  }

 private:
  struct Mix {
    std::vector<EqlQuery> queries;
    std::vector<expbsi::QueryResult> expected;
    std::vector<bool> known;
  };
  EqlSchema schema_;
  const expbsi::RefExperimentData* ref_;
  int mix_units_;
  uint64_t seed_;
  std::map<Date, Mix> mixes_;
};

// Per-layer accumulators of the traced half.
struct IngestTrace {
  std::unique_ptr<expbsi::ExperimentBsiData> mirror;
  std::unique_ptr<expbsi::WalWriter> sibling;
  LayerLedger ledger;
  SpanLog spans;
  Samples append_us, delta_us, merge_us, checkpoint_ms;
  EqlLayers reads;
  uint64_t batches = 0, events = 0, fsyncs = 0, append_bytes = 0;
  uint64_t op_id = 0;
};

bool OpenStore(const std::string& wal, const std::string& snap,
               const expbsi::IngestOptions& options,
               std::unique_ptr<IngestStore>* store) {
  Result<std::unique_ptr<IngestStore>> opened =
      IngestStore::Open(wal, snap, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "ingest: open failed: %s\n",
                 opened.status().ToString().c_str());
    return false;
  }
  *store = std::move(opened).value();
  return true;
}

}  // namespace

bool RunIngestMixed(const Args& args, Report* report) {
  const IngestScale scale = ScaleOf(args.scale);
  const std::string dir = args.work_dir + "/ingest_mixed";
  const std::string fixture_wal = dir + "/fixture/wal";
  const std::string fixture_snap = dir + "/fixture/snapshot";
  const std::string live_wal = dir + "/live/wal";
  const std::string live_snap = dir + "/live/snapshot";
  const std::string sibling_wal = dir + "/live/wal_sibling";
  if (!ResetDir(dir) || !ResetDir(fixture_wal) || !ResetDir(fixture_snap)) {
    return false;
  }
  const expbsi::IngestOptions options = Options(scale.segments);

  EqlSchema schema;
  std::vector<WalEvent> stream;
  std::unique_ptr<expbsi::RefExperimentData> ref;
  {
    const expbsi::Dataset dataset = MakeEqlDataset(
        scale.users, scale.segments, scale.days, args.seed, &schema);
    stream = expbsi::MakeWalEventStream(dataset);
    ref = std::make_unique<expbsi::RefExperimentData>(
        expbsi::BuildRefExperimentData(dataset));
  }

  // ---- fixture (untimed): snapshot of the first days plus a WAL tail ----
  size_t cursor = 0;
  while (cursor < stream.size() &&
         stream[cursor].date < static_cast<Date>(scale.base_days)) {
    ++cursor;
  }
  uint64_t fixture_seq = 0;
  {
    std::unique_ptr<IngestStore> store;
    if (!OpenStore(fixture_wal, fixture_snap, options, &store)) return false;
    for (size_t at = 0; at < cursor; at += kFixtureChunk) {
      if (!store->Ingest(Slice(stream, at, std::min(kFixtureChunk,
                                                     cursor - at)))
               .ok()) {
        return false;
      }
    }
    if (!store->Checkpoint().ok()) return false;
    for (int b = 0; b < scale.tail_batches && cursor < stream.size(); ++b) {
      if (!store->Ingest(Slice(stream, cursor, kBatchEvents)).ok()) {
        return false;
      }
      cursor = std::min(stream.size(), cursor + kBatchEvents);
    }
    fixture_seq = store->last_sequence();
  }
  const uint64_t snapshot_bytes = DirBytes(fixture_snap);
  double recover_s = 0, replay_s = 0;
  {
    expbsi::Stopwatch watch;
    expbsi::RecoveryReport rr;
    const bool recovered =
        expbsi::SnapshotReader::Recover(fixture_snap, &rr).ok();
    recover_s = watch.ElapsedSeconds();
    watch.Reset();
    expbsi::WalRecoveryReport wr;
    const bool replayed = expbsi::ReplayWal(fixture_wal, &wr).ok();
    replay_s = watch.ElapsedSeconds();
    if (!recovered || !replayed) return false;
  }

  // ---- the timed phase's reads and their oracle answers (untimed) --------
  // Each batch ingests the next kBatchEvents events; read n runs after
  // batch (n + 1) * read_every and queries the last day the events ingested
  // so far complete.
  struct PlannedRead {
    const EqlQuery* query;
    const expbsi::QueryResult* expected;
  };
  const uint64_t total_batches = static_cast<uint64_t>(
      scale.batches_per_second * args.seconds + 0.5);
  ReadMixes reads(schema, ref.get(), scale.mix_units, args.seed);
  std::vector<PlannedRead> planned;
  for (uint64_t b = 1, at = cursor; b <= total_batches && at < stream.size();
       ++b) {
    at = std::min<uint64_t>(stream.size(), at + kBatchEvents);
    if (b % scale.read_every != 0) continue;
    const Date next_day =
        at < stream.size() ? stream[at].date : static_cast<Date>(scale.days);
    PlannedRead read{};
    if (!reads.Get(next_day - 1, planned.size(), &read.query,
                   &read.expected)) {
      return false;
    }
    planned.push_back(read);
  }
  ref.reset();

  // ---- setup (timed, repeated): Open over the snapshot + WAL tail -------
  Samples setup_s;
  std::unique_ptr<IngestStore> store;
  ProgramMemory memory;
  for (int i = 0; i < scale.setups; ++i) {
    store.reset();
    if (i + 1 == scale.setups && !memory.Start()) return false;
    if (!ResetDir(live_wal) || !ResetDir(live_snap) ||
        !CopyDirFiles(fixture_wal, live_wal) ||
        !CopyDirFiles(fixture_snap, live_snap)) {
      return false;
    }
    expbsi::Stopwatch setup;
    if (!OpenStore(live_wal, live_snap, options, &store)) return false;
    setup_s.Add(setup.ElapsedSeconds());
    // Durability: recovery reaches the fixture's last acked sequence.
    report->Op(store->last_sequence() == fixture_seq,
               "ingest: reopened store is behind the acked sequence");
  }
  std::printf("fixture: %llu users, %d segments, %d days, %zu events; "
              "snapshot of days < %d (%.1f MB) + %d-batch WAL tail; "
              "%zu events left; the timed phase ingests %llu batches\n",
              static_cast<unsigned long long>(scale.users), scale.segments,
              scale.days, stream.size(), scale.base_days,
              snapshot_bytes / 1e6, scale.tail_batches, stream.size() - cursor,
              static_cast<unsigned long long>(total_batches));

  // ---- timed phase --------------------------------------------------------
  IngestTrace trace;
  Samples ack_ms, untraced_ack_ms, traced_ack_ms, read_ms, checkpoint_ms;
  std::vector<Samples> read_per(reads.slots());
  double op_seconds = 0;  // Ingest, read and Checkpoint calls
  uint64_t batches = 0, events = 0, read_count = 0;
  // A run that takes this long stops early (and says so); it then did less
  // work than the fixed count.
  const double ceiling_seconds = 6 * args.seconds;
  expbsi::Stopwatch phase;
  while (batches < total_batches && cursor < stream.size() &&
         phase.ElapsedSeconds() < ceiling_seconds) {
    // A traced run decomposes its second half of the batches.
    const bool decompose = args.trace && batches >= total_batches / 2;
    if (decompose && trace.mirror == nullptr) {
      trace.mirror =
          std::make_unique<expbsi::ExperimentBsiData>(store->data());
      if (!ResetDir(sibling_wal)) return false;
      Result<std::unique_ptr<expbsi::WalWriter>> sibling =
          expbsi::WalWriter::Open(sibling_wal, options.wal);
      if (!sibling.ok()) return false;
      trace.sibling = std::move(sibling).value();
    }
    const std::vector<WalEvent> batch = Slice(stream, cursor, kBatchEvents);
    cursor += batch.size();
    const uint64_t fsync0 = store->wal().fsyncs_performed();
    const uint64_t bytes0 = CounterValue("wal.append_bytes");
    const int64_t t0 = NowNs();
    const bool ingested = store->Ingest(batch).ok();
    const int64_t t1 = NowNs();
    report->Op(ingested, "ingest: Ingest failed");
    ack_ms.Add((t1 - t0) / 1e6);
    if (!decompose) untraced_ack_ms.Add((t1 - t0) / 1e6);
    op_seconds += (t1 - t0) / 1e9;
    ++batches;
    events += batch.size();
    if (decompose) {
      trace.fsyncs += store->wal().fsyncs_performed() - fsync0;
      trace.append_bytes += CounterValue("wal.append_bytes") - bytes0;
      const int64_t a0 = NowNs();
      const bool appended = trace.sibling->Append(batch).ok();
      const int64_t a1 = NowNs();
      expbsi::DeltaBuilder builder(options.num_segments, options.num_buckets,
                                   options.bucket_equals_segment);
      for (const WalEvent& e : batch) builder.Add(e);
      const int64_t a2 = NowNs();
      builder.MergeInto(trace.mirror.get());
      const int64_t a3 = NowNs();
      if (!appended) return false;
      traced_ack_ms.Add((t1 - t0) / 1e6);
      trace.append_us.Add((a1 - a0) / 1e3);
      trace.delta_us.Add((a2 - a1) / 1e3);
      trace.merge_us.Add((a3 - a2) / 1e3);
      ++trace.batches;
      trace.events += batch.size();
      trace.ledger.BeginOp(t1 - t0);
      trace.ledger.Attribute("wal.append", a1 - a0);
      trace.ledger.Attribute("wal.delta_build", a2 - a1);
      trace.ledger.Attribute("bsi.merge_into", a3 - a2);
      trace.ledger.EndOp("ingest.unattributed");
      const uint64_t id = ++trace.op_id;
      const uint32_t root = trace.spans.Add("ingest.batch", 0, id, t0, t1);
      trace.spans.Add("wal.append", root, id, a0, a1);
      trace.spans.Add("wal.delta_build", root, id, a1, a2);
      trace.spans.Add("bsi.merge_into", root, id, a2, a3);
    }

    if (batches % scale.read_every == 0) {
      const size_t slot = read_count % reads.slots();
      const EqlQuery* query = planned[read_count].query;
      const expbsi::QueryResult* expected = planned[read_count].expected;
      ++read_count;
      Result<expbsi::QueryResult> got = expbsi::Status::Unavailable("not run");
      double ms = 0;
      if (decompose) {
        got = trace.reads.Run(store->data(), *query, "ingest.read",
                              ++trace.op_id, &trace.ledger, &trace.spans, &ms);
      } else {
        const int64_t r0 = NowNs();
        got = expbsi::RunQuery(store->data(), query->text);
        ms = (NowNs() - r0) / 1e6;
      }
      read_ms.Add(ms);
      read_per[slot].Add(ms);
      op_seconds += ms / 1e3;
      if (report->CorruptThis(args.corrupt_op) && got.ok()) {
        CorruptResult(&got.value());
      }
      report->Op(got.ok() && SameResult(got.value(), *expected),
                 "ingest read differs from RefRunQuery: " + query->text);
    }

    if (batches % scale.checkpoint_every == 0) {
      const int64_t c0 = NowNs();
      report->Op(store->Checkpoint().ok(), "ingest: Checkpoint failed");
      const int64_t c1 = NowNs();
      checkpoint_ms.Add((c1 - c0) / 1e6);
      op_seconds += (c1 - c0) / 1e9;
      if (decompose) {
        trace.checkpoint_ms.Add((c1 - c0) / 1e6);
        trace.ledger.BeginOp(c1 - c0);
        trace.ledger.EndOp("storage.checkpoint");  // one layer: the whole op
        trace.spans.Add("storage.checkpoint", 0, ++trace.op_id, c0, c1);
      }
    }
  }
  report->EndToEnd("peak_rss_mb", memory.PeakMb(), "MB", 1);
  if (batches < total_batches) {
    std::printf("note: stopped after %llu of %llu batches (%s)\n",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(total_batches),
                cursor >= stream.size() ? "event stream exhausted"
                                        : "time ceiling reached");
  }

  // Durability after the run: a reopen reaches the final acked sequence.
  const uint64_t final_seq = store->last_sequence();
  store.reset();
  trace.sibling.reset();
  if (!OpenStore(live_wal, live_snap, options, &store)) return false;
  report->Op(store->last_sequence() == final_seq,
             "ingest: reopen after the run lost acked records");
  store.reset();

  report->EndToEnd("setup_s", setup_s.Median(), "s", setup_s.size());
  ReportQueryLatency(read_per, read_ms, report);
  // Whole timed phase: ingested events per second of Ingest, read and
  // Checkpoint time.
  report->EndToEnd("ops_per_s", events / op_seconds, "1/s", batches);
  report->Info("ingest_ack_p50_ms", ack_ms.Median(), "ms", ack_ms.size());
  report->Info("ingest_ack_p90_ms", ack_ms.Quantile(0.9), "ms",
               ack_ms.size());
  report->Info("ingest_ack_p99_ms", ack_ms.Quantile(0.99), "ms",
               ack_ms.size());
  report->Info("checkpoint_p50_ms", checkpoint_ms.Median(), "ms",
               checkpoint_ms.size());
  // Where ops_per_s's op time went.
  report->Info("ingest_total_s", ack_ms.Sum() / 1e3, "s", ack_ms.size());
  report->Info("read_total_s", read_ms.Sum() / 1e3, "s", read_ms.size());
  report->Info("checkpoint_total_s", checkpoint_ms.Sum() / 1e3, "s",
               checkpoint_ms.size());
  report->Info("events_ingested", static_cast<double>(events), "count",
               batches);
  report->Layer("storage.snapshot_recover_s", recover_s, "s", 1);
  report->Layer("storage.snapshot_bytes", static_cast<double>(snapshot_bytes),
                "count", 1);
  report->Layer("wal.replay_s", replay_s, "s", 1);
  report->Layer("ingest.ack_p50_ms", ack_ms.Median(), "ms", ack_ms.size());
  report->Layer("ingest.ack_p90_ms", ack_ms.Quantile(0.9), "ms",
                ack_ms.size());
  if (!args.trace) return true;

  const uint64_t nb = trace.batches;
  report->Layer("wal.append_us", trace.append_us.Mean(), "us", nb);
  report->Layer("wal.fsyncs_per_batch",
                nb == 0 ? 0.0 : static_cast<double>(trace.fsyncs) / nb,
                "count", nb);
  report->Layer("wal.bytes_per_event",
                trace.events == 0
                    ? 0.0
                    : static_cast<double>(trace.append_bytes) / trace.events,
                "count", nb);
  report->Layer("wal.delta_build_us", trace.delta_us.Mean(), "us", nb);
  report->Layer("bsi.merge_into_us", trace.merge_us.Mean(), "us", nb);
  report->Layer("storage.checkpoint_ms", trace.checkpoint_ms.Mean(), "ms",
                trace.checkpoint_ms.size());
  report->Layer("ingest.unattributed_us",
                nb == 0 ? 0.0
                        : trace.ledger.Total("ingest.unattributed") / 1e3 / nb,
                "us", nb);
  trace.reads.ReportLayers(trace.ledger, report);
  // Ingest acks of the two halves: the replay runs between acks, so this is
  // what the traced mode costs the op it decomposes.
  report->Layer("trace.overhead_pct",
                OverheadPct(traced_ack_ms, untraced_ack_ms), "%", nb);
  trace.ledger.Print("ingest_mixed");
  if (trace.spans.WriteJsonLines(dir + "/spans.jsonl")) {
    std::printf("spans: %zu written to %s/spans.jsonl\n", trace.spans.size(),
                dir.c_str());
  }
  return true;
}

}  // namespace perfbench
