// adhoc_eql: the deep-dive path (paper §4.4). One client thread runs a
// closed loop of RunQuery calls over an in-memory ExperimentBsiData, cycling
// through a fixed seeded mix of the four EQL classes (eql_mix.h). It never
// touches net, wire, TieredStore or wal, so it is the "no change expected"
// control for serving and ingest work.
//
// Traced mode times ParseQuery and ExecuteQuery separately per query, plus
// the kernel counter deltas of each execution (EqlLayers).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"
#include "query/executor.h"
#include "reference/ref_data.h"
#include "reference/ref_query.h"
#include "eql_mix.h"
#include "workloads.h"

namespace perfbench {

namespace {

using expbsi::Result;

constexpr int kDays = 7;

struct AdhocScale {
  uint64_t users;
  int segments;
  int mix_units;  // MakeEqlMix units: 6 queries each
  int setups;
};

AdhocScale ScaleOf(Scale scale) {
  if (scale == Scale::kTiny) return {2000, 4, 1, 2};
  return {60000, 8, 48, 15};
}

}  // namespace

bool RunAdhocEql(const Args& args, Report* report) {
  const AdhocScale scale = ScaleOf(args.scale);
  EqlSchema schema;
  const expbsi::Dataset dataset =
      MakeEqlDataset(scale.users, scale.segments, kDays, args.seed, &schema);

  // ---- oracle answers (untimed): every query text of the mix ------------
  const std::vector<EqlQuery> mix =
      MakeEqlMix(schema, kDays - 1, scale.mix_units, args.seed);
  std::vector<expbsi::QueryResult> expected(mix.size());
  {
    const expbsi::RefExperimentData ref =
        expbsi::BuildRefExperimentData(dataset);
    for (size_t i = 0; i < mix.size(); ++i) {
      Result<expbsi::QueryResult> want = expbsi::RefRunQuery(ref, mix[i].text);
      if (!want.ok()) {
        std::fprintf(stderr, "adhoc: oracle rejects [%s]: %s\n",
                     mix[i].text.c_str(), want.status().ToString().c_str());
        return false;
      }
      expected[i] = std::move(want).value();
    }
  }

  // ---- setup (timed, repeated): BuildExperimentBsiData from the logs -----
  Samples setup_s;
  std::unique_ptr<expbsi::ExperimentBsiData> data;
  ProgramMemory memory;
  for (int i = 0; i < scale.setups; ++i) {
    data.reset();
    if (i + 1 == scale.setups && !memory.Start()) return false;
    expbsi::Stopwatch setup;
    data = std::make_unique<expbsi::ExperimentBsiData>(
        expbsi::BuildExperimentBsiData(dataset, true));
    setup_s.Add(setup.ElapsedSeconds());
  }
  for (size_t i = 0; i < mix.size(); ++i) {
    Result<expbsi::QueryResult> got = expbsi::RunQuery(*data, mix[i].text);
    if (report->CorruptThis(args.corrupt_op) && got.ok()) {
      CorruptResult(&got.value());
    }
    report->Op(got.ok() && SameResult(got.value(), expected[i]),
               "adhoc differs from RefRunQuery: " + mix[i].text);
  }
  std::printf("fixture: %llu users, %d segments, %d days, 4 metrics, "
              "2 dimensions; mix of %zu queries\n",
              static_cast<unsigned long long>(scale.users), scale.segments,
              kDays, mix.size());

  // Warm-up: one untimed pass, so allocator and cache state settle.
  for (const EqlQuery& q : mix) {
    if (!expbsi::RunQuery(*data, q.text).ok()) return false;
  }

  // ---- timed phase: the mix cycles, each text runs many times -------------
  std::vector<Samples> untraced_per(mix.size()), traced_per(mix.size());
  Samples untraced_ms, traced_ms;
  EqlLayers layers;
  LayerLedger ledger;
  SpanLog spans;
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  expbsi::Stopwatch phase;
  size_t executed = 0;
  while (phase.ElapsedSeconds() < args.seconds) {
    const size_t i = executed++ % mix.size();
    const bool decompose =
        args.trace && phase.ElapsedSeconds() >= untraced_seconds;
    Result<expbsi::QueryResult> got = expbsi::Status::Unavailable("not run");
    double ms = 0;
    if (decompose) {
      got = layers.Run(*data, mix[i], "adhoc.query", executed, &ledger,
                       &spans, &ms);
    } else {
      const int64_t t0 = NowNs();
      got = expbsi::RunQuery(*data, mix[i].text);
      ms = (NowNs() - t0) / 1e6;
    }
    (decompose ? traced_ms : untraced_ms).Add(ms);
    (decompose ? traced_per : untraced_per)[i].Add(ms);
    if (report->CorruptThis(args.corrupt_op) && got.ok()) {
      CorruptResult(&got.value());
    }
    report->Op(got.ok() && SameResult(got.value(), expected[i]),
               "adhoc differs from RefRunQuery: " + mix[i].text);
  }

  report->EndToEnd("peak_rss_mb", memory.PeakMb(), "MB", 1);
  const Samples& raw = args.trace ? traced_ms : untraced_ms;
  report->EndToEnd("setup_s", setup_s.Median(), "s", setup_s.size());
  ReportQueryLatency(args.trace ? traced_per : untraced_per, raw, report);
  report->EndToEnd("ops_per_s", raw.size() / (raw.Sum() / 1e3), "1/s",
                   raw.size());
  report->Layer("expdata.bsi_build_s", setup_s.Median(), "s", setup_s.size());
  if (!args.trace) return true;

  layers.ReportLayers(ledger, report);
  report->Layer("trace.overhead_pct",
                OverheadPct(PerOpQuantile(traced_per, 0.5),
                            PerOpQuantile(untraced_per, 0.5)),
                "%", traced_ms.size());
  ledger.Print("adhoc_eql");
  const std::string dir = args.work_dir + "/adhoc_eql";
  if (ResetDir(dir) && spans.WriteJsonLines(dir + "/spans.jsonl")) {
    std::printf("spans: %zu written to %s/spans.jsonl\n", spans.size(),
                dir.c_str());
  }
  return true;
}

}  // namespace perfbench
