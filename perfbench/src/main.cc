// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload <scorecard_serve|adhoc_eql|ingest_mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a machine/run header, every metric it measured by name with unit
// and sample count, and as its last line one JSON object: the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) of this
// workload. perfbench/run.py checks them against BENCHMARK.json and adds
// the layers the workload never enters. Exits 1 when any op failed or
// disagreed with the reference oracle, 2 on a set-up error (no JSON then).

#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

namespace {

void PrintMetric(const char* kind, const Metric& m) {
  std::printf("%-6s %-38s %16.6f %-6s n=%llu\n", kind, m.name.c_str(),
              m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

void AppendJson(const Metric& m, bool first, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  *out += buf;
}

// The flush policy each workload runs under, printed in the header.
const char* FlushPolicy(const std::string& workload) {
  if (workload == "ingest_mixed") {
    return "WAL records written without per-record fsync "
           "(WalOptions sync_each_append=0, group_commit=0, 4 MiB "
           "segments); 512-event batches; checkpoint snapshots fsync'd";
  }
  if (workload == "scorecard_serve") {
    return "no WAL; snapshot written once by the fixture (fsync'd)";
  }
  return "no WAL, no disk I/O in the timed phase";
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  bool (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "scorecard_serve") run = RunScorecardServe;
  if (args.workload == "adhoc_eql") run = RunAdhocEql;
  if (args.workload == "ingest_mixed") run = RunIngestMixed;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PrintHeader(args, FlushPolicy(args.workload));
  std::fflush(stdout);

  Report report;
  const CpuTicks ticks0 = CpuTicks::Now();
  if (!run(args, &report) || report.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s set-up failed\n",
                 args.workload.c_str());
    return 2;
  }
  // The host's CPU steal over the run: scorecard_serve's figures follow it
  // (README "Run-to-run spread"), so runs compare only at similar steal.
  const CpuTicks ticks1 = CpuTicks::Now();
  const uint64_t ticks = ticks1.total - ticks0.total;
  report.Info("host_steal_pct",
              ticks == 0 ? 0.0
                         : 100.0 * (ticks1.steal - ticks0.steal) / ticks,
              "%", 1);
  const double failed_frac =
      static_cast<double>(report.failed) / report.attempted;
  report.Layer("failed_op_frac", failed_frac, "ratio", report.attempted);

  std::printf("-- metrics (%s run) --\n", args.trace ? "traced" : "untraced");
  for (const Metric& m : report.end_to_end) PrintMetric("e2e", m);
  for (const Metric& m : report.per_layer) PrintMetric("layer", m);
  for (const Metric& m : report.info) PrintMetric("info", m);
  std::printf("ops: %llu attempted, %llu failed or oracle-mismatched "
              "(failed_op_frac %.6f)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), failed_frac);
  for (const std::string& why : report.failures) {
    std::printf("FAILED: %s\n", why.c_str());
  }

  std::string metrics;
  bool first = true;
  for (const Metric& m : args.trace ? report.per_layer : report.end_to_end) {
    AppendJson(m, first, &metrics);
    first = false;
  }
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
