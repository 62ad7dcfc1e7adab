#include "harness.h"

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/cpu_features.h"
#include "obs/metrics.h"

namespace perfbench {

namespace fs = std::filesystem;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        std::fprintf(stderr, "perfbench: --scale is full or tiny\n");
        return false;
      }
      args->scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--corrupt-op") {
      args->corrupt_op = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|tiny] "
                 "[--corrupt-op <n>] [--work-dir <dir>]\n");
    return false;
  }
  return true;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

Samples PerOpQuantile(const std::vector<Samples>& per_op, double q) {
  Samples out;
  for (const Samples& s : per_op) {
    if (!s.empty()) out.Add(s.Quantile(q));
  }
  return out;
}

void ReportQueryLatency(const std::vector<Samples>& per_query,
                        const Samples& all, Report* report) {
  const Samples medians = PerOpQuantile(per_query, 0.5);
  const Samples fastest = PerOpQuantile(per_query, 0.0);
  report->EndToEnd("query_p50_ms", medians.Median(), "ms", medians.size());
  report->EndToEnd("query_p90_ms", medians.Quantile(0.9), "ms",
                   medians.size());
  report->Info("raw_query_p50_ms", all.Median(), "ms", all.size());
  report->Info("raw_query_p90_ms", all.Quantile(0.9), "ms", all.size());
  report->Info("raw_query_p99_ms", all.Quantile(0.99), "ms", all.size());
  report->Info("fastest_query_p50_ms", fastest.Median(), "ms",
               fastest.size());
  report->Info("fastest_query_p90_ms", fastest.Quantile(0.9), "ms",
               fastest.size());
}

double OverheadPct(const Samples& traced, const Samples& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return 100.0 * (traced.Median() - untraced.Median()) / untraced.Median();
}

void Report::Op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

uint32_t SpanLog::Add(const std::string& name, uint32_t parent,
                      uint64_t query, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.query = query;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"query\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.query),
                 s.name.c_str(), static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

void LayerLedger::Attribute(const std::string& layer, int64_t ns) {
  op_attributed_ += ns;
  for (auto& [name, total] : totals_) {
    if (name == layer) {
      total += ns;
      return;
    }
  }
  totals_.emplace_back(layer, ns);
}

void LayerLedger::EndOp(const std::string& bucket) {
  const int64_t rest = op_wall_ - op_attributed_;
  Attribute(bucket, rest);
}

int64_t LayerLedger::Total(const std::string& layer) const {
  for (const auto& [name, total] : totals_) {
    if (name == layer) return total;
  }
  return 0;
}

void LayerLedger::Print(const std::string& title) const {
  std::printf("-- per-layer self time: %s (%llu traced ops) --\n",
              title.c_str(), static_cast<unsigned long long>(ops_));
  int64_t sum = 0;
  for (const auto& [name, total] : totals_) {
    sum += total;
    std::printf("  %-28s %12.3f ms total  %10.1f us/op  %6.1f%%\n",
                name.c_str(), total / 1e6,
                ops_ == 0 ? 0.0 : total / 1e3 / static_cast<double>(ops_),
                wall_ns_ == 0 ? 0.0 : 100.0 * total / wall_ns_);
  }
  std::printf("  %-28s %12.3f ms total (traced wall %.3f ms)\n",
              "layers + unattributed", sum / 1e6, wall_ns_ / 1e6);
}

uint64_t CounterValue(const char* name) {
  return expbsi::obs::GetCounter(name).Value();
}

KernelCounts KernelCounts::Now() {
  KernelCounts now;
  now.compare_passes = CounterValue("kernel.compare_word_passes");
  now.range_passes = CounterValue("kernel.range_word_passes");
  now.csa_words = CounterValue("kernel.csa_words_processed");
  return now;
}

void KernelCounts::AddSince(const KernelCounts& start) {
  const KernelCounts now = Now();
  compare_passes += now.compare_passes - start.compare_passes;
  range_passes += now.range_passes - start.range_passes;
  csa_words += now.csa_words - start.csa_words;
}

void KernelCounts::ReportPerQuery(uint64_t queries, Report* report) const {
  const double per = queries == 0 ? 0.0 : 1.0 / queries;
  report->Layer("kernel.compare_word_passes_per_query", compare_passes * per,
                "count", queries);
  report->Layer("kernel.range_word_passes_per_query", range_passes * per,
                "count", queries);
  report->Layer("kernel.csa_words_per_query", csa_words * per, "count",
                queries);
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks CpuTicks::Now() {
  CpuTicks now;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int column = 1; column <= 8; ++column) {
    uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    now.total += ticks;
    if (column == 8) now.steal = ticks;
  }
  return now;
}

bool ProgramMemory::Start() {
  malloc_trim(0);
  base_mb_ = ProcStatusMb("VmRSS");
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void PrintHeader(const Args& args, const std::string& flush_policy) {
  std::printf("== perfbench: workload %s, seed %llu, %.1f s, %s run, "
              "%s scale ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced" : "untraced",
              args.scale == Scale::kTiny ? "tiny" : "full");
  std::printf("machine: cpu \"%s\", nproc %ld, simd %s\n", CpuModel().c_str(),
              sysconf(_SC_NPROCESSORS_ONLN),
              expbsi::SimdTierName(expbsi::ActiveSimdTier()));
#ifdef EXPBSI_NO_METRICS
  const char* metrics = "compiled out (EXPBSI_NO_METRICS set; counter-based "
                        "layer metrics read 0)";
#else
  const char* metrics = "on (EXPBSI_NO_METRICS not set)";
#endif
  std::printf("build: compiler %s, build type %s, metrics registry %s\n",
              __VERSION__, PERFBENCH_BUILD_TYPE, metrics);
  std::printf("flush policy: %s\n", flush_policy.c_str());
}

bool ResetDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return false;
  fs::create_directories(path, ec);
  return !ec;
}

bool CopyDirFiles(const std::string& from, const std::string& to) {
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(from, ec)) {
    if (!e.is_regular_file()) continue;
    fs::copy_file(e.path(), fs::path(to) / e.path().filename(),
                  fs::copy_options::overwrite_existing, ec);
    if (ec) return false;
  }
  return !ec;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace perfbench
