// Shared plumbing of the repository benchmark (perfbench/README.md): command
// line, sample statistics, the metric report, the in-memory span log of the
// traced mode, /proc readers and the machine/run header.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Tiny = the self-test scale: same code paths, seconds-long runs.
enum class Scale { kFull, kTiny };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  // Self-test hook: corrupt the N-th answer compared with the oracle
  // (1-based; 0 = off) before the comparison.
  uint64_t corrupt_op = 0;
  // Where fixtures, WAL directories and span dumps go.
  std::string work_dir = ".bench_build/work";
};

// Parses argv; returns false (after printing why) on a bad command line.
bool ParseArgs(int argc, char** argv, Args* args);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Latency samples of one kind.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

// One value per op of a repeated mix: the q-quantile of that op's
// repetitions (0.5 = its median, 0 = its fastest). Latency quantiles are
// taken over the per-op medians.
Samples PerOpQuantile(const std::vector<Samples>& per_op, double q);

// trace.overhead_pct: the traced half's median against the untraced half's
// (0 when either half is empty).
double OverheadPct(const Samples& traced, const Samples& untraced);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// Everything a workload hands back to main: gated end-to-end metrics,
// per-layer metrics of the traced mode, informational figures (printed,
// never gated) and the op accounting behind `failed_op_frac`.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions

  void EndToEnd(const std::string& name, double value, const std::string& unit,
                uint64_t samples) {
    end_to_end.push_back({name, value, unit, samples});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples) {
    per_layer.push_back({name, value, unit, samples});
  }
  void Info(const std::string& name, double value, const std::string& unit,
            uint64_t samples) {
    info.push_back({name, value, unit, samples});
  }
  // One checked op; `ok` false counts it failed and keeps `why`.
  void Op(bool ok, const std::string& why = "");
  // Called once per answer compared with the oracle; true for the answer
  // Args::corrupt_op names, which the caller then corrupts.
  bool CorruptThis(uint64_t corrupt_op) {
    return corrupt_op != 0 && ++answers == corrupt_op;
  }
  uint64_t answers = 0;
};

// query_p50_ms and query_p90_ms over the per-query medians of
// `per_query` (each query of a repeated mix, every execution timed), plus
// info lines: the same quantiles over every single execution in `all`
// (p99 too) and over each query's fastest repetition.
void ReportQueryLatency(const std::vector<Samples>& per_query,
                        const Samples& all, Report* report);

// Spans of the traced mode, kept in memory and written out when the run
// ends: (name, start, end, parent, query id). Kernel-level calls that run
// thousands of times per query are folded into one span per (parent,
// layer) whose length is the summed call time.
class SpanLog {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    uint64_t query = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  uint32_t Add(const std::string& name, uint32_t parent, uint64_t query,
               int64_t start_ns, int64_t end_ns);
  size_t size() const { return spans_.size(); }
  // One JSON object per line, times relative to the first span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Per-layer self time of the traced ops: the layer times plus the explicit
// unattributed bucket add up to the traced wall time by construction.
class LayerLedger {
 public:
  // Starts one traced op of `wall_ns`; then Attribute() its layers.
  void BeginOp(int64_t wall_ns) {
    wall_ns_ += wall_ns;
    op_attributed_ = 0;
    op_wall_ = wall_ns;
    ++ops_;
  }
  void Attribute(const std::string& layer, int64_t ns);
  // Closes the op: whatever the layers did not cover goes to `bucket`
  // (negative when a replayed layer ran slower than the op itself).
  void EndOp(const std::string& bucket);
  // Total self time of `layer` in ns (0 when never attributed).
  int64_t Total(const std::string& layer) const;
  // Prints the table; its rows sum to the traced wall time.
  void Print(const std::string& title) const;

 private:
  std::vector<std::pair<std::string, int64_t>> totals_;
  int64_t wall_ns_ = 0;
  int64_t op_wall_ = 0;
  int64_t op_attributed_ = 0;
  uint64_t ops_ = 0;
};

// A metrics-registry counter (always 0 under EXPBSI_NO_METRICS).
uint64_t CounterValue(const char* name);

// The registry counters behind the kernel.* layer metrics.
struct KernelCounts {
  uint64_t compare_passes = 0;  // kernel.compare_word_passes
  uint64_t range_passes = 0;    // kernel.range_word_passes
  uint64_t csa_words = 0;       // kernel.csa_words_processed

  static KernelCounts Now();
  // Adds the counts since `start` (a Now() taken before the call).
  void AddSince(const KernelCounts& start);
  // The kernel.*_per_query layer metrics over `queries` queries.
  void ReportPerQuery(uint64_t queries, Report* report) const;
};

// /proc/self/status fields, in MiB (VmHWM = peak RSS, VmSize = mappings).
double ProcStatusMb(const char* field);

// Jiffies of all CPUs since boot (/proc/stat): the steal column -- time
// the hypervisor gave this VM's vCPUs to other guests -- and the total.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
  static CpuTicks Now();
};

// peak_rss_mb: the memory the program adds on top of the benchmark's own
// fixtures and oracle data, over the last set-up and the timed phase.
// Start(), called once the fixtures stand and the earlier set-ups are
// freed, hands freed memory back to the kernel (so neither fixture
// garbage nor an earlier set-up's counts), reads VmRSS and resets the VmHWM
// high-water mark (writes 5 to /proc/self/clear_refs); PeakMb() is VmHWM
// since then minus that RSS.
class ProgramMemory {
 public:
  // False when the high-water mark cannot be reset.
  bool Start();
  double PeakMb() const { return ProcStatusMb("VmHWM") - base_mb_; }

 private:
  double base_mb_ = 0;
};

// Prints the machine and run header (CPU, nproc, SIMD tier, compiler,
// build type, metrics registry state, seed, flush policy).
void PrintHeader(const Args& args, const std::string& flush_policy);

// Recursively removes `path` (no-op when absent) and recreates it empty.
bool ResetDir(const std::string& path);
// Copies every regular file of `from` into the (existing) dir `to`.
bool CopyDirFiles(const std::string& from, const std::string& to);
// Summed size of the regular files in `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
