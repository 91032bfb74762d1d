#pragma once
// Shared pieces of the performance ledger: run options, the metric report
// and its JSON result line, order statistics, the in-memory span recorder of
// traced runs, and small filesystem/process helpers.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // sizes the measured work (see README.md "Run length")
  bool trace = false;     // per-layer metrics instead of end-to-end ones
  bool smoke = false;     // shrunken inputs, for the self-test
  bool perturb = false;   // perturb each reference: every gate must trip
  std::string work_dir;   // private scratch root (JIT cache, durable roots)
  std::string trace_out;  // where a traced run writes its spans
};

// End-to-end metric names (untraced run) and per-layer metric names (traced
// run), with units. BENCHMARK.json lists the same names; selftest.py checks
// that the two agree.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// Collects a run's metrics, operations and failures, and prints the result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double value(const std::string& name) const;
  // One operation (a solve per strategy, or a job). `ok == false` counts it
  // as failed and records why.
  void operation(bool ok, const std::string& what);
  // A failed correctness gate that is not tied to one operation.
  void fail(const std::string& what);

  bool correct() const { return failures_.empty(); }
  // Prints every metric as a human-readable line, then the JSON result line
  // with exactly the names the mode calls for. Returns the exit code.
  int finish(const Options& opt);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- statistics ---------------------------------------------------------
double percentile(std::vector<double> v, double p);  // linear interpolation
double median(std::vector<double> v);
// Tracing overhead in % from runs whose odd samples were traced and even ones
// not: the summed medians of the odd samples over those of the even ones.
double alternating_overhead_pct(const std::vector<const std::vector<double>*>& runs);

// ---- tracing --------------------------------------------------------------
// Spans recorded around the calls the benchmark makes into each layer. A span
// always measures its own duration (the ledger uses it as its timer); it is
// recorded only while tracing is enabled. Spans nest per thread; all spans of
// one solve or one job carry the same operation id.
struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t op = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int64_t new_op();
  int64_t open(int64_t op, int64_t* parent, int64_t* op_out);
  void close(int64_t id, int64_t parent, int64_t op, const std::string& name, double start_s,
             double end_s);
  double now_s() const;
  // Writes the spans as Chrome-trace JSON and prints per-name total and self
  // time (duration minus the time covered by child spans).
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  int64_t next_id_ = 0;
  int64_t next_op_ = 0;
};

class Span {
 public:
  explicit Span(std::string name, int64_t op = -1);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  std::string name_;
  int64_t id_ = -1, parent_ = -1, op_ = -1;
  Clock::time_point t0_;
  double start_s_ = 0.0;
  double seconds_ = -1.0;
};

// ---- environment ----------------------------------------------------------
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);
int64_t tree_bytes(const std::string& path);
double peak_rss_mb();
// Prints '# digest <label> <hex>' over the bits of `v` (same seed, same digest).
void print_digest(const std::string& label, const std::vector<double>& v);
std::string digest_of(const std::vector<double>& v);
// Prints the machine/toolchain fingerprint as '# ' comment lines.
void print_fingerprint(const Options& opt);

// Workloads: each fills `report` and returns normally; gates go through
// Report::operation / Report::fail.
void run_solve_native(const Options& opt, Report& report);
void run_partitioned(const Options& opt, Report& report);
void run_service_batch(const Options& opt, Report& report);

}  // namespace ledger
