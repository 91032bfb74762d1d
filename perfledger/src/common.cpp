#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "core/codegen/native_backend.hpp"
#include "runtime/checkpoint.hpp"

namespace fs = std::filesystem;

namespace ledger {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"},
      {"dof_steps_per_s", "DOF.step/s"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = {
      {"symbolic.front_end_ms", "ms"},
      {"codegen.bytecode_compile_ms", "ms"},
      {"codegen.native_emit_ms", "ms"},
      {"codegen.jit_cold_compile_s", "s"},
      {"codegen.jit_disk_hit_ms", "ms"},
      {"codegen.jit_mem_hit_us", "us"},
      {"codegen.problem_compile_ms", "ms"},
      {"codegen.first_step_s", "s"},
      {"codegen.native_sweep_ns_per_dof", "ns/DOF"},
      {"codegen.vm_sweep_ns_per_dof", "ns/DOF"},
      {"codegen.native_vs_vm", "ratio"},
      {"codegen.jit_fallbacks", "count"},
      {"codegen.jit_verify_mismatches", "count"},
      {"bte.temperature_us_per_cell", "us/cell"},
      {"bte.newton_us_per_call", "us"},
      {"bte.direct_sweep_ns_per_dof", "ns/DOF"},
      {"bte.native_vs_direct", "ratio"},
      {"bte.physics_build_ms", "ms"},
      {"bte.cell.step_ms_p50", "ms"},
      {"bte.cell.step_ms_p90", "ms"},
      {"bte.cell.build_ms", "ms"},
      {"bte.cell.resilience_overhead_pct", "%"},
      {"bte.cell.checkpoints", "count"},
      {"bte.cell.virtual_step_s", "s"},
      {"bte.band.step_ms_p50", "ms"},
      {"bte.band.step_ms_p90", "ms"},
      {"bte.band.build_ms", "ms"},
      {"bte.band.resilience_overhead_pct", "%"},
      {"bte.band.checkpoints", "count"},
      {"bte.band.virtual_step_s", "s"},
      {"bte.mgpu.step_ms_p50", "ms"},
      {"bte.mgpu.step_ms_p90", "ms"},
      {"bte.mgpu.build_ms", "ms"},
      {"bte.mgpu.resilience_overhead_pct", "%"},
      {"bte.mgpu.checkpoints", "count"},
      {"bte.mgpu.virtual_step_s", "s"},
      {"runtime.halo_bytes_per_step", "B"},
      {"runtime.halo_messages_per_step", "count"},
      {"runtime.band_gather_bytes_per_step", "B"},
      {"runtime.gpu_bytes_moved_per_step", "B"},
      {"runtime.gpu_launches_per_step", "count"},
      {"runtime.checkpoint_save_ms", "ms"},
      {"runtime.checkpoint_disk_mb_per_s", "MB/s"},
      {"mesh.partition_ms", "ms"},
      {"svc.resolve_us", "us"},
      {"svc.attempt_ms_p50", "ms"},
      {"svc.attempt_ms_p90", "ms"},
      {"svc.attempt_overhead_ms_p50", "ms"},
      {"svc.concurrency_speedup", "ratio"},
      {"svc.retries", "count"},
      {"svc.resumed_retries", "count"},
      {"svc.dispatched", "count"},
      {"svc.durable_bytes", "B"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

// ---- report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  // The first measurement of a name wins: a workload records what it
  // measured on its own path before the compact probes fill the rest.
  if (has(name)) return;
  entries_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Report::value(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return e.value;
  return std::nan("");
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::fail(const std::string& what) { failures_.push_back(what); }

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int Report::finish(const Options& opt) {
  std::cout << "# metrics (" << (opt.trace ? "traced" : "untraced") << " run)\n";
  const double failed_frac =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
  std::vector<Entry> lines = entries_;
  lines.push_back({"ops_failed_frac", failed_frac, "ratio"});
  for (const Entry& e : lines) {
    char line[160];
    std::snprintf(line, sizeof line, "metric %-40s %.6g %s", e.name.c_str(), e.value,
                  e.unit.c_str());
    std::cout << line << "\n";
  }
  const auto& wanted = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& m : wanted)
    if (!has(m.name) || !std::isfinite(value(m.name)))
      failures_.push_back(std::string("metric not measured: ") + m.name);
  if (attempted_ == 0) failures_.push_back("no operation attempted");
  for (const std::string& f : failures_) std::cout << "# FAIL " << f << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : wanted) {
    if (!first) js << ", ";
    first = false;
    js << json_string(m.name) << ": {\"value\": " << json_number(value(m.name))
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct() ? 0 : 1;
}

// ---- statistics ---------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double alternating_overhead_pct(const std::vector<const std::vector<double>*>& runs) {
  double plain = 0.0, traced = 0.0;
  for (const std::vector<double>* v : runs) {
    std::vector<double> even, odd;
    for (size_t k = 0; k < v->size(); ++k) ((k % 2 == 1) ? odd : even).push_back((*v)[k]);
    plain += median(even);
    traced += median(odd);
  }
  return (traced / plain - 1.0) * 100.0;
}

// ---- tracing ------------------------------------------------------------------

namespace {
thread_local std::vector<std::pair<int64_t, int64_t>> t_stack;  // (span id, op id)
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int64_t Tracer::new_op() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_op_++;
}

double Tracer::now_s() const { return std::chrono::duration<double>(Clock::now() - epoch_).count(); }

int64_t Tracer::open(int64_t op, int64_t* parent, int64_t* op_out) {
  *parent = t_stack.empty() ? -1 : t_stack.back().first;
  *op_out = op >= 0 ? op : (t_stack.empty() ? -1 : t_stack.back().second);
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
  }
  t_stack.emplace_back(id, *op_out);
  return id;
}

void Tracer::close(int64_t id, int64_t parent, int64_t op, const std::string& name,
                   double start_s, double end_s) {
  if (!t_stack.empty() && t_stack.back().first == id) t_stack.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, id, parent, op, start_s, end_s});
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Self time: a span's duration minus the time its children cover. Children
  // of one parent run on the parent's thread, one after another.
  std::map<int64_t, double> child_time;
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) child_time[s.parent] += s.end_s - s.start_s;
  struct Agg {
    int64_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Agg> agg;
  for (const SpanRecord& s : spans_) {
    Agg& a = agg[s.name];
    const double dur = s.end_s - s.start_s;
    const auto it = child_time.find(s.id);
    a.count += 1;
    a.total += dur;
    a.self += dur - (it == child_time.end() ? 0.0 : it->second);
  }
  std::cout << "# spans: " << spans_.size() << " recorded\n";
  for (const auto& [name, a] : agg) {
    char line[200];
    std::snprintf(line, sizeof line, "# span %-36s n=%-6lld total_ms=%-12.3f self_ms=%.3f",
                  name.c_str(), static_cast<long long>(a.count), a.total * 1e3, a.self * 1e3);
    std::cout << line << "\n";
  }
  if (path.empty()) return;
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "{\"name\": " << json_string(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << json_number(s.start_s * 1e6)
       << ", \"dur\": " << json_number((s.end_s - s.start_s) * 1e6) << ", \"args\": {\"id\": "
       << s.id << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

Span::Span(std::string name, int64_t op) : name_(std::move(name)), t0_(Clock::now()) {
  Tracer& t = Tracer::get();
  if (t.enabled()) {
    id_ = t.open(op, &parent_, &op_);
    start_s_ = t.now_s();
  }
}

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = seconds_since(t0_);
  if (id_ >= 0) {
    Tracer& t = Tracer::get();
    t.close(id_, parent_, op_, name_, start_s_, t.now_s());
  }
  return seconds_;
}

// ---- environment ----------------------------------------------------------------

void make_dirs(const std::string& path) { fs::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

int64_t tree_bytes(const std::string& path) {
  int64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<int64_t>(it->file_size(ec));
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string digest_of(const std::vector<double>& v) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(finch::rt::checksum_doubles(v)));
  return hex;
}

void print_digest(const std::string& label, const std::vector<double>& v) {
  std::cout << "# digest " << label << " " << digest_of(v) << "\n";
}

namespace {

std::string first_line_of_command(const std::string& cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void print_fingerprint(const Options& opt) {
  const auto& jit = finch::codegen::jit_config();
  std::cout << "# perfledger workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << (opt.smoke ? " smoke=1" : "") << (opt.perturb ? " perturb-reference=1" : "")
            << "\n";
  std::cout << "# nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu_model()
            << "\" L2=" << ::sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024
            << "KiB/core L3=" << ::sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024 << "KiB\n";
  std::cout << "# compiler=\"" << LEDGER_CXX_ID << " (" << __VERSION__
            << ")\" CMAKE_BUILD_TYPE=" << LEDGER_BUILD_TYPE << "\n";
  std::cout << "# jit compiler=\""
            << (jit.compiler.empty() ? std::string("none")
                                     : jit.compiler + ": " +
                                           first_line_of_command(jit.compiler + " --version"))
            << "\" flags=\"-O3 -fPIC -shared -ffp-contract=off [-march=native]"
            << (jit.extra_cflags.empty() ? "" : " " + jit.extra_cflags) << "\"\n";
}

}  // namespace ledger
