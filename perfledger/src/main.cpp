// Performance ledger: command-line entry point.
//
//   ledger --workload <solve-native|partitioned-resilient|service-batch>
//          --seed N --seconds S --trace 0|1 --work-dir DIR
//          [--trace-out FILE] [--smoke] [--perturb-reference]
//
// Prints a fingerprint, human-readable metric lines and, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// a correctness gate fails and 2 on bad usage. run.py builds this binary and
// supplies --work-dir; see README.md.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/codegen/native_backend.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "ledger: " << why
            << "\nusage: ledger --workload <solve-native|partitioned-resilient|service-batch> "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE] [--smoke] "
               "[--perturb-reference]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = next();
      else if (a == "--seed") opt.seed = std::stoull(next());
      else if (a == "--seconds") opt.seconds = std::stod(next());
      else if (a == "--trace") opt.trace = std::stoi(next()) != 0;
      else if (a == "--work-dir") opt.work_dir = next();
      else if (a == "--trace-out") opt.trace_out = next();
      else if (a == "--smoke") opt.smoke = true;
      else if (a == "--perturb-reference") opt.perturb = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  void (*workload)(const ledger::Options&, ledger::Report&) = nullptr;
  if (opt.workload == "solve-native") workload = ledger::run_solve_native;
  else if (opt.workload == "partitioned-resilient") workload = ledger::run_partitioned;
  else if (opt.workload == "service-batch") workload = ledger::run_service_batch;
  else return usage("unknown workload '" + opt.workload + "'");

  // A private kernel cache under the work dir; the JIT and its first-sweep
  // verification always stay on.
  ledger::make_dirs(opt.work_dir + "/jit");
  ::setenv("FINCH_JIT_CACHE_DIR", (opt.work_dir + "/jit").c_str(), 1);
  ::unsetenv("FINCH_JIT_DISABLE");
  ::unsetenv("FINCH_JIT_VERIFY");
  ::unsetenv("FINCH_BACKEND");
  finch::codegen::reset_jit_config_from_env();

  ledger::print_fingerprint(opt);
  ledger::Tracer::get().enable(opt.trace);
  ledger::Report report;
  try {
    workload(opt, report);
  } catch (const std::exception& e) {
    report.fail(std::string("workload threw: ") + e.what());
  }
  ledger::Tracer::get().enable(false);
  report.metric("peak_rss_mb", ledger::peak_rss_mb(), "MB");
  if (opt.trace) ledger::Tracer::get().write(opt.trace_out);
  return report.finish(opt);
}
