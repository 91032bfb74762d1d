// solve-native: one serial DSL solve (CpuSerial target, native backend, one
// thread) of the trimmed §III.A hot spot. The generated-kernel sweep and the
// temperature Newton solve do almost all of the work.

#include <algorithm>
#include <cmath>
#include <iostream>

#include <unistd.h>

#include "bte/direct_solver.hpp"
#include "core/codegen/native_backend.hpp"
#include "probes.hpp"

namespace ledger {

namespace {

// Wall time of one step on the reference host (4-core Xeon, GCC 12 Release).
// Only sizes the run from --seconds; the step count is then fixed, so a seed
// gives the same result on any machine.
constexpr double kNominalStepS = 0.033;
constexpr int kSetupReps = 3;

double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]) / std::max(std::fabs(b[i]), 1e-300));
  return worst;
}

}  // namespace

void run_solve_native(const Options& opt, Report& r) {
  const bte::BteScenario s = hotspot_scenario(opt.seed, opt.smoke);
  const int steps = opt.smoke ? 12 : std::max(100, static_cast<int>(std::lround(opt.seconds / kNominalStepS)));
  const double fallback0 = jit_counter("jit.fallback");
  const double mismatch0 = jit_counter("jit.verify.mismatch");
  Tracer& tracer = Tracer::get();
  const int64_t op = tracer.new_op();

  std::cout << "# solve-native: " << s.nx << "x" << s.ny << " cells, " << s.ndirs << " dirs, "
            << s.nbands << " spectral bands, hot spot centre " << s.hot_center_frac
            << " width " << s.hot_w * 1e6 << " um, " << steps << " timed steps\n";

  // Warm the private kernel cache once, untimed: set-up then loads from disk.
  {
    Span sp("codegen.jit_warm_cache", op);
    double unused = 0.0;
    bte::BteProblem warm(s, build_physics(s, &unused));
    warm.compile(finch::dsl::Target::CpuSerial);
  }

  // Set-up: physics, DSL compile with a JIT load from the warm disk cache,
  // and the first step with its VM verification; median of kSetupReps.
  std::vector<double> setup_s, phys_s, compile_s, first_s;
  std::shared_ptr<const bte::BtePhysics> phys;
  std::unique_ptr<bte::BteProblem> bp;
  std::unique_ptr<finch::dsl::Solver> solver;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    solver.reset();
    bp.reset();
    finch::codegen::reset_native_memory_cache();
    Span setup("solve_native.setup", op);
    double ps = 0.0;
    phys = build_physics(s, &ps);
    bp = std::make_unique<bte::BteProblem>(s, phys);
    {
      Span sp("codegen.problem_compile");
      solver = bp->compile(finch::dsl::Target::CpuSerial);
      compile_s.push_back(sp.stop());
    }
    {
      Span sp("codegen.first_step");
      solver->step();
      first_s.push_back(sp.stop());
    }
    phys_s.push_back(ps);
    setup_s.push_back(setup.stop());
  }
  const double dofs = static_cast<double>(dof_count(s, *phys));
  const double cells = static_cast<double>(s.nx) * s.ny;
  std::cout << "# working set: I and its scratch copy " << 2.0 * dofs * 8.0 / 1e6
            << " MB (" << dofs / cells << " DOF/cell) against L2 "
            << ::sysconf(_SC_LEVEL2_CACHE_SIZE) / 1e6 << " MB/core and L3 "
            << ::sysconf(_SC_LEVEL3_CACHE_SIZE) / 1e6 << " MB\n";

  // Timed steps. A traced run traces every other step, so the two halves
  // give the tracing overhead.
  const bool tracing = tracer.enabled();
  const finch::dsl::SolvePhases ph0 = solver->phases();
  std::vector<double> step_s;
  step_s.reserve(static_cast<size_t>(steps));
  for (int k = 0; k < steps; ++k) {
    if (tracing) tracer.enable(k % 2 == 1);
    Span sp("solve_native.step", op);
    solver->step();
    step_s.push_back(sp.stop());
  }
  tracer.enable(tracing);
  const finch::dsl::SolvePhases ph = solver->phases();

  // Reference outside the timed region: DirectSolver over the same steps.
  bte::DirectSolver direct(s, phys);
  std::vector<double> T_prev;
  {
    Span sp("bte.direct_reference", op);
    direct.run(steps);
    T_prev = direct.temperature();
    direct.step();
  }
  print_digest("T", bp->temperature());
  std::vector<double> T_ref = direct.temperature();
  if (opt.perturb) T_ref[T_ref.size() / 2] *= 1.0 + 1e-9;
  const double rel = max_rel_diff(bp->temperature(), T_ref);
  std::cout << "# gate: max relative T difference vs DirectSolver " << rel << " (tol 1e-10)\n";
  r.operation(rel <= 1e-10, "native solve: T differs from DirectSolver by " + std::to_string(rel));
  const double fallbacks = jit_counter("jit.fallback") - fallback0;
  const double mismatches = jit_counter("jit.verify.mismatch") - mismatch0;
  if (fallbacks != 0.0 || mismatches != 0.0)
    r.fail("jit.fallback rose by " + std::to_string(fallbacks) + ", jit.verify.mismatch by " +
           std::to_string(mismatches));

  r.metric("setup_s", median(setup_s), "s");
  // Throughput at the median step: robust to the stalls other tenants of a
  // shared host put into single steps.
  r.metric("dof_steps_per_s", dofs / median(step_s), "DOF.step/s");
  r.metric("step_ms_p50", percentile(step_s, 50) * 1e3, "ms");
  r.metric("step_ms_p90", percentile(step_s, 90) * 1e3, "ms");
  r.metric("step_samples", static_cast<double>(step_s.size()), "count");
  if (!opt.trace) return;

  const double native_ns = (ph.intensity - ph0.intensity) / (steps * dofs) * 1e9;
  const double direct_ns = direct.intensity_seconds() / ((steps + 1) * dofs) * 1e9;
  r.metric("bte.physics_build_ms", median(phys_s) * 1e3, "ms");
  r.metric("codegen.problem_compile_ms", median(compile_s) * 1e3, "ms");
  r.metric("codegen.first_step_s", median(first_s), "s");
  r.metric("codegen.native_sweep_ns_per_dof", native_ns, "ns/DOF");
  r.metric("bte.temperature_us_per_cell", (ph.post_process - ph0.post_process) / (steps * cells) * 1e6,
           "us/cell");
  r.metric("bte.temperature_share_pct",
           (ph.post_process - ph0.post_process) / (ph.total() - ph0.total()) * 100.0, "%");
  r.metric("bte.direct_sweep_ns_per_dof", direct_ns, "ns/DOF");
  r.metric("bte.native_vs_direct", direct_ns / native_ns, "ratio");
  r.metric("bte.newton_us_per_call", newton_us_per_call(*phys, direct.intensity(), T_prev), "us");
  r.metric("trace.overhead_pct", alternating_overhead_pct({&step_s}), "%");
  probe_codegen(*bp, opt, r, 5);
  const double vm_ns = vm_sweep_ns_per_dof(s, phys);
  r.metric("codegen.vm_sweep_ns_per_dof", vm_ns, "ns/DOF");
  r.metric("codegen.native_vs_vm", vm_ns / native_ns, "ratio");
  r.metric("codegen.jit_fallbacks", jit_counter("jit.fallback") - fallback0, "count");
  r.metric("codegen.jit_verify_mismatches", jit_counter("jit.verify.mismatch") - mismatch0, "count");
  fill_missing_layers(opt, r);
}

}  // namespace ledger
