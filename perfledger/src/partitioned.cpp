// partitioned-resilient: the solve-native scenario through the three
// hand-written distributed solvers (cell, band, multi-GPU), 4 parts each,
// with resilience armed: ResilienceOptions defaults plus the ABFT auditors,
// sentinels and in-memory checkpoints every 8 steps.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>

#include "bte/direct_solver.hpp"
#include "probes.hpp"

namespace ledger {

namespace {

// Mean wall time of one step over the three strategies on the reference host
// (4-core Xeon, GCC 12 Release). Only sizes the run from --seconds.
constexpr double kNominalStepS = 0.12;
constexpr int kParts = 4;
constexpr int kSetupReps = 3;
const char* const kKinds[] = {"cell", "band", "mgpu"};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Median wall time of the consecutive `window`-step blocks of a run. A block
// spans one checkpoint interval, so it carries the periodic checkpoint cost,
// and the median drops blocks that a shared host stalled.
double window_median_s(const std::vector<double>& step_s, int window) {
  std::vector<double> blocks;
  for (size_t k = 0; k + window <= step_s.size(); k += window)
    blocks.push_back(std::accumulate(step_s.begin() + k, step_s.begin() + k + window, 0.0));
  return median(blocks);
}

}  // namespace

void run_partitioned(const Options& opt, Report& r) {
  const bte::BteScenario s = hotspot_scenario(opt.seed, opt.smoke);
  const int window = armed_resilience().checkpoint.interval;
  const int blocks = opt.smoke ? 2
                               : std::max(3, static_cast<int>(std::lround(
                                                 opt.seconds / (3 * kNominalStepS * window))));
  const int steps = blocks * window;
  std::cout << "# partitioned-resilient: " << s.nx << "x" << s.ny << " cells, " << s.ndirs
            << " dirs, " << s.nbands << " spectral bands, " << kParts << " parts, " << steps
            << " timed steps per strategy\n";

  // Set-up: physics plus the three resilient solver builds; median of reps.
  std::vector<double> setup_s, phys_s;
  std::shared_ptr<const bte::BtePhysics> phys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span setup("partitioned.setup");
    double ps = 0.0;
    phys = build_physics(s, &ps);
    for (const char* kind : kKinds) build_strategy(kind, s, phys, kParts, true);
    phys_s.push_back(ps);
    setup_s.push_back(setup.stop());
  }
  const double dofs = static_cast<double>(dof_count(s, *phys));

  // Reference outside the timed region: DirectSolver over the same steps.
  std::vector<double> T_ref, I_ref, T_prev;
  {
    Span sp("bte.direct_reference");
    bte::DirectSolver direct(s, phys);
    direct.run(steps - 1);
    T_prev = direct.temperature();
    direct.step();
    T_ref = direct.temperature();
    I_ref = direct.intensity();
    if (opt.trace) {
      const double direct_ns = direct.intensity_seconds() / (steps * dofs) * 1e9;
      r.metric("bte.direct_sweep_ns_per_dof", direct_ns, "ns/DOF");
      r.metric("bte.newton_us_per_call", newton_us_per_call(*phys, I_ref, T_prev), "us");
    }
  }
  if (opt.perturb) I_ref[I_ref.size() / 2] = std::nextafter(I_ref[I_ref.size() / 2], INFINITY);

  // Throughput is taken at the median checkpoint-interval block of each
  // strategy. A traced run traces every other step (see run_strategy), so
  // the two halves give the tracing overhead.
  double all_s = 0.0;
  std::vector<StrategyRun> armed;
  for (const char* kind : kKinds) {
    StrategyRun run = run_strategy(kind, s, phys, kParts, steps, true,
                                   opt.trace && std::string(kind) == "cell");
    const bool ok = bits_equal(run.T, T_ref) && bits_equal(run.I, I_ref);
    std::cout << "# gate: " << kind << " gathered T and I bitwise equal to DirectSolver: "
              << (ok ? "yes" : "NO") << "\n";
    r.operation(ok, std::string(kind) + " solve: gathered fields differ from DirectSolver");
    print_digest(std::string(kind) + ".T", run.T);
    print_digest(std::string(kind) + ".I", run.I);
    const double block_s = window_median_s(run.step_s, window);
    all_s += block_s;
    r.metric(std::string(kind) + "_dof_steps_per_s", dofs * window / block_s, "DOF.step/s");
    run.T.clear();
    run.I.clear();
    armed.push_back(std::move(run));
  }

  r.metric("setup_s", median(setup_s), "s");
  r.metric("dof_steps_per_s", 3.0 * dofs * window / all_s, "DOF.step/s");
  if (!opt.trace) return;

  r.metric("bte.physics_build_ms", median(phys_s) * 1e3, "ms");
  std::vector<const std::vector<double>*> samples;
  for (size_t i = 0; i < armed.size(); ++i) {
    const StrategyRun plain = run_strategy(kKinds[i], s, phys, kParts, steps, false, false);
    record_strategy(r, kKinds[i], armed[i], plain);
    samples.push_back(&armed[i].step_s);
  }
  r.metric("trace.overhead_pct", alternating_overhead_pct(samples), "%");
  probe_checkpoint(armed.front().snapshot, opt.work_dir + "/ckpt", r, 3);
  probe_partition({finch::mesh::Mesh::structured_quad(s.nx, s.ny, s.lx, s.ly)}, kParts, r, 5);
  fill_missing_layers(opt, r);
}

}  // namespace ledger
