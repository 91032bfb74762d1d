// Concurrent ranks, and the first modeled-vs-measured check of the BSP
// model: the cell, band and multi-GPU strategies at 4 parts, resilience and
// SDC armed, run once with their ranks one after another
// (use_threads(nullptr)) and once on the process-wide pool. Per strategy it
// prints the modeled virtual seconds per step next to the measured wall
// seconds per step at 1 and at 4 threads.
//
// The virtual clock charges modeled work (bte/cost_model.hpp), so it must be
// identical in both modes, as must the fields. The wall columns are
// measurements of this host and are printed, not gated.
//
// Usage: bench_rank_threads [--steps N]   (FINCH_BENCH_FAST=1: a smaller mesh)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "fig_common.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

struct Run {
  double wall_step_s = 0;
  double virtual_step_s = 0;
  std::vector<double> T, I;
};

template <class Solver>
Run drive(Solver& solver, rt::ThreadPool* pool, int steps) {
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  solver.use_threads(pool);
  solver.enable_resilience(opt);
  solver.run(1);  // first touch of every rank's storage, outside the timing
  const double v0 = solver.virtual_elapsed();
  const auto t0 = std::chrono::steady_clock::now();
  solver.run(steps);
  Run r;
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  r.wall_step_s = wall.count() / steps;
  r.virtual_step_s = (solver.virtual_elapsed() - v0) / steps;
  r.T = solver.gather_temperature();
  r.I = solver.gather_intensity();
  return r;
}

Run run(const std::string& kind, const BteScenario& s, std::shared_ptr<const BtePhysics> phys,
        rt::ThreadPool* pool, int steps) {
  constexpr int kParts = 4;
  if (kind == "cell") {
    CellPartitionedSolver solver(s, phys, kParts);
    return drive(solver, pool, steps);
  }
  if (kind == "band") {
    BandPartitionedSolver solver(s, phys, kParts);
    return drive(solver, pool, steps);
  }
  MultiGpuSolver solver(s, phys, kParts);
  return drive(solver, pool, steps);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Concurrent ranks",
                      "modeled virtual step vs measured wall step, 1 and 4 threads");
  const bool fast = std::getenv("FINCH_BENCH_FAST") != nullptr;
  int steps = 16;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--steps") steps = std::max(1, std::atoi(argv[i + 1]));

  // The performance ledger's partitioned-resilient scenario (48x48 cells,
  // 20 directions, 55 bands = 1100 DOF/cell); FINCH_BENCH_FAST shrinks it.
  BteScenario s;
  s.nx = s.ny = fast ? 24 : 48;
  s.lx = s.ly = s.nx * 2e-6;
  s.ndirs = 20;
  s.nbands = fast ? 10 : 40;
  s.dt = 1e-12;
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  rt::ThreadPool& pool = rt::ThreadPool::shared();
  std::printf("problem: %dx%d cells, %d dirs, %d bands, 4 parts, %d timed steps, pool of %u+1 "
              "lanes\n\n",
              s.nx, s.ny, phys->num_dirs(), phys->num_bands(), steps, pool.size());
  std::printf("%-6s %14s %14s %14s %9s %14s\n", "kind", "virtual(ms)", "wall 1t(ms)",
              "wall 4t(ms)", "speedup", "virtual/wall4");

  bool same_virtual = true, same_fields = true;
  for (const char* kind : {"cell", "band", "mgpu"}) {
    const Run seq = run(kind, s, phys, nullptr, steps);
    const Run par = run(kind, s, phys, &pool, steps);
    same_virtual = same_virtual && seq.virtual_step_s == par.virtual_step_s;
    same_fields = same_fields && same_bits(seq.T, par.T) && same_bits(seq.I, par.I);
    std::printf("%-6s %14.4f %14.4f %14.4f %8.2fx %14.3f\n", kind, par.virtual_step_s * 1e3,
                seq.wall_step_s * 1e3, par.wall_step_s * 1e3, seq.wall_step_s / par.wall_step_s,
                par.virtual_step_s / par.wall_step_s);
  }
  std::printf("\n");
  bench::check(same_virtual, "the modeled virtual step is identical at 1 and 4 threads");
  bench::check(same_fields, "fields are bit-identical at 1 and 4 threads");
  return bench::check_failures() == 0 ? 0 : 1;
}
