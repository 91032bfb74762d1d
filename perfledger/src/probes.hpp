#pragma once
// Layer measurements shared by the workloads: the seeded scenarios, the
// per-strategy runner, the codegen/JIT, checkpoint and partition probes, and
// the compact probes that give a traced run a value for every per-layer
// metric whose layer is off the workload's own path.

#include <memory>
#include <string>
#include <vector>

#include "bte/bte_problem.hpp"
#include "bte/resilience.hpp"
#include "common.hpp"
#include "mesh/mesh.hpp"
#include "runtime/checkpoint.hpp"

namespace ledger {

namespace bte = finch::bte;

uint64_t splitmix(uint64_t x);
// Uniform draw in [0, 1) from (seed, salt).
double unit_draw(uint64_t seed, uint64_t salt);

// The §III.A hot spot trimmed to 48x48 cells, 20 directions and 40 spectral
// bands (55 resolved) on the paper's 4.375 um cells, native backend. The seed
// moves the spot's centre and width; neither changes the cost of a step.
bte::BteScenario hotspot_scenario(uint64_t seed, bool smoke);
// Job-shaped configuration for layers off a workload's path: 24x18 cells,
// 8 directions x 8 bands, 4 parts, kCompactSteps steps.
bte::BteScenario compact_scenario();
constexpr int kCompactParts = 4;
constexpr int kCompactSteps = 8;

// cells x directions x resolved bands
int64_t dof_count(const bte::BteScenario& s, const bte::BtePhysics& p);
std::shared_ptr<const bte::BtePhysics> build_physics(const bte::BteScenario& s, double* seconds);
double jit_counter(const char* name);

// ResilienceOptions defaults plus the ABFT auditors (sdc.enabled).
bte::ResilienceOptions armed_resilience();

// One distributed strategy ("cell" | "band" | "mgpu") built, then stepped
// one run(1) at a time so every step is a sample.
struct StrategyRun {
  double build_s = 0.0;
  std::vector<double> step_s;
  int64_t checkpoints = 0;
  double virtual_s = 0.0;
  double halo_bytes_per_step = 0.0, halo_messages_per_step = 0.0;  // cell
  double gather_bytes_per_step = 0.0;                               // band
  double gpu_bytes_per_step = 0.0, gpu_launches_per_step = 0.0;     // mgpu
  std::vector<double> T, I;  // gathered canonical fields
  finch::rt::Snapshot snapshot;
};
// Builds the named solver (resilience armed when `resilient`) and measures
// only the build: the solver is dropped at once. Used for set-up samples.
double build_strategy(const std::string& kind, const bte::BteScenario& s,
                      std::shared_ptr<const bte::BtePhysics> phys, int nparts, bool resilient);
StrategyRun run_strategy(const std::string& kind, const bte::BteScenario& s,
                         std::shared_ptr<const bte::BtePhysics> phys, int nparts, int steps,
                         bool resilient, bool keep_snapshot);
// Records bte.<kind>.* and the runtime communication counts of one strategy;
// `plain` is the same run with resilience off.
void record_strategy(Report& r, const std::string& kind, const StrategyRun& armed,
                     const StrategyRun& plain);

// Checkpoint layer: CheckpointStore::save on `snap` and write_bytes_atomic of
// its image (fsync included) into `dir`.
void probe_checkpoint(const finch::rt::Snapshot& snap, const std::string& dir, Report& r,
                      int reps);
// mesh::partition at `nparts` over every mesh; records the median total.
void probe_partition(const std::vector<finch::mesh::Mesh>& meshes, int nparts, Report& r,
                     int reps);
// Front end, bytecode compile, native emission and the JIT cache ladder (cold
// compile into an empty cache, disk hit, memory hit) on a compiled problem.
void probe_codegen(bte::BteProblem& bp, const Options& opt, Report& r, int reps);
// One bytecode-VM step of `s`: intensity-phase nanoseconds per DOF.
double vm_sweep_ns_per_dof(bte::BteScenario s, std::shared_ptr<const bte::BtePhysics> phys);
// EquilibriumTable::solve_temperature on every cell's band sums of `I`
// (DirectSolver layout), started from `T_guess`; microseconds per call.
double newton_us_per_call(const bte::BtePhysics& phys, const std::vector<double>& I,
                          const std::vector<double>& T_guess);

// Runs the compact probes for every per-layer group the workload left
// unmeasured, and the service probe (service_batch.cpp) for svc.*.
void fill_missing_layers(const Options& opt, Report& r);
void measure_service_layers(const Options& opt, Report& r, int njobs);

}  // namespace ledger
