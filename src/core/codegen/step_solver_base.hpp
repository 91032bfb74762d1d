#pragma once
// Shared scaffolding for in-process step solvers executing compiled
// StepPrograms: equation compilation, scratch/commit double-buffering, the
// ForwardEuler and RK2-midpoint schemes, the bytecode-VM sweep over a cell
// list (with the non-finite guard), the boundary-condition handling and the
// interior/boundary cell split. The CPU targets use this class directly; the
// native JIT backend overrides sweep_equation() with kernel execution and
// checks its first sweep against the VM, replaying the interior cells on the
// shared pool and then the boundary cells on the solver's own lanes (one
// thread for a serial solver); the hybrid GPU target
// overrides step() to sweep the interior cells inside a device launch and
// the boundary cells on the host. Every scheme/BC/guard behavior — and the
// VM as a drop-in oracle — lives in one place.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "bytecode.hpp"
#include "core/dsl/problem.hpp"
#include "runtime/thread_pool.hpp"

namespace finch::codegen {

// One compiled equation: programs plus the addressing info for its variable.
struct CompiledEquation {
  const ir::StepProgram* program = nullptr;
  Program volume;
  Program surface;
  bool has_surface = false;
  fvm::CellField* field = nullptr;
  // DOF addressing of the updated variable from loop_values.
  Binding var_addr;
  // Loop-slot ids of the variable's first/second index (for BC context).
  int dir_slot = -1, band_slot = -1;
};

class StepSolverBase : public dsl::Solver {
 public:
  StepSolverBase(dsl::Problem& p, rt::ThreadPool* pool);
  void step() override;

 protected:
  // Computes one equation's stage update for `dt_stage` into `out` (the
  // equation's scratch field). The base class runs the bytecode VM; the
  // native backend overrides this with JIT-kernel execution and falls back
  // to vm_sweep() whenever a kernel is unavailable.
  virtual void sweep_equation(size_t e, fvm::CellField& out, double dt_stage);

  // The interpreter sweep over the DOFs of `cells` — the portable path and
  // the differential oracle. Writes only those cells' rows of `out`. With a
  // `pool`, the DOFs fan out over it when it is free; a busy pool, or a
  // caller that is itself a pool job, runs them on the calling thread.
  void vm_sweep(size_t e, fvm::CellField& out, double dt_stage, std::span<const int32_t> cells,
                rt::ThreadPool* pool);
  // Copies the guard's atomic tallies into the published report.
  void publish_guard_tallies();

  void euler_step();
  void rk2_step();
  void commit();
  size_t backup_offset(size_t e) const;
  double surface_contribution(CompiledEquation& ce, EvalContext& ctx, int32_t cell,
                              GuardReport* guard);

  dsl::Problem& p_;
  rt::ThreadPool* pool_;
  CompileEnv env_;
  std::vector<CompiledEquation> eqs_;
  std::vector<fvm::CellField> scratch_;
  std::vector<double> backup_;
  std::vector<int32_t> all_cells_;  // 0..num_cells-1, the whole-mesh sweep
  // Interior cells have no boundary face, so no BC callback runs for them;
  // every callback runs for a boundary cell.
  std::vector<int32_t> interior_cells_, boundary_cells_;
  // Guard tallies: atomics so pooled sweeps can report without contention;
  // the mutex only serializes recording the (rare) first offender.
  std::atomic<int64_t> guard_evals_{0};
  std::atomic<int64_t> guard_nonfinite_{0};
  std::mutex guard_mutex_;

 private:
  void build_env();
};

}  // namespace finch::codegen
