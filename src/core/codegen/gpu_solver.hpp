#pragma once
// GPU code-generation target (hybrid CPU+GPU configuration of Fig. 6): a
// StepSolverBase whose step runs the same VM sweep as the CPU target twice —
// over the interior cells inside a (simulated) device launch costed as a
// flattened one-thread-per-DOF kernel, then over the boundary cells, where
// the user BC callbacks live, on the host. Results are combined, the CPU
// post-step (temperature update) executes, and the movement plan's per-step
// transfers are charged to the communication phase. ForwardEuler only; the
// non-finite guard audits both sweeps.

#include <memory>

#include "movement.hpp"
#include "runtime/simgpu.hpp"

namespace finch::dsl {
class Problem;
class Solver;
}  // namespace finch::dsl

namespace finch::codegen {

std::unique_ptr<dsl::Solver> make_gpu_solver(dsl::Problem& problem, rt::SimGpu* gpu);

// The movement plan the GPU target would use for `problem` (exposed for
// inspection, tests and the ablation bench). `naive` selects the
// no-analysis everything-both-ways baseline.
MovementPlan gpu_movement_plan(dsl::Problem& problem, bool naive = false);

}  // namespace finch::codegen
