#pragma once
// Resilient job supervision: the per-attempt core that drives every BTE job
// to one terminal state under composed robustness policies.
//
// The per-attempt mechanics live in AttemptEngine — an attempt-granularity
// state machine driven by the job front end, svc::Scheduler
// (svc/scheduler.hpp); a serial run is the scheduler at max_concurrency = 1.
// One engine pass composes the runtime primitives the earlier layers proved
// out:
//
//   retry     — a failed attempt is retried with exponential backoff +
//               deterministic jitter charged to the virtual clock, under a
//               distinct derived injector seed; when the job is durable the
//               retry resumes from the newest rt::RunManifest checkpoint
//               instead of replaying from step 0
//   quarantine— the poison circuit breaker: `threshold` consecutive failures
//               across distinct seeds (or an exhausted retry budget) parks
//               the job permanently, with the fault schedule ddmin-minimized
//               into a replayable repro artifact
//   admission — before anything allocates, the job's declared fallback
//               ladder is walked against the tenant's partition of the
//               shared rt::MemoryBudget using the estimate_memory_demand
//               model; the first rung that fits is admitted (degraded if it
//               is not the top rung), and a job no rung can fit is shed
//               WITHOUT ever touching the budget
//   deadline  — per-job step deadlines (and run_attempt's cancel_reason)
//               drain the run cooperatively at a step boundary via
//               rt::CancelToken; a drained durable job stays resumable on disk
//
// Policy precedence: cancel > quarantine > retry > shed (a cancel request
// against a staged job settles it before it can queue; see
// Scheduler::request_cancel).
//
// Crash safety: with a durable root every job directory carries job.json
// (committed when the job arrives) and terminal.json (committed atomically
// at the terminal transition). A restarted scheduler calls adopt_orphans()
// to re-queue every job directory that has a spec but no terminal record —
// exactly the jobs a dead process left in flight — and their first attempt
// resumes from the on-disk manifest like any retry.
//
// The scheduler traces each attempt (svc.attempt spans) and meters the job
// lifecycle (svc.jobs_*, svc.retries, svc.backoff_seconds, per-state
// svc.latency.* histograms) through the PR-5 observability layer; repro
// minimization here counts svc.shrink_runs.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bte/solver_factory.hpp"
#include "job.hpp"
#include "policy.hpp"

namespace finch::svc {

// Attempt-granularity execution core. resolve() and run_attempt() are safe
// to call from several threads at once for DISTINCT jobs (each attempt owns
// its solver, injector and cancel token; the physics cache and any shared
// MemoryBudget serialize internally). decide() and minimize_repro() are pure
// policy/replay helpers driven from the coordinating thread.
class AttemptEngine {
 public:
  // A spec resolved onto one rung of its ladder: concrete config, scenario
  // and shared physics.
  struct Resolved {
    JobSpec spec;
    JobConfig cfg;
    bte::BteScenario scenario;
    std::shared_ptr<const bte::BtePhysics> physics;
  };
  struct Result {
    AttemptRecord rec;
    bte::ResilienceStats stats;
    bool completed = false;
    bool drained = false;
    std::string drain_reason;
    std::vector<double> T, I;
  };
  // The state machine's verdict on what attempt k's result means for the job.
  enum class Next {
    Complete,    // terminal: Completed
    Drain,       // terminal: Cancelled (deadline / external cancel)
    Retry,       // schedule attempt k+1 after backoff
    Quarantine,  // terminal: circuit breaker or retry budget exhausted
  };
  struct Decision {
    Next next = Next::Retry;
    std::string detail;  // terminal detail for Complete/Drain/Quarantine
  };

  // `options` must outlive the engine (the owning Scheduler holds it).
  // Validates once.
  AttemptEngine(const bte::BteScenario& base, const SupervisorOptions* options);

  // Derived injector seed for retry `attempt` (attempt 0 uses the base seed
  // itself) — the same golden-ratio mix the chaos campaigns use, so the
  // circuit breaker's "distinct seeds" guarantee is auditable from the
  // attempt records.
  static uint64_t attempt_seed(uint64_t base, int attempt);

  Resolved resolve(const JobSpec& spec, int rung);
  // Runs one attempt: arm faults, resume from the durable manifest when one
  // exists, run to the end or a drain, classify. `memory` is the budget this
  // attempt's live allocations charge (the scheduler passes a per-attempt
  // view of the tenant partition).
  Result run_attempt(const Resolved& rj, int attempt_index, uint64_t seed,
                     const std::string& job_dir, const std::string& cancel_reason,
                     const std::vector<rt::ChaosFault>& faults,
                     rt::MemoryBudget* memory) const;
  // Attempt-granularity transition: `failures` counts consecutive failures
  // INCLUDING this one when it failed; `attempt_index` is the index just run.
  Decision decide(const Result& r, int attempt_index, int failures) const;
  // ddmin the job's fault schedule down to a minimal still-failing repro,
  // within a budget of kMaxShrinkRuns re-executions.
  std::vector<rt::ChaosFault> minimize_repro(const Resolved& rj, rt::MemoryBudget* memory);

  const SupervisorOptions& options() const { return *options_; }
  const bte::BteScenario& base_scenario() const { return base_; }

 private:
  bte::BteScenario base_;
  const SupervisorOptions* options_;
  bte::PhysicsCache physics_;
};

// Shared helpers of the job front end.
namespace detail {
// mkdir -p; EEXIST is fine.
void mkdir_p(const std::string& path);
bool known_solver(const std::string& s);
// Throws std::invalid_argument unless `spec` is well-formed: non-empty id,
// known solver names, positive nsteps, nparts, nx, ny, ndirs and nbands, and
// fallback overrides >= 0 (0 inherits the top-level value).
void validate_spec(const JobSpec& spec);
// Deterministic (sorted) scan of `durable_root` for job directories with a
// spec but no terminal record; ids in `skip` are ignored.
std::vector<JobSpec> scan_orphans(const std::string& durable_root,
                                  const std::set<std::string>& skip);
}  // namespace detail

}  // namespace finch::svc
