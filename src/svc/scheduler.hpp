#pragma once
// Concurrent, multi-tenant, overload-resilient executor for BTE jobs.
//
// The Scheduler is the one service front end for BTE jobs: it drives the
// jobs staged by submit()/adopt_orphans() plus an open-loop *arrival
// schedule* (jobs with virtual-clock arrival times) to completion, running
// up to `max_concurrency` attempts at once on an rt::ThreadPool while keeping
// every PR-8 invariant — exactly one terminal state per admitted job, no
// step-0 replays past a durable checkpoint, cancel > quarantine > retry >
// shed precedence, crash-restart adoption — intact under interleaving. A
// serial run is simply max_concurrency = 1. Outcomes come back in completion
// order, time_to_terminal_s is the sojourn time (arrival -> terminal) on the
// virtual clock, and a retrying job keeps its admission reservation across
// its backoff.
//
// Determinism under concurrency. The scheduler is a discrete-event simulator
// on the shared virtual clock: arrivals, retry timers and attempt completions
// are processed strictly in virtual-time order on the coordinating thread,
// with attempt *durations* taken from a deterministic cost model
// (predict_cost_units × cost_per_unit_s), never from wall time. Because
// event ordering needs only predicted durations, real execution is deferred:
// when the earliest completion event's attempt has not run yet, every
// dispatched-but-unexecuted attempt executes in one ThreadPool wave. In
// steady state a wave carries ~max_concurrency attempts, so solvers, fault
// injectors, metrics and memory budgets genuinely race (TSan-visible) while
// the scheduling trajectory — admission, fair-share order, shedding, watchdog
// decisions — is a pure function of (arrivals, options). Actual solver
// virtual seconds still land in the AttemptRecords for the oracle's ledger
// checks.
//
// Overload behavior, in precedence order at a full admission queue:
//   reject  — an arrival that would not out-rank any queued job is refused
//             with a deterministic retry_after estimate (backpressure: the
//             job never enters the system, no terminal state is fabricated)
//   shed    — otherwise the lowest-priority queued job is evicted to make
//             room (terminal Shed, audited so the oracle can prove sheds are
//             strictly lowest-priority-first)
// Below the full-queue cliff the *brownout ladder* degrades instead of
// refusing: past `brownout_start` queue fill new dispatches skip the top
// rung of their fallback ladder; past `blackout_start` only the cheapest
// rung is considered. Memory admission is charged against a per-tenant
// partition of the shared rt::MemoryBudget (capacity split by fair-share
// weight), so one tenant's appetite cannot evict another's checkpoints.
//
// Fair share is deficit round-robin over per-tenant FIFO queues: each visit
// grants a tenant `quantum × weight` cost units of deficit; jobs are
// dispatched while the deficit covers their predicted cost. A flooding
// tenant therefore bounds its own queue, not its neighbors' goodput.
//
// The starvation watchdog tracks queue age: a job aging past
// `watchdog_boost_frac × max_queue_age_s` is dispatched next regardless of
// DRR order (counted in `watchdog_boosts`); a job that ever waits past the
// bound is a `watchdog_violation` — the overload oracle requires zero.
// Retry storms are damped, serial runs included: more than
// `storm_threshold` retry requeues inside a sliding `storm_window_s`
// stretches subsequent backoffs by `storm_factor` (on top of per-job FNV
// jitter decorrelation).
//
// Observability: the run is wrapped in an `svc.sched` span, execution waves
// in `svc.sched.wave`; metrics land under `svc.sched.*` (queue depth/age,
// shed-by-priority, per-tenant goodput — see OBSERVABILITY.md).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/memory.hpp"
#include "attempt_engine.hpp"

namespace finch::rt {
class ThreadPool;
}

namespace finch::svc {

struct TenantSpec {
  std::string name;
  double weight = 1.0;  // fair-share weight: DRR quantum and budget partition
};

struct SchedulerOptions {
  // Durable root, retry/quarantine policies, defense stack and the *shared*
  // memory budget (partitioned per tenant at run() start).
  SupervisorOptions supervisor;
  int max_concurrency = 1;
  // Bound on admitted-but-not-dispatched jobs. 0 = unbounded: no
  // backpressure, no overload shedding, brownout and the auto watchdog
  // bound are disabled.
  int queue_capacity = 0;
  // Declared tenants; a tenant named only by job specs gets weight 1.0.
  std::vector<TenantSpec> tenants;
  // Predicted virtual seconds per abstract cost unit
  // (nsteps × nx × ny × ndirs × nbands); drives completion-event ordering
  // and retry_after estimates. Calibrate from a serial run when comparing
  // clocks across schedulers.
  double cost_per_unit_s = 5e-9;
  // DRR quantum in cost units; 0 = auto (the largest arrival's cost, so any
  // job is servable within one visit).
  double drr_quantum_units = 0.0;
  // Brownout ladder thresholds as queue-fill fractions (bounded queue only).
  double brownout_start = 0.60;
  double blackout_start = 0.85;
  // Starvation bound in virtual seconds; 0 = auto with a bounded queue
  // (4 × queue drain time), disabled with an unbounded one.
  double max_queue_age_s = 0.0;
  double watchdog_boost_frac = 0.5;
  // Retry-storm damper.
  double storm_window_s = 4.0;
  int storm_threshold = 16;
  double storm_factor = 2.0;
};

// Throws std::invalid_argument on contradictory combinations.
void validate_scheduler_options(const SchedulerOptions& o);

// Deterministic service-cost prediction for one resolved configuration, in
// abstract cost units.
double predict_cost_units(const JobConfig& cfg, int nsteps);

// One entry of the open-loop arrival schedule. `vtime` is on the scheduler's
// virtual clock; arrivals must be sorted non-decreasing.
struct Arrival {
  double vtime = 0.0;
  JobSpec spec;
  bool adopted = false;  // re-adopted from an orphaned durable job dir
};

// Audit records the overload oracle consumes.
struct ShedAudit {
  std::string id;
  int priority = 0;
  int min_queued_priority = 0;  // over queue + the arrival at shed time
  double vtime = 0.0;
};
struct RejectAudit {
  std::string id;
  std::string tenant;
  double vtime = 0.0;
  double retry_after_s = 0.0;
};

struct TenantLedger {
  double weight = 1.0;
  int64_t budget_capacity = 0;  // partition carve-out; 0 = unbudgeted
  int submitted = 0;            // arrivals billed to this tenant
  int admitted = 0;             // entered the queue
  int completed = 0;
  int cancelled = 0;
  int quarantined = 0;
  int shed = 0;
  int rejected = 0;
  double offered_units = 0.0;    // predicted cost of everything submitted
  double completed_units = 0.0;  // goodput: predicted cost of completions
};

struct SchedStats {
  int dispatched = 0;  // attempts started (Σ outcome attempt counts)
  int retries = 0;
  int brownout_degrades = 0;  // dispatches forced off the top rung by fill
  int watchdog_boosts = 0;
  int watchdog_violations = 0;  // queued past the starvation bound (want 0)
  int storm_damped = 0;         // backoffs stretched by the storm damper
  size_t max_queue_depth = 0;
  double max_queue_age_s = 0.0;  // oldest wait ever observed at dispatch
  double drain_vtime_s = 0.0;    // virtual clock when the last event settled
  std::vector<ShedAudit> shed_audits;  // overload (queue-full) sheds only
  std::vector<RejectAudit> rejects;
  std::map<std::string, TenantLedger> tenants;
};

struct ScheduleResult {
  // One outcome per *admitted* job, in completion order. Rejected arrivals
  // appear only in stats.rejects — backpressure means they never entered.
  std::vector<JobOutcome> outcomes;
  SchedStats stats;
};

class Scheduler {
 public:
  Scheduler(const bte::BteScenario& base, SchedulerOptions options);
  ~Scheduler();

  // Stages a job that arrives at vtime 0 of the next run(), after the jobs
  // staged before it. Throws std::invalid_argument on duplicate ids, empty
  // ids, unknown solver names (including fallback rungs), non-positive
  // nsteps or dimensions, or negative fallback overrides.
  void submit(JobSpec spec);

  // Crash restart: scan the durable root for job directories with a spec but
  // no terminal record and stage them as adopted arrivals at vtime 0 of the
  // next run(). Returns the adopted ids (sorted).
  std::vector<std::string> adopt_orphans();

  // Cancels a staged job: when it arrives it settles Cancelled ("cancelled
  // before start: <reason>") with zero attempts, before it can queue, be
  // shed or be admitted. Returns false for an id that is not staged — an
  // unknown one, or one run() has already settled.
  bool request_cancel(const std::string& id, std::string reason = "cancelled");

  // Jobs staged by submit() and adopt_orphans() for the next run().
  size_t queue_depth() const { return staged_.size(); }

  // Drives the staged jobs, then the arrival schedule, to completion: every
  // admitted job reaches exactly one terminal state. Throws
  // std::invalid_argument on malformed specs, duplicate ids or unsorted
  // arrival times. One run per Scheduler; a serial run is max_concurrency 1.
  ScheduleResult run(std::vector<Arrival> arrivals);

  const SchedulerOptions& options() const { return options_; }

 private:
  struct Job;
  struct Tenant;
  struct Slot;
  struct RetryEvent;

  std::string job_dir(const std::string& id) const;
  bool is_staged(const std::string& id) const;
  Tenant& tenant_of(const std::string& name);
  double predicted_cost(const JobSpec& spec, int rung);
  int brownout_level() const;
  void enqueue(size_t ji);
  void handle_arrival(Arrival&& a);
  void dispatch_ready();
  bool pick_next(size_t* out_ji);
  void execute_wave();
  void process_completion(size_t slot_index);
  void settle_terminal(size_t ji, TerminalState state, std::string detail);
  void check_starvation();
  size_t total_queued() const;

  bte::BteScenario base_;
  SchedulerOptions options_;
  AttemptEngine engine_;  // holds &options_.supervisor
  std::unique_ptr<rt::ThreadPool> pool_;

  // Event-loop state (valid during run()).
  double vnow_ = 0.0;
  uint64_t seq_ = 0;  // tie-break for deterministic event ordering
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::string> tenant_order_;  // deterministic DRR rotation
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  size_t rr_index_ = 0;
  bool rr_fresh_ = true;  // grant a quantum on the next visit of rr_index_
  std::vector<Slot> slots_;
  std::vector<RetryEvent> retry_heap_;
  std::vector<double> retry_times_;  // sliding window for storm detection
  double quantum_units_ = 0.0;
  double age_bound_s_ = 0.0;  // resolved starvation bound (0 = disabled)
  std::vector<Arrival> staged_;  // submit() and adopt_orphans(), in call order
  std::map<std::string, std::string> cancel_requests_;  // staged id -> reason
  bool ran_ = false;
  ScheduleResult result_;
};

}  // namespace finch::svc
