#include "scheduler.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "job_file.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"

namespace finch::svc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNone = static_cast<size_t>(-1);
// A queued job older than this fraction of the starvation bound is
// dispatched next, ahead of DRR order.
constexpr double kWatchdogBoostFrac = 0.5;
}  // namespace

void validate_scheduler_options(const SchedulerOptions& o) {
  validate_supervisor_options(o.supervisor);
  if (o.max_concurrency < 1)
    throw std::invalid_argument("SchedulerOptions: max_concurrency must be >= 1");
  if (o.queue_capacity < 0)
    throw std::invalid_argument("SchedulerOptions: queue_capacity must be >= 0");
  if (o.cost_per_unit_s <= 0.0)
    throw std::invalid_argument("SchedulerOptions: cost_per_unit_s must be > 0");
  if (!(o.brownout_start > 0.0) || o.brownout_start > o.blackout_start ||
      o.blackout_start > 1.0)
    throw std::invalid_argument(
        "SchedulerOptions: need 0 < brownout_start <= blackout_start <= 1");
  if (o.max_queue_age_s < 0.0)
    throw std::invalid_argument("SchedulerOptions: max_queue_age_s must be >= 0");
  if (o.storm_window_s < 0.0)
    throw std::invalid_argument("SchedulerOptions: storm_window_s must be >= 0");
  if (o.storm_threshold < 1)
    throw std::invalid_argument("SchedulerOptions: storm_threshold must be >= 1");
  if (o.storm_factor < 1.0)
    throw std::invalid_argument("SchedulerOptions: storm_factor must be >= 1");
  std::set<std::string> names;
  for (const TenantSpec& t : o.tenants) {
    if (t.name.empty())
      throw std::invalid_argument("SchedulerOptions: tenant name must not be empty");
    if (!(t.weight > 0.0))
      throw std::invalid_argument("SchedulerOptions: tenant weight must be > 0");
    if (!names.insert(t.name).second)
      throw std::invalid_argument("SchedulerOptions: duplicate tenant '" + t.name + "'");
  }
}

double predict_cost_units(const JobConfig& cfg, int nsteps) {
  return static_cast<double>(nsteps) * cfg.nx * cfg.ny * cfg.ndirs * cfg.nbands;
}

// ---- internal state --------------------------------------------------------

struct Scheduler::Job {
  JobSpec spec;
  std::string dir;
  double arrival_v = 0.0;
  double enqueue_v = 0.0;
  double cost_units = 0.0;  // predicted; refined to the chosen rung at dispatch
  bool queued = false;
  bool terminal = false;
  bool wd_flagged = false;  // already counted as a starvation violation
  int rung = -2;            // chosen once at first dispatch; retries reuse it
  AttemptEngine::Resolved rj;
  int64_t reserved = 0;  // admission bytes held on the tenant partition
  int attempt_next = 0;
  int failures = 0;
  double pending_backoff = 0.0;
  JobOutcome out;
};

struct Scheduler::Tenant {
  std::string name;
  double weight = 1.0;
  double deficit = 0.0;
  std::deque<size_t> q;  // FIFO of job indices
  std::unique_ptr<rt::MemoryBudget> partition;
};

struct Scheduler::Slot {
  size_t ji = 0;
  int attempt_index = 0;
  uint64_t seed = 0;
  double end_v = 0.0;  // predicted completion on the virtual clock
  uint64_t seq = 0;
  bool executed = false;
  // Per-attempt budget view of the tenant partition: relief lambdas the
  // attempt's solver registers stay private to its worker thread.
  std::unique_ptr<rt::MemoryBudget> view;
  AttemptEngine::Result result;
};

struct Scheduler::RetryEvent {
  double due = 0.0;
  uint64_t seq = 0;
  size_t ji = 0;
  // std::*_heap is a max-heap; invert for earliest-(due, seq)-first.
  bool operator<(const RetryEvent& o) const {
    if (due != o.due) return due > o.due;
    return seq > o.seq;
  }
};

// ---- construction ----------------------------------------------------------

Scheduler::Scheduler(const bte::BteScenario& base, SchedulerOptions options)
    : base_(base), options_(std::move(options)), engine_(base, &options_.supervisor) {
  validate_scheduler_options(options_);
  if (!options_.supervisor.durable_root.empty())
    detail::mkdir_p(options_.supervisor.durable_root);
}

Scheduler::~Scheduler() = default;

std::string Scheduler::job_dir(const std::string& id) const {
  const std::string& root = options_.supervisor.durable_root;
  return root.empty() ? std::string() : root + "/" + id;
}

Scheduler::Tenant& Scheduler::tenant_of(const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return *it->second;
  auto t = std::make_unique<Tenant>();
  t->name = name;
  Tenant& ref = *t;
  tenants_.emplace(name, std::move(t));
  tenant_order_.push_back(name);
  return ref;
}

double Scheduler::predicted_cost(const JobSpec& spec, int rung) {
  return predict_cost_units(engine_.resolve(spec, rung).cfg, spec.nsteps);
}

bool Scheduler::is_staged(const std::string& id) const {
  return std::any_of(staged_.begin(), staged_.end(),
                     [&](const Arrival& a) { return a.spec.id == id; });
}

void Scheduler::submit(JobSpec spec) {
  detail::validate_spec(spec);
  if (is_staged(spec.id))
    throw std::invalid_argument("submit: duplicate job id '" + spec.id + "'");
  staged_.push_back(Arrival{0.0, std::move(spec), /*adopted=*/false});
}

std::vector<std::string> Scheduler::adopt_orphans() {
  std::vector<std::string> ids;
  if (options_.supervisor.durable_root.empty()) return ids;
  rt::TraceSpan span("svc.adopt");
  std::set<std::string> skip;
  for (const Arrival& a : staged_) skip.insert(a.spec.id);
  auto& mx = rt::MetricsRegistry::global();
  for (JobSpec& spec : detail::scan_orphans(options_.supervisor.durable_root, skip)) {
    ids.push_back(spec.id);
    staged_.push_back(Arrival{0.0, std::move(spec), /*adopted=*/true});
    mx.counter("svc.adopted").add(1.0);
  }
  return ids;
}

bool Scheduler::request_cancel(const std::string& id, std::string reason) {
  if (!is_staged(id)) return false;
  cancel_requests_[id] = reason.empty() ? "cancelled" : std::move(reason);
  return true;
}

// ---- event loop ------------------------------------------------------------

size_t Scheduler::total_queued() const {
  size_t n = 0;
  for (const auto& [name, t] : tenants_) n += t->q.size();
  return n;
}

int Scheduler::brownout_level() const {
  if (options_.queue_capacity <= 0) return 0;
  const double fill =
      static_cast<double>(total_queued()) / static_cast<double>(options_.queue_capacity);
  if (fill >= options_.blackout_start) return 2;
  if (fill >= options_.brownout_start) return 1;
  return 0;
}

void Scheduler::enqueue(size_t ji) {
  Job& j = *jobs_[ji];
  j.queued = true;
  j.enqueue_v = vnow_;
  tenant_of(j.spec.tenant).q.push_back(ji);
  const size_t depth = total_queued();
  result_.stats.max_queue_depth = std::max(result_.stats.max_queue_depth, depth);
  rt::MetricsRegistry::global()
      .gauge("svc.sched.queue_depth")
      .set(static_cast<double>(depth));
}

void Scheduler::handle_arrival(Arrival&& a) {
  auto& mx = rt::MetricsRegistry::global();
  TenantLedger& led = result_.stats.tenants[a.spec.tenant];
  const double cost = predicted_cost(a.spec, -1);
  ++led.submitted;
  led.offered_units += cost;
  mx.counter("svc.jobs_submitted").add(1.0);

  // Precedence: a cancel request beats everything, backpressure and
  // shedding included — a cancelled job is not an admission decision.
  const auto cancel = cancel_requests_.find(a.spec.id);
  const bool cancelled = cancel != cancel_requests_.end();
  const int cap = options_.queue_capacity;
  if (!cancelled && cap > 0 && total_queued() >= static_cast<size_t>(cap)) {
    // Queue full. Only *fresh* queued jobs (no attempt yet) are sheddable —
    // a retrying job holds durable progress and a budget reservation, which
    // are worth more than a blank arrival. Find the lowest-priority victim;
    // ties break toward the youngest (keeps the closest-to-service job).
    size_t victim = kNone;
    int minp = std::numeric_limits<int>::max();
    for (const std::string& name : tenant_order_) {
      for (size_t ji : tenants_[name]->q) {
        const Job& cand = *jobs_[ji];
        if (cand.attempt_next > 0) continue;  // in-progress retry: not sheddable
        const int p = cand.spec.priority;
        if (p < minp ||
            (p == minp && victim != kNone && cand.enqueue_v >= jobs_[victim]->enqueue_v)) {
          minp = p;
          victim = ji;
        }
      }
    }
    if (victim == kNone || a.spec.priority <= minp) {
      // Backpressure: the arrival does not out-rank anything sheddable, so
      // it is refused with a deterministic drain-time estimate. It never
      // entered the system; no terminal state is fabricated.
      double queued_units = 0.0;
      for (const auto& [name, t] : tenants_)
        for (size_t ji : t->q) queued_units += jobs_[ji]->cost_units;
      RejectAudit rej;
      rej.id = a.spec.id;
      rej.tenant = a.spec.tenant;
      rej.vtime = vnow_;
      rej.retry_after_s = std::max(cost, queued_units / options_.max_concurrency) *
                          options_.cost_per_unit_s;
      result_.stats.rejects.push_back(std::move(rej));
      ++led.rejected;
      mx.counter("svc.sched.rejected").add(1.0);
      return;
    }
    // Shed the victim to admit the higher-priority arrival.
    Job& v = *jobs_[victim];
    auto& vq = tenant_of(v.spec.tenant).q;
    vq.erase(std::find(vq.begin(), vq.end(), victim));
    v.queued = false;
    ShedAudit audit;
    audit.id = v.spec.id;
    audit.priority = v.spec.priority;
    audit.min_queued_priority = std::min(minp, a.spec.priority);
    audit.vtime = vnow_;
    result_.stats.shed_audits.push_back(std::move(audit));
    mx.counter("svc.sched.shed_priority." + std::to_string(v.spec.priority)).add(1.0);
    if (v.rung == -2) v.out.ran = engine_.resolve(v.spec, -1).cfg;
    settle_terminal(victim, TerminalState::Shed,
                    "shed under overload: queue full, lowest priority");
  }

  // Admit.
  auto job = std::make_unique<Job>();
  job->spec = std::move(a.spec);
  job->arrival_v = vnow_;
  job->cost_units = cost;
  job->dir = job_dir(job->spec.id);
  job->out.spec = job->spec;
  job->out.adopted = a.adopted;
  if (!job->dir.empty() && !a.adopted) {
    detail::mkdir_p(job->dir);
    write_text_file_atomic(job->dir + "/job.json", job_to_json(job->spec));
  }
  jobs_.push_back(std::move(job));
  const size_t ji = jobs_.size() - 1;
  ++led.admitted;
  if (cancelled) {
    Job& j = *jobs_[ji];
    j.out.ran = engine_.resolve(j.spec, -1).cfg;
    settle_terminal(ji, TerminalState::Cancelled, "cancelled before start: " + cancel->second);
    return;
  }
  enqueue(ji);
}

bool Scheduler::pick_next(size_t* out_ji) {
  if (total_queued() == 0) return false;
  // Starvation watchdog: the oldest queued job past the boost threshold
  // jumps the fair-share rotation.
  if (age_bound_s_ > 0.0) {
    size_t oldest = kNone;
    Tenant* oldest_t = nullptr;
    double oldest_v = kInf;
    for (const std::string& name : tenant_order_) {
      Tenant& t = *tenants_[name];
      if (t.q.empty()) continue;
      const size_t ji = t.q.front();  // FIFO: the tenant's oldest is its front
      if (jobs_[ji]->enqueue_v < oldest_v) {
        oldest_v = jobs_[ji]->enqueue_v;
        oldest = ji;
        oldest_t = &t;
      }
    }
    if (oldest != kNone &&
        vnow_ - oldest_v >= kWatchdogBoostFrac * age_bound_s_) {
      oldest_t->q.pop_front();
      ++result_.stats.watchdog_boosts;
      rt::MetricsRegistry::global().counter("svc.sched.watchdog_boosts").add(1.0);
      *out_ji = oldest;
      return true;
    }
  }
  // Deficit round-robin: each fresh visit grants quantum × weight; serve
  // while the deficit covers the head-of-line predicted cost.
  const size_t n = tenant_order_.size();
  for (size_t guard = 0; guard < n * 4096; ++guard) {
    Tenant& t = *tenants_[tenant_order_[rr_index_]];
    if (rr_fresh_) {
      if (!t.q.empty()) t.deficit += quantum_units_ * t.weight;
      rr_fresh_ = false;
    }
    if (t.q.empty()) {
      t.deficit = 0.0;
      rr_index_ = (rr_index_ + 1) % n;
      rr_fresh_ = true;
      continue;
    }
    const size_t ji = t.q.front();
    if (t.deficit + 1e-9 >= jobs_[ji]->cost_units) {
      t.deficit -= jobs_[ji]->cost_units;
      t.q.pop_front();
      *out_ji = ji;
      return true;
    }
    rr_index_ = (rr_index_ + 1) % n;
    rr_fresh_ = true;
  }
  // Pathological quantum (user-set far below job costs): serve head-of-line
  // of the first non-empty tenant rather than spinning.
  for (const std::string& name : tenant_order_) {
    Tenant& t = *tenants_[name];
    if (t.q.empty()) continue;
    *out_ji = t.q.front();
    t.q.pop_front();
    return true;
  }
  return false;
}

void Scheduler::dispatch_ready() {
  auto& mx = rt::MetricsRegistry::global();
  while (slots_.size() < static_cast<size_t>(options_.max_concurrency)) {
    size_t ji = kNone;
    if (!pick_next(&ji)) break;
    Job& j = *jobs_[ji];
    j.queued = false;
    mx.gauge("svc.sched.queue_depth").set(static_cast<double>(total_queued()));
    const double age = vnow_ - j.enqueue_v;
    result_.stats.max_queue_age_s = std::max(result_.stats.max_queue_age_s, age);
    mx.histogram("svc.sched.queue_age").observe(age);

    if (j.rung == -2) {
      // First dispatch: choose the rung once (retries must resume the same
      // configuration's manifests). Brownout forces the floor up under
      // pressure; within the allowed range the first rung whose demand fits
      // the tenant partition wins — pure arithmetic, budget untouched.
      const int level = brownout_level();
      const int nfall = static_cast<int>(j.spec.fallbacks.size());
      int lo = -1;
      if (level >= 1 && nfall > 0) lo = 0;
      if (level >= 2 && nfall > 0) lo = nfall - 1;
      if (lo > -1) {
        ++result_.stats.brownout_degrades;
        mx.counter("svc.sched.brownout_degrades").add(1.0);
      }
      rt::MemoryBudget* part = tenant_of(j.spec.tenant).partition.get();
      int chosen = -2;
      bte::MemoryDemand demand;
      for (int rung = lo; rung < nfall; ++rung) {
        AttemptEngine::Resolved cand = engine_.resolve(j.spec, rung);
        bte::MemoryDemand d = bte::estimate_memory_demand(
            cand.cfg.solver, cand.scenario, *cand.physics, cand.cfg.nparts);
        const bool fits = part == nullptr || part->capacity() <= 0 ||
                          part->in_use() + d.total_bytes() <= part->capacity();
        if (fits) {
          chosen = rung;
          j.rj = std::move(cand);
          demand = d;
          break;
        }
      }
      if (chosen == -2) {
        j.out.ran = engine_.resolve(j.spec, -1).cfg;
        settle_terminal(ji, TerminalState::Shed,
                        "admission: no rung of the fallback ladder fits the tenant partition");
        continue;
      }
      j.rung = chosen;
      j.out.ran = j.rj.cfg;
      j.out.degraded_rung = chosen;
      if (chosen >= 0) mx.counter("svc.degraded").add(1.0);
      j.cost_units = predict_cost_units(j.rj.cfg, j.spec.nsteps);
      if (part != nullptr && part->capacity() > 0) {
        j.reserved = demand.admission_bytes();
        if (!part->try_reserve(j.reserved)) {
          j.reserved = 0;
          settle_terminal(ji, TerminalState::Shed, "admission: reservation failed");
          continue;
        }
      }
    }

    Slot s;
    s.ji = ji;
    s.attempt_index = j.attempt_next;
    s.seed = AttemptEngine::attempt_seed(j.spec.seed, s.attempt_index);
    s.seq = seq_++;
    s.end_v = vnow_ + std::max(j.cost_units * options_.cost_per_unit_s, 1e-12);
    rt::MemoryBudget* part = tenant_of(j.spec.tenant).partition.get();
    if (part != nullptr)
      s.view = std::make_unique<rt::MemoryBudget>(part->capacity(), part);
    slots_.push_back(std::move(s));
    ++result_.stats.dispatched;
    mx.counter("svc.sched.dispatched").add(1.0);
  }
}

void Scheduler::execute_wave() {
  std::vector<size_t> todo;
  for (size_t i = 0; i < slots_.size(); ++i)
    if (!slots_[i].executed) todo.push_back(i);
  if (todo.empty()) return;
  rt::SpanAttrs wattrs;
  wattrs.step = static_cast<int64_t>(todo.size());
  rt::TraceSpan wave("svc.sched.wave", wattrs);
  auto run_one = [&](int64_t k) {
    Slot& s = slots_[todo[static_cast<size_t>(k)]];
    Job& j = *jobs_[s.ji];
    rt::SpanAttrs attrs;
    attrs.step = s.attempt_index;
    rt::TraceSpan aspan("svc.attempt", attrs);
    s.result = engine_.run_attempt(j.rj, s.attempt_index, s.seed, j.dir,
                                   /*cancel_reason=*/"", j.spec.faults, s.view.get());
    s.executed = true;
  };
  if (todo.size() == 1 || options_.max_concurrency <= 1) {
    for (size_t k = 0; k < todo.size(); ++k) run_one(static_cast<int64_t>(k));
  } else {
    if (!pool_)
      pool_ = std::make_unique<rt::ThreadPool>(
          static_cast<unsigned>(options_.max_concurrency));
    pool_->parallel_for(0, static_cast<int64_t>(todo.size()), run_one, /*grain=*/1);
  }
}

void Scheduler::settle_terminal(size_t ji, TerminalState state, std::string detail) {
  Job& j = *jobs_[ji];
  j.terminal = true;
  j.queued = false;
  j.out.state = state;
  j.out.detail = std::move(detail);
  j.out.time_to_terminal_s = vnow_ - j.arrival_v;  // sojourn: queue wait included
  Tenant& t = tenant_of(j.spec.tenant);
  if (j.reserved > 0 && t.partition != nullptr) t.partition->release(j.reserved);
  j.reserved = 0;
  if (!j.dir.empty()) {
    try {
      write_text_file_atomic(j.dir + "/terminal.json", terminal_to_json(state, j.out.detail));
    } catch (const std::exception& e) {
      j.out.detail += " (terminal record not durable: " + std::string(e.what()) + ")";
    }
  }
  auto& mx = rt::MetricsRegistry::global();
  mx.counter(std::string("svc.jobs_") + terminal_state_name(state)).add(1.0);
  mx.histogram(std::string("svc.latency.") + terminal_state_name(state))
      .observe(j.out.time_to_terminal_s);
  TenantLedger& led = result_.stats.tenants[j.spec.tenant];
  switch (state) {
    case TerminalState::Completed:
      ++led.completed;
      led.completed_units += j.cost_units;
      mx.counter("svc.sched.goodput_units." + j.spec.tenant).add(j.cost_units);
      break;
    case TerminalState::Cancelled: ++led.cancelled; break;
    case TerminalState::Quarantined: ++led.quarantined; break;
    case TerminalState::Shed: ++led.shed; break;
    case TerminalState::Pending: break;
  }
  result_.outcomes.push_back(j.out);
}

void Scheduler::process_completion(size_t slot_index) {
  if (!slots_[slot_index].executed) execute_wave();
  Slot s = std::move(slots_[slot_index]);
  slots_.erase(slots_.begin() + static_cast<long>(slot_index));
  Job& j = *jobs_[s.ji];
  AttemptEngine::Result r = std::move(s.result);
  r.rec.backoff_s = j.pending_backoff;
  j.pending_backoff = 0.0;
  j.out.attempts.push_back(r.rec);
  j.out.stats = r.stats;
  j.out.final_step = r.rec.end_step;
  j.attempt_next = s.attempt_index + 1;
  if (!r.completed && !r.drained) ++j.failures;

  auto& mx = rt::MetricsRegistry::global();
  const AttemptEngine::Decision d = engine_.decide(r, s.attempt_index, j.failures);
  switch (d.next) {
    case AttemptEngine::Next::Complete:
      j.out.temperature = std::move(r.T);
      j.out.intensity = std::move(r.I);
      settle_terminal(s.ji, TerminalState::Completed, d.detail);
      return;
    case AttemptEngine::Next::Drain:
      settle_terminal(s.ji, TerminalState::Cancelled, d.detail);
      return;
    case AttemptEngine::Next::Quarantine: {
      rt::ChaosSchedule repro;
      repro.seed = j.spec.seed;
      repro.index = 0;
      repro.solver = j.rj.cfg.solver;
      repro.nparts = j.rj.cfg.nparts;
      repro.nsteps = j.spec.nsteps;
      repro.faults = engine_.minimize_repro(j.rj, nullptr);
      j.out.repro_json = rt::schedule_to_json(repro);
      if (!j.dir.empty()) {
        j.out.repro_path = j.dir + "/QUARANTINE_repro.json";
        try {
          write_text_file_atomic(j.out.repro_path, j.out.repro_json);
        } catch (const std::exception&) {
          j.out.repro_path.clear();
        }
      }
      settle_terminal(s.ji, TerminalState::Quarantined, d.detail);
      return;
    }
    case AttemptEngine::Next::Retry: {
      double backoff =
          backoff_with_jitter(options_.supervisor.retry, j.spec.id, j.failures - 1);
      // Retry-storm damper: correlated failures inside the sliding window
      // stretch the backoff so requeues spread out instead of thundering.
      retry_times_.push_back(vnow_);
      while (!retry_times_.empty() &&
             retry_times_.front() < vnow_ - options_.storm_window_s)
        retry_times_.erase(retry_times_.begin());
      if (static_cast<int>(retry_times_.size()) > options_.storm_threshold) {
        backoff *= options_.storm_factor;
        ++result_.stats.storm_damped;
        mx.counter("svc.sched.storm_damped").add(1.0);
      }
      j.pending_backoff = backoff;
      ++result_.stats.retries;
      mx.counter("svc.retries").add(1.0);
      mx.counter("svc.backoff_seconds").add(backoff);
      RetryEvent ev;
      ev.due = vnow_ + backoff;
      ev.seq = seq_++;
      ev.ji = s.ji;
      retry_heap_.push_back(ev);
      std::push_heap(retry_heap_.begin(), retry_heap_.end());
      return;
    }
  }
}

void Scheduler::check_starvation() {
  if (age_bound_s_ <= 0.0) return;
  auto& mx = rt::MetricsRegistry::global();
  for (const auto& [name, t] : tenants_) {
    for (size_t ji : t->q) {
      Job& j = *jobs_[ji];
      if (!j.wd_flagged && vnow_ - j.enqueue_v > age_bound_s_) {
        j.wd_flagged = true;
        ++result_.stats.watchdog_violations;
        mx.counter("svc.sched.watchdog_violations").add(1.0);
      }
    }
  }
}

ScheduleResult Scheduler::run(std::vector<Arrival> arrivals) {
  if (ran_) throw std::invalid_argument("Scheduler::run: one run per scheduler");
  ran_ = true;
  rt::TraceSpan span("svc.sched");

  // Staged jobs (submitted and adopted) arrive at vtime 0, ahead of the
  // schedule.
  if (!staged_.empty()) {
    arrivals.insert(arrivals.begin(), std::make_move_iterator(staged_.begin()),
                    std::make_move_iterator(staged_.end()));
    staged_.clear();
  }
  std::set<std::string> ids;
  double prev = 0.0;
  for (const Arrival& a : arrivals) {
    detail::validate_spec(a.spec);
    if (a.vtime < prev)
      throw std::invalid_argument("Scheduler::run: arrivals must be sorted by vtime");
    prev = a.vtime;
    if (!ids.insert(a.spec.id).second)
      throw std::invalid_argument("Scheduler::run: duplicate job id '" + a.spec.id + "'");
  }

  // Tenant table: declared specs first (deterministic rotation order), then
  // any tenant the arrivals name.
  for (const TenantSpec& ts : options_.tenants) tenant_of(ts.name).weight = ts.weight;
  for (const Arrival& a : arrivals) tenant_of(a.spec.tenant);

  // Partition the shared budget by fair-share weight.
  rt::MemoryBudget* root = options_.supervisor.memory;
  if (root != nullptr) {
    double wsum = 0.0;
    for (const std::string& name : tenant_order_) wsum += tenants_[name]->weight;
    for (const std::string& name : tenant_order_) {
      Tenant& t = *tenants_[name];
      const int64_t share =
          root->capacity() > 0
              ? static_cast<int64_t>(static_cast<double>(root->capacity()) * t.weight / wsum)
              : 0;
      t.partition = std::make_unique<rt::MemoryBudget>(share, root);
      result_.stats.tenants[name].budget_capacity = share;
    }
  }
  for (const std::string& name : tenant_order_)
    result_.stats.tenants[name].weight = tenants_[name]->weight;

  // DRR quantum: the largest arrival is servable within one visit.
  double max_cost = 0.0, sum_cost = 0.0;
  for (const Arrival& a : arrivals) {
    const double c = predicted_cost(a.spec, -1);
    max_cost = std::max(max_cost, c);
    sum_cost += c;
  }
  quantum_units_ = std::max(1.0, max_cost);
  const double mean_cost_s =
      arrivals.empty() ? 0.0
                       : (sum_cost / static_cast<double>(arrivals.size())) *
                             options_.cost_per_unit_s;
  age_bound_s_ = options_.max_queue_age_s > 0.0
                     ? options_.max_queue_age_s
                     : (options_.queue_capacity > 0
                            ? 4.0 * options_.queue_capacity * mean_cost_s /
                                  options_.max_concurrency
                            : 0.0);

  size_t ai = 0;
  while (true) {
    dispatch_ready();
    double t_done = kInf;
    size_t done_idx = kNone;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].end_v < t_done ||
          (slots_[i].end_v == t_done && slots_[i].seq < slots_[done_idx].seq)) {
        t_done = slots_[i].end_v;
        done_idx = i;
      }
    }
    const double t_retry = retry_heap_.empty() ? kInf : retry_heap_.front().due;
    const double t_arr = ai < arrivals.size() ? arrivals[ai].vtime : kInf;
    const double t = std::min({t_done, t_retry, t_arr});
    if (t == kInf) break;
    vnow_ = std::max(vnow_, t);
    if (t_done <= t_retry && t_done <= t_arr) {
      process_completion(done_idx);
    } else if (t_retry <= t_arr) {
      std::pop_heap(retry_heap_.begin(), retry_heap_.end());
      const RetryEvent ev = retry_heap_.back();
      retry_heap_.pop_back();
      enqueue(ev.ji);  // fair share applies to retries too
    } else {
      handle_arrival(std::move(arrivals[ai++]));
    }
    check_starvation();
  }
  result_.stats.drain_vtime_s = vnow_;
  rt::MetricsRegistry::global().gauge("svc.sched.queue_depth").set(0.0);
  return std::move(result_);
}

}  // namespace finch::svc
