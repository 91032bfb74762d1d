#include "supervisor.hpp"

#include <algorithm>
#include <dirent.h>
#include <stdexcept>
#include <sys/stat.h>
#include <utility>

#include "job_file.hpp"
#include "runtime/manifest.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::svc {

namespace detail {

bool known_solver(const std::string& s) { return s == "cell" || s == "band" || s == "mgpu"; }

void mkdir_p(const std::string& path) {
  std::string cur;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty()) ::mkdir(cur.c_str(), 0755);  // EEXIST is fine
      if (i < path.size()) cur.push_back('/');
      continue;
    }
    cur.push_back(path[i]);
  }
}

void validate_spec(const JobSpec& spec) {
  if (spec.id.empty()) throw std::invalid_argument("submit: job id must not be empty");
  if (spec.nsteps <= 0)
    throw std::invalid_argument("submit: job '" + spec.id + "' has nsteps <= 0");
  if (!known_solver(spec.solver))
    throw std::invalid_argument("submit: job '" + spec.id + "' names unknown solver '" +
                                spec.solver + "'");
  for (const JobConfig& f : spec.fallbacks) {
    if (!f.solver.empty() && !known_solver(f.solver))
      throw std::invalid_argument("submit: job '" + spec.id + "' fallback names unknown solver '" +
                                  f.solver + "'");
  }
}

std::vector<JobSpec> scan_orphans(const std::string& durable_root,
                                  const std::set<std::string>& skip) {
  std::vector<JobSpec> orphans;
  if (durable_root.empty()) return orphans;
  DIR* d = ::opendir(durable_root.c_str());
  if (d == nullptr) return orphans;
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // deterministic adoption order
  for (const std::string& name : names) {
    if (skip.count(name)) continue;
    const std::string dir = durable_root + "/" + name;
    if (!file_exists(dir + "/job.json") || file_exists(dir + "/terminal.json")) continue;
    JobSpec spec;
    try {
      spec = job_from_json(read_text_file(dir + "/job.json"));
    } catch (const std::exception&) {
      continue;  // damaged spec: leave for inspection, do not adopt
    }
    if (spec.id != name) continue;
    orphans.push_back(std::move(spec));
  }
  return orphans;
}

}  // namespace detail

// ---- AttemptEngine ---------------------------------------------------------

AttemptEngine::AttemptEngine(const bte::BteScenario& base, const SupervisorOptions* options)
    : base_(base), options_(options) {
  validate_supervisor_options(*options_);
}

uint64_t AttemptEngine::attempt_seed(uint64_t base, int attempt) {
  constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;
  return attempt == 0 ? base : base ^ (kSeedMix * static_cast<uint64_t>(attempt + 1));
}

AttemptEngine::Resolved AttemptEngine::resolve(const JobSpec& spec, int rung) {
  JobConfig cfg;
  cfg.solver = spec.solver;
  cfg.nparts = spec.nparts;
  cfg.nx = spec.nx;
  cfg.ny = spec.ny;
  cfg.ndirs = spec.ndirs;
  cfg.nbands = spec.nbands;
  if (rung >= 0) {
    const JobConfig& f = spec.fallbacks[static_cast<size_t>(rung)];
    if (!f.solver.empty()) cfg.solver = f.solver;
    if (f.nparts > 0) cfg.nparts = f.nparts;
    if (f.nx > 0) cfg.nx = f.nx;
    if (f.ny > 0) cfg.ny = f.ny;
    if (f.ndirs > 0) cfg.ndirs = f.ndirs;
    if (f.nbands > 0) cfg.nbands = f.nbands;
  }
  Resolved rj;
  rj.spec = spec;
  rj.cfg = cfg;
  rj.scenario = base_;
  rj.scenario.nx = cfg.nx;
  rj.scenario.ny = cfg.ny;
  rj.scenario.ndirs = cfg.ndirs;
  rj.scenario.nbands = cfg.nbands;
  rj.scenario.nsteps = spec.nsteps;
  rj.physics = physics_.get(cfg.nbands, cfg.ndirs);
  return rj;
}

AttemptEngine::Result AttemptEngine::run_attempt(const Resolved& rj, int attempt_index,
                                                 uint64_t seed, const std::string& dir,
                                                 const std::string& cancel_reason,
                                                 const std::vector<rt::ChaosFault>& faults,
                                                 rt::MemoryBudget* memory) const {
  Result r;
  r.rec.index = attempt_index;
  r.rec.injector_seed = seed;

  rt::FaultInjector injector(seed);
  rt::ChaosSchedule sched;
  sched.seed = rj.spec.seed;
  sched.index = attempt_index;
  sched.solver = rj.cfg.solver;
  sched.nparts = rj.cfg.nparts;
  sched.nsteps = rj.spec.nsteps;
  sched.faults = faults;
  rt::ChaosEngine::arm(injector, sched);

  bte::ResilienceOptions ropt = options_->defense.to_options(&injector);
  if (rj.spec.max_rollbacks >= 0) ropt.max_rollbacks = rj.spec.max_rollbacks;
  if (rj.spec.ckpt_interval >= 0) ropt.checkpoint.interval = rj.spec.ckpt_interval;
  rt::CancelToken token;
  if (rj.spec.deadline_steps > 0) token.set_step_deadline(rj.spec.deadline_steps);
  if (!cancel_reason.empty()) token.request(cancel_reason);
  ropt.cancel = &token;
  ropt.memory = memory;
  if (!dir.empty()) ropt.durable.dir = dir;

  auto make = [&] {
    return std::make_unique<bte::AnySolver>(rj.cfg.solver, rj.scenario, rj.physics,
                                            rj.cfg.nparts);
  };
  std::unique_ptr<bte::AnySolver> solver;
  try {
    solver = make();
    bool resumed = false;
    if (!dir.empty() && file_exists(ropt.durable.manifest_path())) {
      try {
        const rt::RunManifest m = rt::read_manifest(ropt.durable.manifest_path());
        solver->resume_from(m, ropt);
        resumed = true;
      } catch (const std::exception&) {
        solver = make();  // damaged manifest / mismatched rung: start fresh
      }
    }
    if (!resumed) solver->enable_resilience(ropt);
    r.rec.resumed = resumed;
    r.rec.start_step = solver->step_index();
    const int remaining = rj.spec.nsteps - static_cast<int>(solver->step_index());
    if (remaining > 0) solver->run(remaining);
  } catch (const std::exception& e) {
    r.rec.error = e.what();
  }
  if (solver) {
    r.rec.end_step = solver->step_index();
    r.rec.virtual_s = solver->virtual_elapsed();
    r.rec.phase_total_s = solver->phase_total();
    r.stats = solver->resilience_stats();
  }
  r.rec.injected = injector.stats().total_injected();
  r.rec.events_logged = static_cast<int64_t>(injector.events().size());
  if (r.rec.error.empty() && solver) {
    if (r.rec.end_step >= rj.spec.nsteps) {
      r.completed = true;
      r.T = solver->temperature();
      r.I = solver->intensity();
    } else if (r.stats.cancel_drains > 0) {
      r.drained = true;
      r.drain_reason = token.drain_reason(r.rec.end_step, r.rec.virtual_s);
      if (r.drain_reason.empty()) r.drain_reason = "drained";
    } else {
      r.rec.error = "run stopped before step " + std::to_string(rj.spec.nsteps) +
                    " without a drain";
    }
  }
  // The solver's relief lambdas capture it; drop them while it is still
  // alive so a later reservation on a shared budget cannot fire a dangling
  // relief (the next attempt's solver re-registers its own chain).
  if (memory != nullptr) memory->clear_reliefs();
  return r;
}

AttemptEngine::Decision AttemptEngine::decide(const Result& r, int attempt_index,
                                              int failures) const {
  Decision d;
  if (r.completed) {
    d.next = Next::Complete;
    d.detail = attempt_index == 0
                   ? "completed"
                   : "completed after " + std::to_string(attempt_index) + " retries";
    return d;
  }
  if (r.drained) {
    d.next = Next::Drain;
    d.detail = r.drain_reason;
    return d;
  }
  const bool breaker = failures >= options_->quarantine.threshold;
  const bool budget_spent = attempt_index >= options_->retry.max_retries;
  if (breaker || budget_spent) {
    d.next = Next::Quarantine;
    std::string why = breaker ? "circuit breaker: " + std::to_string(failures) +
                                    " consecutive failures across distinct seeds"
                              : "retry budget exhausted after " + std::to_string(failures) +
                                    " failures";
    d.detail = why + "; last error: " + r.rec.error;
    return d;
  }
  d.next = Next::Retry;
  return d;
}

std::vector<rt::ChaosFault> AttemptEngine::minimize_repro(const Resolved& rj,
                                                          rt::MemoryBudget* memory) {
  std::vector<rt::ChaosFault> cur = rj.spec.faults;
  if (cur.size() < 2 || !options_->quarantine.minimize_repro) return cur;
  int budget = options_->quarantine.max_shrink_runs;
  auto& mx = rt::MetricsRegistry::global();
  auto fails = [&](const std::vector<rt::ChaosFault>& cand) {
    if (budget <= 0) return false;
    --budget;
    mx.counter("svc.shrink_runs").add(1.0);
    // Repro predicate: a fresh, non-durable, attempt-0 replay still fails.
    return !run_attempt(rj, 0, rj.spec.seed, "", "", cand, memory).rec.error.empty();
  };
  // ddmin over the fault list (complement reduction), same shape as the
  // chaos-campaign shrinker.
  size_t n = 2;
  while (cur.size() >= 2 && budget > 0) {
    const size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;
    for (size_t start = 0; start < cur.size() && !reduced; start += chunk) {
      std::vector<rt::ChaosFault> cand;
      for (size_t i = 0; i < cur.size(); ++i)
        if (i < start || i >= start + chunk) cand.push_back(cur[i]);
      if (!cand.empty() && cand.size() < cur.size() && fails(cand)) {
        cur = std::move(cand);
        n = std::max<size_t>(2, n - 1);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= cur.size()) break;
      n = std::min(cur.size(), n * 2);
    }
  }
  return cur;
}

// ---- Supervisor ------------------------------------------------------------

Supervisor::Supervisor(const bte::BteScenario& base, SupervisorOptions options)
    : options_(std::move(options)), engine_(base, &options_) {
  if (!options_.durable_root.empty()) detail::mkdir_p(options_.durable_root);
}

std::string Supervisor::job_dir(const std::string& id) const {
  return options_.durable_root.empty() ? std::string() : options_.durable_root + "/" + id;
}

void Supervisor::submit(JobSpec spec) {
  detail::validate_spec(spec);
  if (known_ids_.count(spec.id))
    throw std::invalid_argument("submit: duplicate job id '" + spec.id + "'");
  const std::string dir = job_dir(spec.id);
  if (!dir.empty()) {
    detail::mkdir_p(dir);
    write_text_file_atomic(dir + "/job.json", job_to_json(spec));
  }
  known_ids_.insert(spec.id);
  queue_.push_back(QueueEntry{std::move(spec), /*adopted=*/false});
  auto& mx = rt::MetricsRegistry::global();
  mx.counter("svc.jobs_submitted").add(1.0);
  mx.gauge("svc.queue_depth").set(static_cast<double>(queue_.size()));
}

std::vector<std::string> Supervisor::adopt_orphans() {
  std::vector<std::string> adopted;
  if (options_.durable_root.empty()) return adopted;
  rt::TraceSpan span("svc.adopt");
  auto& mx = rt::MetricsRegistry::global();
  for (JobSpec& spec : detail::scan_orphans(options_.durable_root, known_ids_)) {
    known_ids_.insert(spec.id);
    adopted.push_back(spec.id);
    queue_.push_back(QueueEntry{std::move(spec), /*adopted=*/true});
    mx.counter("svc.adopted").add(1.0);
  }
  mx.gauge("svc.queue_depth").set(static_cast<double>(queue_.size()));
  return adopted;
}

bool Supervisor::request_cancel(const std::string& id, std::string reason) {
  if (!known_ids_.count(id) || terminal_ids_.count(id)) return false;
  cancel_requests_[id] = reason.empty() ? "cancelled" : std::move(reason);
  return true;
}

std::vector<JobOutcome> Supervisor::drain() {
  std::vector<JobOutcome> outcomes;
  auto& mx = rt::MetricsRegistry::global();
  while (!queue_.empty()) {
    QueueEntry entry = std::move(queue_.front());
    queue_.erase(queue_.begin());
    mx.gauge("svc.queue_depth").set(static_cast<double>(queue_.size()));
    outcomes.push_back(run_job(entry));
  }
  return outcomes;
}

void Supervisor::finalize(JobOutcome& out, TerminalState state, std::string detail,
                          double job_virtual_s, int64_t reserved_bytes,
                          const std::string& dir) {
  out.state = state;
  out.detail = std::move(detail);
  out.time_to_terminal_s = job_virtual_s;
  virtual_now_ += job_virtual_s;
  if (reserved_bytes > 0 && options_.memory != nullptr)
    options_.memory->release(reserved_bytes);
  if (!dir.empty()) {
    try {
      write_text_file_atomic(dir + "/terminal.json", terminal_to_json(state, out.detail));
    } catch (const std::exception& e) {
      out.detail += " (terminal record not durable: " + std::string(e.what()) + ")";
    }
  }
  terminal_ids_.insert(out.spec.id);
  cancel_requests_.erase(out.spec.id);
  auto& mx = rt::MetricsRegistry::global();
  mx.counter(std::string("svc.jobs_") + terminal_state_name(state)).add(1.0);
  mx.histogram(std::string("svc.latency.") + terminal_state_name(state))
      .observe(out.time_to_terminal_s);
}

JobOutcome Supervisor::run_job(const QueueEntry& entry) {
  rt::TraceSpan span("svc.job");
  const JobSpec& spec = entry.spec;
  JobOutcome out;
  out.spec = spec;
  out.adopted = entry.adopted;
  const std::string dir = job_dir(spec.id);
  auto& mx = rt::MetricsRegistry::global();

  // Precedence: an external cancel beats everything, including shedding —
  // a cancelled queued job must not be reported as an admission decision.
  {
    auto it = cancel_requests_.find(spec.id);
    if (it != cancel_requests_.end()) {
      out.ran = engine_.resolve(spec, -1).cfg;
      finalize(out, TerminalState::Cancelled, "cancelled before start: " + it->second, 0.0, 0,
               dir);
      return out;
    }
  }

  // Admission: walk the ladder with pure arithmetic against the budget —
  // the shed path never calls into MemoryBudget at all.
  int chosen = -2;
  AttemptEngine::Resolved rj;
  bte::MemoryDemand demand;
  for (int rung = -1; rung < static_cast<int>(spec.fallbacks.size()); ++rung) {
    AttemptEngine::Resolved cand = engine_.resolve(spec, rung);
    bte::MemoryDemand d =
        bte::estimate_memory_demand(cand.cfg.solver, cand.scenario, *cand.physics,
                                    cand.cfg.nparts);
    const rt::MemoryBudget* mem = options_.memory;
    const bool fits = mem == nullptr || mem->capacity() <= 0 ||
                      mem->in_use() + d.total_bytes() <= mem->capacity();
    if (fits) {
      chosen = rung;
      rj = std::move(cand);
      demand = d;
      break;
    }
  }
  if (chosen == -2) {
    out.ran = engine_.resolve(spec, -1).cfg;
    finalize(out, TerminalState::Shed,
             "admission: no rung of the fallback ladder fits the memory budget", 0.0, 0, dir);
    return out;
  }
  out.ran = rj.cfg;
  out.degraded_rung = chosen;
  if (chosen >= 0) mx.counter("svc.degraded").add(1.0);

  int64_t reserved = 0;
  if (options_.memory != nullptr && options_.memory->capacity() > 0) {
    reserved = demand.admission_bytes();
    if (!options_.memory->try_reserve(reserved)) {
      // Cannot happen after the arithmetic fit above in a single-threaded
      // supervisor; kept as a defensive terminal path.
      finalize(out, TerminalState::Shed, "admission: reservation failed", 0.0, 0, dir);
      return out;
    }
  }

  // Attempt compute and retry backoff are summed apart: the job's virtual time
  // is (Σ attempt virtual_s) + (Σ backoff_s), each summed in attempt order.
  double job_compute = 0.0;
  double job_backoff = 0.0;
  double pending_backoff = 0.0;
  int failures = 0;
  for (int attempt = 0;; ++attempt) {
    std::string cancel_reason;
    {
      auto it = cancel_requests_.find(spec.id);
      if (it != cancel_requests_.end()) cancel_reason = it->second;
    }
    const uint64_t seed = AttemptEngine::attempt_seed(spec.seed, attempt);
    rt::SpanAttrs attrs;
    attrs.step = attempt;
    rt::TraceSpan aspan("svc.attempt", attrs);
    AttemptEngine::Result r =
        engine_.run_attempt(rj, attempt, seed, dir, cancel_reason, spec.faults, options_.memory);
    r.rec.backoff_s = pending_backoff;
    pending_backoff = 0.0;
    job_compute += r.rec.virtual_s;
    job_backoff += r.rec.backoff_s;
    const double job_virtual = job_compute + job_backoff;
    out.attempts.push_back(r.rec);
    out.stats = r.stats;
    out.final_step = r.rec.end_step;

    if (!r.completed && !r.drained) ++failures;
    const AttemptEngine::Decision d = engine_.decide(r, attempt, failures);
    switch (d.next) {
      case AttemptEngine::Next::Complete:
        out.temperature = std::move(r.T);
        out.intensity = std::move(r.I);
        finalize(out, TerminalState::Completed, d.detail, job_virtual, reserved, dir);
        return out;
      case AttemptEngine::Next::Drain:
        finalize(out, TerminalState::Cancelled, d.detail, job_virtual, reserved, dir);
        return out;
      case AttemptEngine::Next::Quarantine: {
        rt::ChaosSchedule repro;
        repro.seed = spec.seed;
        repro.index = 0;
        repro.solver = rj.cfg.solver;
        repro.nparts = rj.cfg.nparts;
        repro.nsteps = spec.nsteps;
        repro.faults = engine_.minimize_repro(rj, options_.memory);
        out.repro_json = rt::schedule_to_json(repro);
        if (!dir.empty()) {
          out.repro_path = dir + "/QUARANTINE_repro.json";
          try {
            write_text_file_atomic(out.repro_path, out.repro_json);
          } catch (const std::exception&) {
            out.repro_path.clear();
          }
        }
        finalize(out, TerminalState::Quarantined, d.detail, job_virtual, reserved, dir);
        return out;
      }
      case AttemptEngine::Next::Retry:
        // Charged into job_backoff when the next attempt records it.
        pending_backoff = backoff_with_jitter(options_.retry, spec.id, failures - 1);
        mx.counter("svc.retries").add(1.0);
        mx.counter("svc.backoff_seconds").add(pending_backoff);
        break;
    }
  }
}

}  // namespace finch::svc
