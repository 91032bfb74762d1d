#include "attempt_engine.hpp"

#include <algorithm>
#include <dirent.h>
#include <stdexcept>
#include <sys/stat.h>
#include <utility>

#include "job_file.hpp"
#include "runtime/manifest.hpp"
#include "runtime/metrics.hpp"

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
  const std::string job = "submit: job '" + spec.id + "'";
  if (spec.nsteps <= 0) throw std::invalid_argument(job + " has nsteps <= 0");
  if (!known_solver(spec.solver))
    throw std::invalid_argument(job + " names unknown solver '" + spec.solver + "'");
  const std::pair<const char*, int> dims[] = {{"nparts", spec.nparts}, {"nx", spec.nx},
                                              {"ny", spec.ny},         {"ndirs", spec.ndirs},
                                              {"nbands", spec.nbands}};
  for (const auto& [name, v] : dims)
    if (v <= 0) throw std::invalid_argument(job + " has " + name + " <= 0");
  for (const JobConfig& f : spec.fallbacks) {
    if (!f.solver.empty() && !known_solver(f.solver))
      throw std::invalid_argument(job + " fallback names unknown solver '" + f.solver + "'");
    const std::pair<const char*, int> overrides[] = {
        {"nparts", f.nparts}, {"nx", f.nx}, {"ny", f.ny}, {"ndirs", f.ndirs}, {"nbands", f.nbands}};
    for (const auto& [name, v] : overrides)
      if (v < 0) throw std::invalid_argument(job + " fallback has " + name + " < 0");
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

namespace {
// Budget of shrink re-executions for one quarantine repro.
constexpr int kMaxShrinkRuns = 64;
}  // namespace

std::vector<rt::ChaosFault> AttemptEngine::minimize_repro(const Resolved& rj,
                                                          rt::MemoryBudget* memory) {
  std::vector<rt::ChaosFault> cur = rj.spec.faults;
  if (cur.size() < 2) return cur;
  int budget = kMaxShrinkRuns;
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

}  // namespace finch::svc
