// service-batch: a seeded stream of small jobs through one svc::Scheduler
// (max_concurrency = min(4, nproc), unbounded queue, 3 tenants, durable root
// in a fresh directory). Per-attempt set-up and the scheduler's waves
// dominate; every job's sweep fits in L2.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <thread>

#include "bte/chaos_campaign.hpp"
#include "bte/solver_factory.hpp"
#include "bte/supervisor_campaign.hpp"
#include "probes.hpp"
#include "runtime/fault.hpp"
#include "svc/scheduler.hpp"
#include "svc/supervisor.hpp"

namespace ledger {

namespace svc = finch::svc;
namespace rt = finch::rt;

namespace {

// Jobs per second on the reference host (4-core Xeon, GCC 12 Release). Only
// sizes the stream from --seconds; the stream is then fixed by the seed.
constexpr double kNominalJobsPerS = 40.0;
constexpr int kSetupReps = 101;
constexpr int kRounds = 5;
constexpr double kFlakyFraction = 0.08;
constexpr double kDeadlineFraction = 0.05;
constexpr int kTenants = 3;
constexpr int kMinSteps = 6, kMaxSteps = 14;

struct Shape {
  const char* solver;
  int nparts, nx, ny;
};
// Every (solver, parts, grid) class appears equally often in a stream, so the
// seed reorders and relabels the work without changing its cost.
constexpr Shape kShapes[] = {
    {"cell", 3, 16, 12}, {"cell", 4, 24, 18}, {"cell", 3, 32, 24},
    {"cell", 4, 16, 12}, {"cell", 3, 24, 18}, {"cell", 4, 32, 24},
    {"band", 3, 16, 12}, {"band", 4, 24, 18}, {"band", 3, 32, 24},
    {"band", 4, 16, 12}, {"band", 3, 24, 18}, {"band", 4, 32, 24},
    {"mgpu", 3, 16, 12}, {"mgpu", 4, 24, 18}, {"mgpu", 3, 32, 24},
    {"mgpu", 4, 16, 12}, {"mgpu", 3, 24, 18}, {"mgpu", 4, 32, 24},
};
constexpr int kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

enum class Kind { Plain, Flaky, Deadline };

int concurrency() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

bte::BteScenario service_base() { return bte::BteScenario::small(); }

std::vector<size_t> seeded_permutation(size_t n, uint64_t seed, uint64_t salt) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(splitmix(seed ^ splitmix(salt + i)) % i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

// Halo consultations of the canonical fail-once job (cell, 4 parts, 16x12,
// 8x8) over `nsteps` fault-free steps: the event budget on which the two
// engineered corruptions are placed, as SupervisorCampaign does.
int64_t halo_consults(const bte::BteScenario& base, int nsteps,
                      std::shared_ptr<const bte::BtePhysics> phys) {
  bte::BteScenario scen = base;
  scen.nx = 16;
  scen.ny = 12;
  scen.ndirs = 8;
  scen.nbands = 8;
  scen.nsteps = nsteps;
  rt::FaultInjector injector(1);
  bte::AnySolver solver("cell", scen, std::move(phys), 4);
  solver.enable_resilience(bte::ChaosDefense{}.to_options(&injector));
  solver.run(nsteps);
  for (const rt::FaultCounter& c : injector.export_counters())
    if (c.kind == static_cast<int>(rt::FaultKind::TransferCorruption) && c.site == "halo")
      return c.consulted;
  return 0;
}

struct Stream {
  std::vector<svc::Arrival> arrivals;
  std::vector<Kind> kinds;  // indexed like arrivals
};

// The stream is one fixed multiset of jobs, so its cost does not depend on
// the seed: the fail-once jobs, the deadline jobs, and plain jobs cycling
// through every (solver, parts, grid) class and step count. The seed permutes
// the arrival order, which sets each job's id, tenant, injector seed and
// arrival time.
Stream make_stream(uint64_t seed, int njobs, const bte::BteScenario& base) {
  const size_t n = static_cast<size_t>(njobs);
  const size_t nflaky = static_cast<size_t>(std::lround(kFlakyFraction * njobs));
  const size_t ndeadline = static_cast<size_t>(std::lround(kDeadlineFraction * njobs));
  constexpr int kStepSpan = kMaxSteps - kMinSteps + 1;
  const std::vector<size_t> order = seeded_permutation(n, seed, 11);
  auto phys = std::make_shared<const bte::BtePhysics>(8, 8);
  std::map<int, int64_t> consults;

  Stream st;
  double units = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = order[i];
    svc::JobSpec s;
    s.id = "job-" + std::to_string(i);
    s.seed = splitmix(seed + 0x20003ull * i + 1) | 1;
    s.tenant = "tenant-" + std::to_string(i % kTenants);
    s.ndirs = 8;
    s.nbands = 8;
    Kind kind = Kind::Plain;
    if (j < nflaky) {
      // Fail once on a halo corruption with no rollback budget left, then
      // complete by resuming from the durable manifest.
      kind = Kind::Flaky;
      s.solver = "cell";
      s.nparts = 4;
      s.nx = 16;
      s.ny = 12;
      s.nsteps = kMinSteps + static_cast<int>((4 * j) % kStepSpan);
      s.max_rollbacks = 1;
      s.ckpt_interval = 1;
      auto it = consults.find(s.nsteps);
      if (it == consults.end())
        it = consults.emplace(s.nsteps, halo_consults(base, s.nsteps, phys)).first;
      const int64_t per_step = it->second / s.nsteps;
      for (int step : {s.nsteps / 3, (2 * s.nsteps) / 3}) {
        rt::ChaosFault f;
        f.kind = rt::FaultKind::TransferCorruption;
        f.site = "halo";
        f.first_event = step * per_step + per_step / 2;
        f.stride = 1;
        f.count = 1;
        s.faults.push_back(f);
      }
    } else {
      const size_t p = j - nflaky;
      const Shape& sh = kShapes[(j < nflaky + ndeadline ? 5 * p : p) % kNumShapes];
      s.solver = sh.solver;
      s.nparts = sh.nparts;
      s.nx = sh.nx;
      s.ny = sh.ny;
      s.nsteps = kMinSteps + static_cast<int>((p + p / kNumShapes) % kStepSpan);
      if (j < nflaky + ndeadline) {
        kind = Kind::Deadline;
        s.deadline_steps = std::max(1, s.nsteps / 2);
      }
    }
    units += svc::predict_cost_units(svc::JobConfig{s.solver, s.nparts, s.nx, s.ny, s.ndirs,
                                                    s.nbands},
                                     s.nsteps);
    st.arrivals.push_back(svc::Arrival{0.0, std::move(s), false});
    st.kinds.push_back(kind);
  }
  // Open-loop Poisson arrivals on the virtual clock at twice the capacity of
  // the scheduler's slots, as in SupervisorCampaign::overload_stream.
  const double mean_service_s = units / njobs * svc::SchedulerOptions{}.cost_per_unit_s;
  const double rate = 2.0 * concurrency() / mean_service_s;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - std::min(unit_draw(seed, 0x5000 + i), 1.0 - 1e-12)) / rate;
    st.arrivals[i].vtime = t;
  }
  return st;
}

svc::SchedulerOptions scheduler_options(const std::string& durable_root) {
  svc::SchedulerOptions o;
  o.supervisor.durable_root = durable_root;
  o.max_concurrency = concurrency();
  o.queue_capacity = 0;
  for (int t = 0; t < kTenants; ++t) o.tenants.push_back({"tenant-" + std::to_string(t), 1.0});
  return o;
}

struct BatchRun {
  svc::SchedulerOptions options;
  svc::ScheduleResult result;
  double setup_s = 0.0;  // median Scheduler construction
  double run_s = 0.0;    // Scheduler::run wall
  int64_t durable_bytes = 0;
};

BatchRun run_batch(const bte::BteScenario& base, const Stream& st, const std::string& root,
                   int setup_reps) {
  BatchRun b;
  b.options = scheduler_options(root);
  remove_tree(root);
  std::vector<double> setup_s;
  std::unique_ptr<svc::Scheduler> sched;
  for (int i = 0; i < std::max(1, setup_reps); ++i) {
    sched.reset();
    Span sp("svc.scheduler_construct");
    sched = std::make_unique<svc::Scheduler>(base, b.options);
    setup_s.push_back(sp.stop());
  }
  b.setup_s = median(setup_s);
  {
    Span sp("svc.scheduler_run");
    b.result = sched->run(st.arrivals);
    b.run_s = sp.stop();
  }
  sched.reset();
  b.durable_bytes = tree_bytes(root);
  return b;
}

int64_t executed_dof_steps(const svc::JobOutcome& o) {
  int64_t steps = 0;
  for (const svc::AttemptRecord& a : o.attempts) steps += a.end_step - a.start_step;
  return steps * o.ran.nx * o.ran.ny * o.ran.ndirs * o.ran.nbands;
}

// Gates: the campaign oracle (terminal, bit-exact vs reference, accounting,
// resume) plus each job's expected terminal state, no sheds, no rejects.
// With `count_ops` each job is one operation; otherwise only failures count.
// Returns how many jobs reached their expected terminal state.
int gate_batch(Report& r, bte::SupervisorCampaign& campaign, const Stream& st, BatchRun& b,
               bool perturb, bool count_ops) {
  std::map<std::string, Kind> kind_of;
  for (size_t i = 0; i < st.arrivals.size(); ++i) kind_of[st.arrivals[i].spec.id] = st.kinds[i];
  if (perturb) {
    for (svc::JobOutcome& o : b.result.outcomes)
      if (o.state == svc::TerminalState::Completed && !o.temperature.empty()) {
        o.temperature[0] = std::nextafter(o.temperature[0], INFINITY);
        break;
      }
  }
  const bte::OverloadReport rep =
      campaign.judge_overload(st.arrivals, b.result, b.options, /*fairness_bound=*/0.0);
  std::map<std::string, std::string> violation_of;
  for (const std::string& v : rep.base.violations)
    violation_of.emplace(v.substr(0, v.find(':')), v);
  for (const std::string& v : rep.violations) r.fail("scheduler: " + v);
  if (!b.result.stats.rejects.empty() || !b.result.stats.shed_audits.empty())
    r.fail("jobs were rejected or shed");

  int good = 0;
  for (const svc::JobOutcome& o : b.result.outcomes) {
    const Kind k = kind_of[o.spec.id];
    const svc::TerminalState want =
        k == Kind::Deadline ? svc::TerminalState::Cancelled : svc::TerminalState::Completed;
    const size_t attempts = k == Kind::Flaky ? 2 : 1;
    std::string why;
    if (o.state != want)
      why = std::string("ended ") + svc::terminal_state_name(o.state);
    else if (o.attempts.size() != attempts)
      why = std::to_string(o.attempts.size()) + " attempts";
    else if (k == Kind::Flaky && !o.attempts[1].resumed)
      why = "retry did not resume from the manifest";
    else if (violation_of.count(o.spec.id) > 0)
      why = violation_of[o.spec.id];
    if (why.empty()) ++good;
    if (count_ops)
      r.operation(why.empty(), o.spec.id + ": " + why);
    else if (!why.empty())
      r.fail(o.spec.id + ": " + why);
  }
  if (b.result.outcomes.size() != st.arrivals.size())
    r.fail(std::to_string(st.arrivals.size() - b.result.outcomes.size()) + " jobs not terminal");
  std::cout << "# gate: " << good << "/" << st.arrivals.size()
            << " jobs reached their expected terminal state; oracle violations "
            << rep.base.violations.size() + rep.violations.size() << "\n";
  return good;
}

// Every job's attempts replayed one after another on one thread through the
// same AttemptEngine calls the scheduler makes, and the plain AnySolver
// build+run of each fault-free job for the per-attempt overhead.
void serial_pass(const Options& opt, Report& r, const bte::BteScenario& base, const Stream& st,
                 double scheduler_run_s) {
  const svc::SchedulerOptions o = scheduler_options(opt.work_dir + "/serial");
  svc::AttemptEngine engine(base, &o.supervisor);
  remove_tree(o.supervisor.durable_root);
  std::vector<double> resolve_s, attempt_s, overhead_s;
  double serial_s = 0.0;
  for (size_t i = 0; i < st.arrivals.size(); ++i) {
    const svc::JobSpec& spec = st.arrivals[i].spec;
    const std::string dir = o.supervisor.durable_root + "/" + spec.id;
    make_dirs(dir);
    Span job("svc.job", Tracer::get().new_op());
    svc::AttemptEngine::Resolved rj;
    {
      Span sp("svc.resolve");
      rj = engine.resolve(spec, -1);
      resolve_s.push_back(sp.stop());
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
      Span sp("svc.run_attempt");
      const svc::AttemptEngine::Result res =
          engine.run_attempt(rj, attempt, svc::AttemptEngine::attempt_seed(spec.seed, attempt), dir,
                             "", spec.faults, nullptr);
      attempt_s.push_back(sp.stop());
      serial_s += attempt_s.back();
      if (res.completed || res.drained) break;
    }
    if (st.kinds[i] == Kind::Plain) {
      Span sp("bte.anysolver_build_run");
      bte::AnySolver solver(rj.cfg.solver, rj.scenario, rj.physics, rj.cfg.nparts);
      solver.enable_resilience(o.supervisor.defense.to_options(nullptr));
      solver.run(spec.nsteps);
      overhead_s.push_back(attempt_s.back() - sp.stop());
    }
  }
  remove_tree(o.supervisor.durable_root);
  r.metric("svc.resolve_us", median(resolve_s) * 1e6, "us");
  r.metric("svc.attempt_ms_p50", percentile(attempt_s, 50) * 1e3, "ms");
  r.metric("svc.attempt_ms_p90", percentile(attempt_s, 90) * 1e3, "ms");
  r.metric("svc.attempt_overhead_ms_p50", percentile(overhead_s, 50) * 1e3, "ms");
  r.metric("svc.concurrency_speedup", serial_s / scheduler_run_s, "ratio");
}

int njobs_for(const Options& opt) {
  return opt.smoke ? 18
                   : std::max(40, static_cast<int>(std::lround(opt.seconds * kNominalJobsPerS / kRounds)));
}

// svc.* from a traced batch: the same stream again untraced (for the tracing
// overhead and the counts), then the serial replay.
void record_service_layers(const Options& opt, Report& r, const bte::BteScenario& base,
                           const Stream& st, const BatchRun& traced) {
  Tracer& tracer = Tracer::get();
  const bool tracing = tracer.enabled();
  tracer.enable(false);
  BatchRun plain = run_batch(base, st, opt.work_dir + "/durable-plain", 1);
  remove_tree(opt.work_dir + "/durable-plain");
  tracer.enable(tracing);
  bte::SupervisorCampaign campaign(base);
  gate_batch(r, campaign, st, plain, false, false);
  r.metric("trace.overhead_pct", (traced.run_s / plain.run_s - 1.0) * 100.0, "%");
  r.metric("svc.retries", plain.result.stats.retries, "count");
  int resumed = 0;
  for (const svc::JobOutcome& o : plain.result.outcomes)
    for (size_t k = 1; k < o.attempts.size(); ++k) resumed += o.attempts[k].resumed ? 1 : 0;
  r.metric("svc.resumed_retries", resumed, "count");
  r.metric("svc.dispatched", plain.result.stats.dispatched, "count");
  r.metric("svc.durable_bytes", static_cast<double>(plain.durable_bytes), "B");
  serial_pass(opt, r, base, st, plain.run_s);
}

}  // namespace

void measure_service_layers(const Options& opt, Report& r, int njobs) {
  const bte::BteScenario base = service_base();
  const Stream st = make_stream(opt.seed, njobs, base);
  BatchRun traced = run_batch(base, st, opt.work_dir + "/durable-probe", 1);
  remove_tree(opt.work_dir + "/durable-probe");
  bte::SupervisorCampaign campaign(base);
  gate_batch(r, campaign, st, traced, false, false);
  record_service_layers(opt, r, base, st, traced);
}

void run_service_batch(const Options& opt, Report& r) {
  const bte::BteScenario base = service_base();
  const int njobs = njobs_for(opt);
  std::cout << "# service-batch: a warm-up round and " << kRounds << " measured rounds of "
            << njobs << " jobs, " << kTenants << " tenants, max_concurrency " << concurrency()
            << "\n";

  // Each round is its own seeded batch over the same multiset of jobs, run
  // through a fresh Scheduler and durable root; round 0 warms the page cache
  // and allocator and is gated but not timed. Medians over the measured
  // rounds are reported. The roots are removed after the last round, so no
  // deletion traffic lands in a measurement.
  bte::SupervisorCampaign campaign(base);
  std::vector<double> setup_s, dof_rate, job_rate, fields;
  Stream st;
  BatchRun b;
  for (int round = 0; round <= kRounds; ++round) {
    st = make_stream(splitmix(opt.seed) + static_cast<uint64_t>(round), njobs, base);
    b = run_batch(base, st, opt.work_dir + "/durable-" + std::to_string(round), kSetupReps);
    const int good = gate_batch(r, campaign, st, b, opt.perturb && round == kRounds, true);
    int64_t dof_steps = 0;
    std::map<std::string, const svc::JobOutcome*> by_id;
    for (const svc::JobOutcome& o : b.result.outcomes) {
      dof_steps += executed_dof_steps(o);
      by_id[o.spec.id] = &o;
    }
    for (const auto& [id, o] : by_id)
      fields.insert(fields.end(), o->temperature.begin(), o->temperature.end());
    std::cout << "# round " << round << ": Scheduler::run " << b.run_s << " s, "
              << static_cast<double>(dof_steps) / b.run_s << " DOF.step/s, " << good / b.run_s
              << " jobs/s" << (round == 0 ? " (warm-up)" : "") << "\n";
    if (round == 0) continue;
    setup_s.push_back(b.setup_s);
    dof_rate.push_back(static_cast<double>(dof_steps) / b.run_s);
    job_rate.push_back(good / b.run_s);
  }
  for (int round = 0; round <= kRounds; ++round)
    remove_tree(opt.work_dir + "/durable-" + std::to_string(round));
  print_digest("completed.T", fields);
  r.metric("setup_s", median(setup_s), "s");
  r.metric("dof_steps_per_s", median(dof_rate), "DOF.step/s");
  r.metric("jobs_per_s", median(job_rate), "jobs/s");
  if (!opt.trace) return;

  record_service_layers(opt, r, base, st, b);
  std::vector<finch::mesh::Mesh> meshes;
  for (const auto& [nx, ny] : {std::pair{16, 12}, std::pair{24, 18}, std::pair{32, 24}})
    meshes.push_back(finch::mesh::Mesh::structured_quad(nx, ny, base.lx, base.ly));
  probe_partition(meshes, 4, r, 5);
  fill_missing_layers(opt, r);
}

}  // namespace ledger
