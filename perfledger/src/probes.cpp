#include "probes.hpp"

#include <cmath>
#include <iostream>
#include <numeric>
#include <type_traits>

#include "bte/direct_solver.hpp"
#include "bte/solver_factory.hpp"
#include "core/codegen/native_backend.hpp"
#include "core/codegen/step_solver_base.hpp"
#include "core/symbolic/operators.hpp"
#include "core/symbolic/simplify.hpp"
#include "core/symbolic/transform.hpp"
#include "mesh/partition.hpp"
#include "runtime/metrics.hpp"

namespace ledger {

namespace codegen = finch::codegen;
namespace rt = finch::rt;
namespace sym = finch::sym;

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_draw(uint64_t seed, uint64_t salt) {
  return static_cast<double>(splitmix(seed ^ splitmix(salt)) >> 11) * 0x1.0p-53;
}

namespace {
constexpr double kCellSize = 525e-6 / 120.0;  // the paper's §III.A resolution
}

bte::BteScenario hotspot_scenario(uint64_t seed, bool smoke) {
  bte::BteScenario s;
  s.nx = s.ny = smoke ? 12 : 48;
  s.lx = s.ly = s.nx * kCellSize;
  s.ndirs = smoke ? 8 : 20;
  s.nbands = smoke ? 8 : 40;
  s.dt = 1e-12;
  s.hot_center_frac = 0.35 + 0.30 * unit_draw(seed, 1);
  s.hot_w = 8e-6 + 8e-6 * unit_draw(seed, 2);
  s.backend = "native";
  return s;
}

bte::BteScenario compact_scenario() {
  bte::BteScenario s;
  s.nx = 24;
  s.ny = 18;
  s.lx = s.nx * kCellSize;
  s.ly = s.ny * kCellSize;
  s.ndirs = 8;
  s.nbands = 8;
  s.backend = "native";
  return s;
}

int64_t dof_count(const bte::BteScenario& s, const bte::BtePhysics& p) {
  return static_cast<int64_t>(s.nx) * s.ny * p.num_dirs() * p.num_bands();
}

std::shared_ptr<const bte::BtePhysics> build_physics(const bte::BteScenario& s, double* seconds) {
  Span sp("bte.physics_build");
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  *seconds = sp.stop();
  return phys;
}

double jit_counter(const char* name) { return rt::MetricsRegistry::global().value(name); }

bte::ResilienceOptions armed_resilience() {
  bte::ResilienceOptions o;
  o.sdc.enabled = true;
  return o;
}

// ---- strategies -------------------------------------------------------------------

namespace {

template <class Solver>
std::unique_ptr<Solver> make_solver(const bte::BteScenario& s,
                                    std::shared_ptr<const bte::BtePhysics> phys, int nparts) {
  return std::make_unique<Solver>(s, std::move(phys), nparts);
}

template <class Solver>
StrategyRun drive(const std::string& kind, const bte::BteScenario& s,
                  std::shared_ptr<const bte::BtePhysics> phys, int nparts, int steps,
                  bool resilient, bool keep_snapshot) {
  StrategyRun out;
  const int64_t op = Tracer::get().new_op();
  Span solve("bte." + kind + ".solve", op);
  std::unique_ptr<Solver> solver;
  {
    Span sp("bte." + kind + ".build");
    solver = make_solver<Solver>(s, phys, nparts);
    if (resilient) solver->enable_resilience(armed_resilience());
    out.build_s = sp.stop();
  }
  auto gpu_totals = [&solver](double* bytes, double* launches) {
    if constexpr (std::is_same_v<Solver, bte::MultiGpuSolver>) {
      for (int d = 0; d < solver->num_devices(); ++d) {
        const rt::GpuCounters& c = solver->device(d).counters();
        *bytes += static_cast<double>(c.bytes_h2d + c.bytes_d2h);
        *launches += static_cast<double>(c.kernel_launches);
      }
    }
  };
  double bytes0 = 0.0, launches0 = 0.0;
  gpu_totals(&bytes0, &launches0);
  // A traced run traces every other step, so the odd and even samples give
  // the tracing overhead.
  Tracer& tracer = Tracer::get();
  const bool tracing = tracer.enabled();
  out.step_s.reserve(static_cast<size_t>(steps));
  const std::string step_name = "bte." + kind + ".step";
  for (int k = 0; k < steps; ++k) {
    if (tracing) tracer.enable(k % 2 == 1);
    Span sp(step_name, op);
    solver->run(1);
    out.step_s.push_back(sp.stop());
  }
  tracer.enable(tracing);
  out.virtual_s = solver->virtual_elapsed();
  out.checkpoints = solver->resilience_stats().checkpoints;
  if constexpr (std::is_same_v<Solver, bte::CellPartitionedSolver>) {
    out.halo_bytes_per_step = static_cast<double>(solver->comm().bytes_per_step);
    out.halo_messages_per_step = static_cast<double>(solver->comm().messages_per_step);
    out.T = solver->gather_temperature();
  } else {
    out.T = solver->temperature();
  }
  if constexpr (std::is_same_v<Solver, bte::BandPartitionedSolver>)
    out.gather_bytes_per_step = static_cast<double>(solver->comm().bytes_per_step);
  double bytes1 = 0.0, launches1 = 0.0;
  gpu_totals(&bytes1, &launches1);
  out.gpu_bytes_per_step = (bytes1 - bytes0) / steps;
  out.gpu_launches_per_step = (launches1 - launches0) / steps;
  out.I = solver->gather_intensity();
  if (keep_snapshot) out.snapshot = solver->snapshot();
  return out;
}

}  // namespace

double build_strategy(const std::string& kind, const bte::BteScenario& s,
                      std::shared_ptr<const bte::BtePhysics> phys, int nparts, bool resilient) {
  Span sp("bte." + kind + ".build");
  auto build = [&](auto solver) {
    if (resilient) solver->enable_resilience(armed_resilience());
    return sp.stop();
  };
  if (kind == "cell") return build(make_solver<bte::CellPartitionedSolver>(s, phys, nparts));
  if (kind == "band") return build(make_solver<bte::BandPartitionedSolver>(s, phys, nparts));
  return build(make_solver<bte::MultiGpuSolver>(s, phys, nparts));
}

StrategyRun run_strategy(const std::string& kind, const bte::BteScenario& s,
                         std::shared_ptr<const bte::BtePhysics> phys, int nparts, int steps,
                         bool resilient, bool keep_snapshot) {
  if (kind == "cell")
    return drive<bte::CellPartitionedSolver>(kind, s, phys, nparts, steps, resilient, keep_snapshot);
  if (kind == "band")
    return drive<bte::BandPartitionedSolver>(kind, s, phys, nparts, steps, resilient, keep_snapshot);
  return drive<bte::MultiGpuSolver>(kind, s, phys, nparts, steps, resilient, keep_snapshot);
}

void record_strategy(Report& r, const std::string& kind, const StrategyRun& armed,
                     const StrategyRun& plain) {
  const std::string p = "bte." + kind + ".";
  const double steps = static_cast<double>(armed.step_s.size());
  const double armed_s = std::accumulate(armed.step_s.begin(), armed.step_s.end(), 0.0);
  const double plain_s = std::accumulate(plain.step_s.begin(), plain.step_s.end(), 0.0);
  r.metric(p + "step_ms_p50", percentile(armed.step_s, 50) * 1e3, "ms");
  r.metric(p + "step_ms_p90", percentile(armed.step_s, 90) * 1e3, "ms");
  r.metric(p + "build_ms", armed.build_s * 1e3, "ms");
  r.metric(p + "resilience_overhead_pct", (armed_s - plain_s) / plain_s * 100.0, "%");
  r.metric(p + "checkpoints", static_cast<double>(armed.checkpoints), "count");
  r.metric(p + "virtual_step_s", armed.virtual_s / steps, "s");
  if (kind == "cell") {
    r.metric("runtime.halo_bytes_per_step", armed.halo_bytes_per_step, "B");
    r.metric("runtime.halo_messages_per_step", armed.halo_messages_per_step, "count");
  } else if (kind == "band") {
    r.metric("runtime.band_gather_bytes_per_step", armed.gather_bytes_per_step, "B");
  } else {
    r.metric("runtime.gpu_bytes_moved_per_step", armed.gpu_bytes_per_step, "B");
    r.metric("runtime.gpu_launches_per_step", armed.gpu_launches_per_step, "count");
  }
}

// ---- runtime and mesh probes --------------------------------------------------------

void probe_checkpoint(const rt::Snapshot& snap, const std::string& dir, Report& r, int reps) {
  make_dirs(dir);
  rt::CheckpointStore store;
  std::vector<double> save_s, write_s;
  for (int i = 0; i < reps; ++i) {
    Span sp("runtime.checkpoint_save");
    store.save(snap);
    save_s.push_back(sp.stop());
  }
  const std::vector<std::byte> image = rt::serialize(snap);
  for (int i = 0; i < reps; ++i) {
    Span sp("runtime.write_bytes_atomic");
    rt::write_bytes_atomic(dir + "/probe.bin", image);
    write_s.push_back(sp.stop());
  }
  r.metric("runtime.checkpoint_save_ms", median(save_s) * 1e3, "ms");
  r.metric("runtime.checkpoint_disk_mb_per_s",
           static_cast<double>(image.size()) / 1e6 / median(write_s), "MB/s");
  remove_tree(dir);
}

void probe_partition(const std::vector<finch::mesh::Mesh>& meshes, int nparts, Report& r,
                     int reps) {
  std::vector<double> t;
  size_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    Span sp("mesh.partition");
    for (const finch::mesh::Mesh& m : meshes) sink += finch::mesh::partition(m, nparts).size();
    t.push_back(sp.stop());
  }
  if (sink == 0) r.fail("mesh::partition returned no assignment");
  r.metric("mesh.partition_ms", median(t) * 1e3, "ms");
}

// ---- codegen probes ----------------------------------------------------------------

namespace {

// Reaches the compiled equations of a finalized problem without running a
// sweep, exactly as the native solver sees them before emission.
class KernelInputsProbe final : public codegen::StepSolverBase {
 public:
  explicit KernelInputsProbe(finch::dsl::Problem& p) : StepSolverBase(p, nullptr) {}
  const codegen::CompileEnv& env() const { return env_; }
  codegen::NativeKernelInputs inputs() const {
    const codegen::CompiledEquation& ce = eqs_.front();
    codegen::NativeKernelInputs in;
    in.name = "step_" + ce.field->name();
    in.volume = &ce.volume;
    in.surface = ce.has_surface ? &ce.surface : nullptr;
    in.program = ce.program;
    in.env = &env_;
    in.out = ce.field;
    in.var_addr = &ce.var_addr;
    return in;
  }
};

}  // namespace

void probe_codegen(bte::BteProblem& bp, const Options& opt, Report& r, int reps) {
  finch::dsl::Problem& prob = bp.problem();
  const auto& rec = prob.equations().front();
  const sym::EntityInfo& var = *prob.entities().find(rec.variable);

  std::vector<double> front, bytecode, emit, disk, mem;
  size_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    sym::OperatorRegistry registry;
    Span sp("symbolic.front_end");
    const sym::Equation eq =
        sym::make_conservation_form(var, rec.input, prob.entities(), registry, prob.dimension());
    const sym::ClassifiedTerms cls = sym::classify(sym::apply_forward_euler(eq));
    front.push_back(sp.stop());
    sink += cls.rhs_volume.size() + cls.rhs_surface.size();
  }

  KernelInputsProbe probe(prob);
  for (int i = 0; i < reps; ++i) {
    Span sp("codegen.bytecode_compile");
    const codegen::Program vol =
        codegen::compile(sym::simplify(sym::add(rec.classified.rhs_volume)), probe.env());
    const codegen::Program surf =
        codegen::compile(sym::simplify(sym::add(rec.classified.rhs_surface)), probe.env());
    bytecode.push_back(sp.stop());
    sink += vol.code.size() + surf.code.size();
  }

  codegen::NativePlan plan;
  for (int i = 0; i < reps; ++i) {
    Span sp("codegen.emit_native_plan");
    plan = codegen::emit_native_plan(probe.inputs());
    emit.push_back(sp.stop());
  }

  // The cold compile goes into an empty private cache; the workload's warm
  // cache is restored afterwards.
  codegen::JitConfig& cfg = codegen::jit_config();
  const std::string warm_dir = cfg.cache_dir;
  cfg.cache_dir = opt.work_dir + "/jit-cold";
  remove_tree(cfg.cache_dir);
  codegen::reset_native_memory_cache();
  std::string err;
  double cold_s = 0.0;
  {
    Span sp("codegen.jit_cold_compile");
    if (!codegen::load_native_plan(plan, &err)) r.fail("JIT cold compile failed: " + err);
    cold_s = sp.stop();
  }
  for (int i = 0; i < reps; ++i) {
    codegen::reset_native_memory_cache();
    Span sp("codegen.jit_disk_hit");
    if (!codegen::load_native_plan(plan, &err)) r.fail("JIT disk hit failed: " + err);
    disk.push_back(sp.stop());
  }
  for (int i = 0; i < reps; ++i) {
    Span sp("codegen.jit_mem_hit");
    if (!codegen::load_native_plan(plan, &err)) r.fail("JIT memory hit failed: " + err);
    mem.push_back(sp.stop());
  }
  cfg.cache_dir = warm_dir;
  codegen::reset_native_memory_cache();
  if (sink == 0) r.fail("symbolic pipeline produced no terms");

  std::cout << "# jit variant flags=\"" << plan.flags << "\" kernel_source_bytes="
            << plan.source.size() << "\n";
  r.metric("symbolic.front_end_ms", median(front) * 1e3, "ms");
  r.metric("codegen.bytecode_compile_ms", median(bytecode) * 1e3, "ms");
  r.metric("codegen.native_emit_ms", median(emit) * 1e3, "ms");
  r.metric("codegen.jit_cold_compile_s", cold_s, "s");
  r.metric("codegen.jit_disk_hit_ms", median(disk) * 1e3, "ms");
  r.metric("codegen.jit_mem_hit_us", median(mem) * 1e6, "us");
}

double vm_sweep_ns_per_dof(bte::BteScenario s, std::shared_ptr<const bte::BtePhysics> phys) {
  s.backend = "vm";
  bte::BteProblem bp(s, phys);
  auto solver = bp.compile(finch::dsl::Target::CpuSerial);
  Span sp("codegen.vm_step");
  solver->step();
  sp.stop();
  return solver->phases().intensity / static_cast<double>(dof_count(s, *phys)) * 1e9;
}

double newton_us_per_call(const bte::BtePhysics& phys, const std::vector<double>& I,
                          const std::vector<double>& T_guess) {
  const size_t nd = static_cast<size_t>(phys.num_dirs());
  const size_t nb = static_cast<size_t>(phys.num_bands());
  const size_t ncell = T_guess.size();
  std::vector<std::vector<double>> G(ncell, std::vector<double>(nb, 0.0));
  for (size_t c = 0; c < ncell; ++c)
    for (size_t b = 0; b < nb; ++b)
      for (size_t d = 0; d < nd; ++d)
        G[c][b] += phys.directions.weight[d] * I[c * nd * nb + nd * b + d];
  std::vector<double> pass_s;
  double sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    Span sp("bte.solve_temperature");
    for (size_t c = 0; c < ncell; ++c) sink += phys.table.solve_temperature(G[c], T_guess[c]);
    pass_s.push_back(sp.stop());
  }
  if (!(sink > 0.0)) return std::nan("");
  return median(pass_s) / static_cast<double>(ncell) * 1e6;
}

// ---- compact probes ------------------------------------------------------------------

namespace {

bool missing_any(const Report& r, std::initializer_list<const char*> prefixes) {
  for (const MetricSpec& m : per_layer_metrics()) {
    const std::string name = m.name;
    for (const char* p : prefixes)
      if (name.rfind(p, 0) == 0 && !r.has(name)) return true;
  }
  return false;
}

// DSL front end, codegen and the bte kernels on the compact configuration.
void compact_dsl_probe(const Options& opt, Report& r) {
  const double fallback0 = jit_counter("jit.fallback");
  const double mismatch0 = jit_counter("jit.verify.mismatch");
  const bte::BteScenario s = compact_scenario();
  double phys_s = 0.0;
  const auto phys = build_physics(s, &phys_s);
  r.metric("bte.physics_build_ms", phys_s * 1e3, "ms");
  const double dofs = static_cast<double>(dof_count(s, *phys));
  const double cells = static_cast<double>(s.nx) * s.ny;
  {
    Span sp("codegen.jit_warm_cache");
    bte::BteProblem warm(s, phys);
    warm.compile(finch::dsl::Target::CpuSerial);
  }
  codegen::reset_native_memory_cache();

  bte::BteProblem bp(s, phys);
  std::unique_ptr<finch::dsl::Solver> solver;
  {
    Span sp("codegen.problem_compile");
    solver = bp.compile(finch::dsl::Target::CpuSerial);
    r.metric("codegen.problem_compile_ms", sp.stop() * 1e3, "ms");
  }
  {
    Span sp("codegen.first_step");
    solver->step();
    r.metric("codegen.first_step_s", sp.stop(), "s");
  }
  const finch::dsl::SolvePhases ph0 = solver->phases();
  for (int k = 0; k < kCompactSteps; ++k) {
    Span sp("bte.native_step");
    solver->step();
  }
  const finch::dsl::SolvePhases& ph = solver->phases();
  r.metric("codegen.native_sweep_ns_per_dof",
           (ph.intensity - ph0.intensity) / (kCompactSteps * dofs) * 1e9, "ns/DOF");
  r.metric("bte.temperature_us_per_cell",
           (ph.post_process - ph0.post_process) / (kCompactSteps * cells) * 1e6, "us/cell");
  probe_codegen(bp, opt, r, 5);
  r.metric("codegen.vm_sweep_ns_per_dof", vm_sweep_ns_per_dof(s, phys), "ns/DOF");
  r.metric("codegen.native_vs_vm",
           r.value("codegen.vm_sweep_ns_per_dof") / r.value("codegen.native_sweep_ns_per_dof"),
           "ratio");

  bte::DirectSolver direct(s, phys);
  direct.run(kCompactSteps);
  const std::vector<double> T_prev = direct.temperature();
  direct.step();
  r.metric("bte.direct_sweep_ns_per_dof",
           direct.intensity_seconds() / ((kCompactSteps + 1) * dofs) * 1e9, "ns/DOF");
  r.metric("bte.native_vs_direct",
           r.value("bte.direct_sweep_ns_per_dof") / r.value("codegen.native_sweep_ns_per_dof"),
           "ratio");
  r.metric("bte.newton_us_per_call", newton_us_per_call(*phys, direct.intensity(), T_prev), "us");
  r.metric("codegen.jit_fallbacks", jit_counter("jit.fallback") - fallback0, "count");
  r.metric("codegen.jit_verify_mismatches", jit_counter("jit.verify.mismatch") - mismatch0,
           "count");
}

// The three strategies, their communication counts and the checkpoint layer
// on the compact configuration.
void compact_strategy_probe(const Options& opt, Report& r) {
  const bte::BteScenario s = compact_scenario();
  double phys_s = 0.0;
  const auto phys = build_physics(s, &phys_s);
  rt::Snapshot snap;
  for (const char* kind : {"cell", "band", "mgpu"}) {
    StrategyRun armed = run_strategy(kind, s, phys, kCompactParts, kCompactSteps, true,
                                     std::string(kind) == "cell");
    const StrategyRun plain =
        run_strategy(kind, s, phys, kCompactParts, kCompactSteps, false, false);
    record_strategy(r, kind, armed, plain);
    if (!armed.snapshot.fields.empty()) snap = std::move(armed.snapshot);
  }
  probe_checkpoint(snap, opt.work_dir + "/ckpt-probe", r, 5);
}

}  // namespace

void fill_missing_layers(const Options& opt, Report& r) {
  if (missing_any(r, {"symbolic.", "codegen.", "bte.temperature", "bte.newton", "bte.direct",
                      "bte.native_vs", "bte.physics"}))
    compact_dsl_probe(opt, r);
  if (missing_any(r, {"bte.cell.", "bte.band.", "bte.mgpu.", "runtime."}))
    compact_strategy_probe(opt, r);
  if (missing_any(r, {"mesh."})) {
    const bte::BteScenario s = compact_scenario();
    probe_partition({finch::mesh::Mesh::structured_quad(s.nx, s.ny, s.lx, s.ly)}, kCompactParts,
                    r, 5);
  }
  if (missing_any(r, {"svc."})) measure_service_layers(opt, r, 12);
}

}  // namespace ledger
