#include "step_solver_base.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "core/symbolic/simplify.hpp"
#include "runtime/trace.hpp"

namespace finch::codegen {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

StepSolverBase::StepSolverBase(dsl::Problem& p, rt::ThreadPool* pool) : p_(p), pool_(pool) {
  if (p.scheme() != dsl::TimeScheme::ForwardEuler && p.scheme() != dsl::TimeScheme::RK2Midpoint)
    throw std::invalid_argument("CPU target lowers ForwardEuler and RK2Midpoint");
  build_env();
  for (const auto& rec : p.equations()) {
    CompiledEquation ce;
    ce.program = &rec.program;
    ce.volume = compile(sym::simplify(sym::add(rec.classified.rhs_volume)), env_);
    ce.has_surface = !rec.classified.rhs_surface.empty();
    if (ce.has_surface) ce.surface = compile(sym::simplify(sym::add(rec.classified.rhs_surface)), env_);
    ce.field = &p.fields().get(rec.variable);
    const sym::EntityInfo& info = *p.entities().find(rec.variable);
    int32_t stride = 1;
    ce.var_addr.n_idx = 0;
    for (const auto& idx : info.indices) {
      ce.var_addr.loop_slot[static_cast<size_t>(ce.var_addr.n_idx)] = env_.loop_slot_of(idx);
      ce.var_addr.stride[static_cast<size_t>(ce.var_addr.n_idx)] = stride;
      stride *= p.entities().find_index(idx)->extent();
      ++ce.var_addr.n_idx;
    }
    if (!info.indices.empty()) ce.dir_slot = env_.loop_slot_of(info.indices[0]);
    if (info.indices.size() > 1) ce.band_slot = env_.loop_slot_of(info.indices[1]);
    eqs_.push_back(std::move(ce));
  }
  // Scratch new-value storage mirroring each updated field.
  for (auto& ce : eqs_)
    scratch_.emplace_back(ce.field->name() + "_new", ce.field->num_cells(), ce.field->dof_per_cell(),
                          ce.field->layout());
  const mesh::Mesh& mesh = p.mesh();
  all_cells_.resize(static_cast<size_t>(mesh.num_cells()));
  std::iota(all_cells_.begin(), all_cells_.end(), 0);
  std::vector<char> on_boundary(all_cells_.size(), 0);
  for (int32_t c : mesh.boundary_cells()) on_boundary[static_cast<size_t>(c)] = 1;
  for (int32_t c : all_cells_)
    (on_boundary[static_cast<size_t>(c)] ? boundary_cells_ : interior_cells_).push_back(c);
}

void StepSolverBase::step() {
  p_.run_pre_steps(time_);
  auto t0 = Clock::now();
  {
    rt::SpanAttrs attrs;
    attrs.phase = "compute";
    rt::TraceSpan span("cpu.intensity", attrs);
    if (p_.scheme() == dsl::TimeScheme::ForwardEuler)
      euler_step();
    else
      rk2_step();
  }
  publish_guard_tallies();
  phases_.intensity += seconds_since(t0);
  t0 = Clock::now();
  {
    rt::SpanAttrs attrs;
    attrs.phase = "post_process";
    rt::TraceSpan span("cpu.post_process", attrs);
    p_.run_post_steps(time_);
  }
  phases_.post_process += seconds_since(t0);
  time_ += p_.dt();
}

void StepSolverBase::publish_guard_tallies() {
  if (!guard_enabled_) return;
  guard_report_.evals = guard_evals_.load(std::memory_order_relaxed);
  guard_report_.nonfinite_results = guard_nonfinite_.load(std::memory_order_relaxed);
}

void StepSolverBase::sweep_equation(size_t e, fvm::CellField& out, double dt_stage) {
  vm_sweep(e, out, dt_stage, all_cells_, pool_);
}

void StepSolverBase::euler_step() {
  for (size_t e = 0; e < eqs_.size(); ++e) sweep_equation(e, scratch_[e], p_.dt());
  commit();
}

// RK2 midpoint via the Euler-form programs: the generated update computes
// E(u, h) = u + h*f(u), so
//   mid   = E(u_old, dt/2)
//   u_new = u_old + (E(mid, dt) - mid) = u_old + dt*f(mid).
void StepSolverBase::rk2_step() {
  const double dt = p_.dt();
  // Save old state, compute midpoint into the fields.
  backup_.resize(backup_offset(eqs_.size()));
  for (size_t e = 0; e < eqs_.size(); ++e) {
    auto src = eqs_[e].field->data();
    std::copy(src.begin(), src.end(), backup_.begin() + static_cast<std::ptrdiff_t>(backup_offset(e)));
  }
  for (size_t e = 0; e < eqs_.size(); ++e) sweep_equation(e, scratch_[e], dt / 2);
  commit();  // fields now hold the midpoint state (BC callbacks see it too)
  for (size_t e = 0; e < eqs_.size(); ++e) sweep_equation(e, scratch_[e], dt);
  for (size_t e = 0; e < eqs_.size(); ++e) {
    std::span<double> field = eqs_[e].field->data();       // midpoint state
    std::span<const double> y = scratch_[e].data();        // E(mid, dt)
    const double* old = backup_.data() + backup_offset(e);
    for (size_t i = 0; i < field.size(); ++i) field[i] = old[i] + (y[i] - field[i]);
  }
}

size_t StepSolverBase::backup_offset(size_t e) const {
  size_t off = 0;
  for (size_t k = 0; k < e; ++k) off += eqs_[k].field->data().size();
  return off;
}

void StepSolverBase::commit() {
  for (size_t e = 0; e < eqs_.size(); ++e) {
    std::span<const double> src = scratch_[e].data();
    std::span<double> dst = eqs_[e].field->data();
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

void StepSolverBase::build_env() {
  env_.table = &p_.entities();
  for (const auto& [name, info] : p_.entities().indices()) {
    env_.index_order.push_back(name);
    env_.index_extent.push_back(info.extent());
  }
  env_.fields = &p_.fields();
  env_.coefficients = &p_.indexed_coefficients();
  env_.scalar_coefficients = &p_.scalar_coefficients();
}

void StepSolverBase::vm_sweep(size_t eq, fvm::CellField& out, double dt_stage,
                              std::span<const int32_t> cells, rt::ThreadPool* pool) {
  CompiledEquation& ce = eqs_[eq];
  rt::TraceSpan span("cpu.sweep");
  const auto sweep_t0 = Clock::now();
  const mesh::Mesh& mesh = p_.mesh();
  // Mixed-radix iteration following the assembly-loop ordering: the
  // outermost loop is the most significant digit; the cell digit indexes
  // `cells`.
  const auto& loops = ce.program->loops;
  std::vector<int64_t> extent(loops.size());
  int64_t total = 1;
  for (size_t k = 0; k < loops.size(); ++k) {
    extent[k] = loops[k].kind == ir::LoopSpec::Kind::Cells ? static_cast<int64_t>(cells.size())
                                                           : loops[k].extent;
    total *= extent[k];
  }
  std::vector<int64_t> place(loops.size(), 1);
  for (size_t k = loops.size(); k-- > 1;) place[k - 1] = place[k] * extent[k];

  auto body = [&](int64_t it) {
    EvalContext ctx;
    ctx.dt = dt_stage;
    int32_t cell = 0;
    for (size_t k = 0; k < loops.size(); ++k) {
      const int32_t digit = static_cast<int32_t>((it / place[k]) % extent[k]);
      if (loops[k].kind == ir::LoopSpec::Kind::Cells)
        cell = cells[static_cast<size_t>(digit)];
      else
        ctx.loop_values[static_cast<size_t>(env_.loop_slot_of(loops[k].index_name))] = digit;
    }
    ctx.cell = cell;
    double value;
    if (guard_enabled_) {
      GuardReport local;
      value = eval_guarded(ce.volume, ctx, local);
      if (ce.has_surface) value += surface_contribution(ce, ctx, cell, &local);
      guard_evals_.fetch_add(local.evals, std::memory_order_relaxed);
      if (local.nonfinite_results > 0) {
        guard_nonfinite_.fetch_add(local.nonfinite_results, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(guard_mutex_);
        if (guard_report_.first_cell < 0) {
          guard_report_.first_cell = local.first_cell;
          guard_report_.detail = ce.field->name() + " kernel, instr " +
                                 std::to_string(local.first_instr) + " (op " +
                                 std::to_string(static_cast<int>(local.first_op)) + ")";
        }
      }
    } else {
      value = eval(ce.volume, ctx);
      if (ce.has_surface) value += surface_contribution(ce, ctx, cell, nullptr);
    }
    out.at(cell, static_cast<int32_t>(ce.var_addr.dof(ctx.loop_values))) = value;
  };

  const auto run = [&](int64_t begin, int64_t end) {
    for (int64_t it = begin; it < end; ++it) body(it);
  };
  if (pool == nullptr ||
      !pool->try_parallel_for_chunks(0, total, run,
                                     std::max<int64_t>(total / (8 * pool->size()), 64)))
    run(0, total);
  // Batch-level VM telemetry (per-eval timers would dominate the ~40-90 ns
  // evals). Surface evals are estimated as faces-per-cell x iterations.
  int64_t surface_evals = 0;
  if (ce.has_surface && mesh.num_cells() > 0)
    surface_evals = total * 2 * mesh.num_faces() / mesh.num_cells();
  note_eval_batch(ce.volume, ce.has_surface ? &ce.surface : nullptr, total,
                  surface_evals, seconds_since(sweep_t0));
}

double StepSolverBase::surface_contribution(CompiledEquation& ce, EvalContext& ctx, int32_t cell,
                                            GuardReport* guard) {
  const mesh::Mesh& mesh = p_.mesh();
  auto run = [&](const Program& prog) {
    return guard != nullptr ? eval_guarded(prog, ctx, *guard) : eval(prog, ctx);
  };
  const double inv_vol = 1.0 / mesh.cell_volume(cell);
  double acc = 0.0;
  for (int32_t f : mesh.cell_faces(cell)) {
    const mesh::Face& face = mesh.face(f);
    const mesh::Vec3 n = mesh.outward_normal(f, cell);
    ctx.normal = {n.x, n.y, n.z};
    const double scale = face.area * inv_vol;
    if (!face.is_boundary()) {
      ctx.neighbor = mesh.across(f, cell);
      acc += scale * run(ce.surface);
      ctx.neighbor = -1;
      continue;
    }
    const fvm::BoundaryCondition* bc = p_.boundaries().find(ce.field->name(), face.boundary_region);
    if (bc == nullptr) continue;  // default: zero-flux (symmetry-like) wall
    fvm::BoundaryContext bctx;
    bctx.mesh = &mesh;
    bctx.fields = &p_.fields();
    bctx.cell = cell;
    bctx.face = f;
    bctx.normal = n;
    bctx.dof = static_cast<int32_t>(ce.var_addr.dof(ctx.loop_values));
    bctx.dir = ce.dir_slot >= 0 ? ctx.loop_values[static_cast<size_t>(ce.dir_slot)] : 0;
    bctx.band = ce.band_slot >= 0 ? ctx.loop_values[static_cast<size_t>(ce.band_slot)] : 0;
    bctx.time = time_;
    if (bc->type == fvm::BcType::Flux) {
      // Callback returns the physical outward flux integrand f; the
      // discretization contributes -dt*(A/V)*f, matching the generated
      // surface terms which already carry the -dt factor (stage dt for RK).
      acc += scale * (-ctx.dt) * bc->fn(bctx);
    } else {
      ctx.ghost_field = ce.field;
      ctx.ghost_value = bc->fn(bctx);
      acc += scale * run(ce.surface);
      ctx.ghost_field = nullptr;
    }
  }
  return acc;
}

}  // namespace finch::codegen
