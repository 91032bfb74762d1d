#include "distributed_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace finch::bte {

DistributedSolver::DistributedSolver(const BteScenario& scenario,
                                     std::shared_ptr<const BtePhysics> physics, Sites sites)
    : scen_(scenario),
      phys_(std::move(physics)),
      nd_(phys_->num_dirs()),
      nb_(phys_->num_bands()),
      sites_(std::move(sites)),
      mem_site_(sites_.kind + "-mem") {}

void DistributedSolver::run(int nsteps) {
  if (!resilient_) {
    for (int i = 0; i < nsteps; ++i) step();
    return;
  }
  const int64_t target = step_index_ + nsteps;
  int rollback_budget = res_.max_rollbacks;
  while (step_index_ < target) {
    // Cooperative cancellation: a cancel request or deadline drains at the
    // step boundary — final checkpoint at the current step, manifest carrying
    // the reason — leaving the job resumable exactly like a crashed one.
    if (res_.cancel != nullptr && res_.cancel->should_drain(step_index_, virtual_elapsed())) {
      take_checkpoint(res_.cancel->drain_reason(step_index_, virtual_elapsed()));
      rstats_.cancel_drains += 1;
      break;
    }
    // Resource faults are consulted at the step boundary: pressure squeezes
    // the budget and runs the relief chain; a failed first allocation costs
    // one backoff of recovery time on top of the relief.
    consult_resource_faults(res_, rstats_, mem_site_, [this](double s) { recover(s); });
    // Permanent failures are discovered at step boundaries: an explicit kill,
    // a hung exchange the watchdog escalated to a Dead verdict, or an injected
    // loss with a deterministically drawn victim.
    if (pending_kill_ < 0 && res_.straggler.enabled) {
      const int32_t hung = take_hang_suspect();
      if (hung >= 0) {
        pending_kill_ = hung;
        rstats_.hang_escalations += 1;
      }
    }
    if (pending_kill_ < 0 && res_.injector != nullptr &&
        res_.injector->should_fault(sites_.loss, sites_.loss_site))
      pending_kill_ = static_cast<int32_t>(
          res_.injector->pick(sites_.loss, sites_.loss_site, static_cast<size_t>(nparts_)));
    if (pending_kill_ >= 0) {
      const int32_t victim = pending_kill_;
      pending_kill_ = -1;
      evict_and_redistribute(victim);
      continue;
    }
    // Chronic stragglers are mitigated at the step boundary, never evicted:
    // the rank is alive and correct, just slow.
    maybe_mitigate_stragglers();
    health_ = StepHealth{};
    try {
      step();
      ++step_index_;
      validate();
    } catch (const rt::TransientFault& fault) {
      // Retry budget exhausted mid-step: some ranks advanced, some did not.
      // Only a rollback restores a consistent state.
      health_.transfer_ok = false;
      health_.detail = std::string("retries exhausted: ") + fault.what();
    }
    if (health_.ok()) {
      if (res_.checkpoint.due(step_index_)) take_checkpoint();
      continue;
    }
    rstats_.faults_detected += 1;
    if (rollback_budget-- <= 0)
      throw ResilienceError("rollback budget exhausted: " + health_.detail);
    // Replay is measured against the step the restore actually lands on — a
    // corrupted-newest-image restore can fall back a generation, losing more
    // than the distance to the latest checkpoint.
    const int64_t before = step_index_;
    restore_checkpoint();
    rstats_.rollbacks += 1;
    rstats_.replayed_steps += before - step_index_;
  }
  sync_fault_telemetry();
  publish_resilience_metrics(rstats_, published_);
}

void DistributedSolver::arm(const ResilienceOptions& options) {
  res_ = options;
  resilient_ = true;
  if (!res_.durable.dir.empty())
    store_ = rt::CheckpointStore(res_.durable.dir, res_.durable.disk_generations);
  register_memory_reliefs();
  arm_strategy();
}

void DistributedSolver::enable_resilience(const ResilienceOptions& options) {
  validate_resilience_options(options);
  arm(options);
  take_checkpoint();  // rollback target before any resilient step runs
}

void DistributedSolver::resume_from(const rt::RunManifest& manifest,
                                    const ResilienceOptions& options) {
  validate_resilience_options(options);
  if (options.durable.dir.empty())
    throw std::invalid_argument("resume_from: options.durable.dir must name the manifest's dir");
  check_manifest_matches(manifest, sites_.kind, config_hash());
  arm(options);
  store_.resume_sequence(manifest.saves);
  // Adopt the prior run's surviving generation files so the first
  // post-resume manifest keeps them as fallback: without adoption a second
  // crash with a damaged newest generation has nothing older to fall back to.
  store_.adopt_disk_paths(manifest.checkpoints);
  restore(load_manifest_checkpoint(manifest, rstats_));
  // The injector resumes the exact draw sequence the killed process would
  // have produced — counters key every draw, the event-log size keys victim
  // and flip draws.
  if (res_.injector != nullptr)
    res_.injector->import_counters(manifest.injector_counters, manifest.injector_events);
  rstats_.resumes += 1;
  // Re-checkpoint the restored state: primes the in-memory rollback target
  // (and a fresh generation file + manifest) without consuming any draws.
  take_checkpoint();
}

// Graceful degradation, cheapest first. Every relief frees only rebuildable
// state (an in-memory image a disk file still backs, scratch that is resized
// before each use), so the numerical trajectory is untouched.
void DistributedSolver::register_memory_reliefs() {
  if (res_.memory == nullptr) return;
  res_.memory->add_relief("ckpt-prev-generation",
                          [this] { return store_.drop_previous_generation(); });
  res_.memory->add_relief("scratch-shrink", [this] {
    int64_t freed = shrink_scratch();
    for (auto& field : snap_.fields)
      freed += static_cast<int64_t>(field.second.capacity() * sizeof(double));
    snap_.fields.clear();
    return freed;
  });
  res_.memory->add_relief("ckpt-spill", [this] { return store_.spill(); });
}

uint64_t DistributedSolver::config_hash() const {
  ConfigHasher h;
  h.mix(static_cast<int64_t>(scen_.nx)).mix(static_cast<int64_t>(scen_.ny));
  h.mix(scen_.lx).mix(scen_.ly);
  h.mix(static_cast<int64_t>(scen_.kind == BteScenario::Kind::CornerSource ? 1 : 0));
  h.mix(scen_.T_init).mix(scen_.T_cold).mix(scen_.T_hot);
  h.mix(scen_.hot_w).mix(scen_.hot_center_frac).mix(scen_.dt);
  h.mix(static_cast<int64_t>(nd_)).mix(static_cast<int64_t>(nb_));
  return h.value();
}

std::vector<double> DistributedSolver::gather_intensity() const {
  std::vector<double> I(static_cast<size_t>(scen_.nx) * static_cast<size_t>(scen_.ny) *
                        static_cast<size_t>(nd_) * static_cast<size_t>(nb_));
  gather_intensity_into(I);
  return I;
}

rt::Snapshot DistributedSolver::snapshot() const {
  rt::Snapshot snap;
  snapshot_into(snap);
  return snap;
}

void DistributedSolver::snapshot_into(rt::Snapshot& snap) const {
  // Canonical global layout (see checkpoint.hpp): no rank structure at all,
  // so the image restores onto any survivor count.
  const size_t ncell = static_cast<size_t>(scen_.nx) * static_cast<size_t>(scen_.ny);
  snap.step = step_index_;
  if (snap.fields.empty())
    for (const char* name : {"I", "T", "Io", "beta"})
      snap.fields.emplace_back(name, std::vector<double>());
  std::vector<double>& I = snap.fields[0].second;
  std::vector<double>& Io = snap.fields[2].second;
  std::vector<double>& beta = snap.fields[3].second;
  I.resize(ncell * static_cast<size_t>(nd_) * static_cast<size_t>(nb_));
  Io.resize(ncell * static_cast<size_t>(nb_));
  beta.resize(Io.size());
  gather_intensity_into(I);
  snap.fields[1].second = gather_temperature();
  gather_moments(Io, beta);
}

void DistributedSolver::restore(const rt::Snapshot& snap) {
  const size_t ncell = static_cast<size_t>(scen_.nx) * static_cast<size_t>(scen_.ny);
  const auto& I = snap.field("I");
  const auto& T = snap.field("T");
  const auto& Io = snap.field("Io");
  const auto& beta = snap.field("beta");
  if (I.size() != ncell * static_cast<size_t>(nd_) * static_cast<size_t>(nb_) ||
      T.size() != ncell || Io.size() != ncell * static_cast<size_t>(nb_) ||
      beta.size() != Io.size())
    throw rt::CheckpointError("snapshot does not match problem size");
  scatter(I, T, Io, beta);
  step_index_ = snap.step;
  // Restored state invalidates the step-to-step SDC bookkeeping.
  have_prev_energy_ = false;
  flip_step_ = -1;
}

void DistributedSolver::take_checkpoint(const std::string& cancel_reason) {
  snapshot_into(snap_);
  store_.save(snap_);
  rstats_.checkpoints += 1;
  write_run_manifest(res_, rstats_, sites_.kind, nparts_, config_hash(), store_, cancel_reason);
}

void DistributedSolver::restore_checkpoint() {
  const rt::Snapshot snap =
      load_checkpoint_guarded(store_, res_, rstats_, [this](double s) { recover(s); });
  rstats_.recovery_seconds += restore_charged(snap, Motion::Rollback);
}

void DistributedSolver::request_kill(int32_t victim) {
  const std::string api = "kill_" + sites_.unit;
  if (!resilient_)
    throw std::logic_error(api + ": enable_resilience first (eviction needs a checkpoint)");
  if (victim < 0 || victim >= nparts_)
    throw std::invalid_argument(api + ": " + sites_.unit + " out of range");
  pending_kill_ = victim;
}

void DistributedSolver::evict_and_redistribute(int32_t victim) {
  if (nparts_ <= 1)
    throw ResilienceError(sites_.unit + " " + std::to_string(victim) +
                          " failed with no survivors");
  rstats_.faults_detected += 1;
  rstats_.recovery_seconds += charge_loss_detection(victim);

  // The survivors rebuild the topology at M parts and reload the last global
  // checkpoint. The image is loaded through the guarded path, and before the
  // shrink, so a restore that hangs or reads corrupted bytes retries / falls
  // back a generation instead of leaving a half-shrunk topology behind.
  const int64_t before = step_index_;
  const rt::Snapshot snap =
      load_checkpoint_guarded(store_, res_, rstats_, [this](double s) { recover(s); });
  rebuild(nparts_ - 1);
  rstats_.redistribution_seconds += restore_charged(snap, Motion::Redistribution);
  rstats_.evictions += 1;
  rstats_.replayed_steps += before - step_index_;
}

// Dynamic rebalance away from a chronically slow (but alive) rank: state
// moves via a live snapshot (bit-exact, no suspicion timeout, no rollback, no
// replayed steps), charged to the rebalance phase.
void DistributedSolver::maybe_mitigate_stragglers() {
  if (!res_.straggler.enabled || !res_.straggler.rebalance || nparts_ <= 1) return;
  if (rstats_.rebalances >= res_.straggler.max_rebalances) return;
  const int32_t victim = chronic_straggler();
  if (victim < 0) return;
  const rt::Snapshot live = snapshot();
  relayout_away(victim);
  rstats_.rebalance_seconds += restore_charged(live, Motion::Rebalance);
  rstats_.rebalances += 1;
}

void DistributedSolver::note_sdc_detection() {
  rstats_.sdc_detections += 1;
  // The audit runs every step, so a flip is caught at most one step after it
  // lands; the stat records the bound actually achieved.
  const int64_t latency = flip_step_ >= 0 ? step_index_ + 1 - flip_step_ : 1;
  rstats_.max_detection_latency_steps = std::max(rstats_.max_detection_latency_steps, latency);
  flip_step_ = -1;
}

void DistributedSolver::check_energy_drift(double energy) {
  if (have_prev_energy_) {
    const double drift =
        std::abs(energy - prev_energy_) / std::max(std::abs(prev_energy_), 1e-300);
    if (drift > res_.sdc.energy_drift_tol) rstats_.invariant_violations += 1;
  }
  prev_energy_ = energy;
  have_prev_energy_ = true;
}

void DistributedSolver::scan_finite(const std::vector<double>& v, int rank, const char* field) {
  size_t bad = 0;
  if (rt::all_finite(v, &bad)) return;
  health_.finite_ok = false;
  health_.nonfinite_values += 1;
  health_.detail = (rank >= 0 ? "rank " + std::to_string(rank) + " " : std::string()) + field +
                   "[" + std::to_string(bad) + "] non-finite";
}

const std::vector<int32_t>& DistributedSolver::sentinel_cells() {
  if (sentinel_cells_.empty()) {
    const int ncell = scen_.nx * scen_.ny;
    const int n = std::min(res_.sdc.sentinel_cells, ncell);
    for (int k = 0; k < n; ++k)
      sentinel_cells_.push_back(
          static_cast<int32_t>(static_cast<int64_t>(k + 1) * ncell / (n + 1)));
  }
  return sentinel_cells_;
}

// ---- BandSlices ---------------------------------------------------------------

BandSlices::Ranges BandSlices::equal_split(int nparts) const {
  Ranges ranges(static_cast<size_t>(nparts));
  for (int p = 0; p < nparts; ++p)
    ranges[static_cast<size_t>(p)] = {p * nb_ / nparts, (p + 1) * nb_ / nparts};
  return ranges;
}

BandSlices::Ranges BandSlices::weighted_split(int nparts, int32_t victim, double slowdown) const {
  std::vector<double> w(static_cast<size_t>(nparts), 1.0);
  w[static_cast<size_t>(victim)] = 1.0 / slowdown;
  double total = 0.0;
  for (double x : w) total += x;
  Ranges ranges(w.size());
  double cum = 0.0;
  int lo = 0;
  for (size_t p = 0; p < w.size(); ++p) {
    cum += w[p];
    int hi = p + 1 == w.size()
                 ? nb_
                 : static_cast<int>(std::lround(static_cast<double>(nb_) * cum / total));
    hi = std::clamp(hi, lo, nb_);
    ranges[p] = {lo, hi};
    lo = hi;
  }
  return ranges;
}

void BandSlices::assign(const Ranges& ranges, double T) {
  slices_.assign(ranges.size(), Slice{});
  for (size_t p = 0; p < ranges.size(); ++p) {
    Slice& s = slices_[p];
    s.b_lo = ranges[p].first;
    s.b_hi = ranges[p].second;
    const size_t bl = static_cast<size_t>(s.bands());
    s.I.resize(static_cast<size_t>(ncell_) * bl * static_cast<size_t>(nd_));
    s.I_new.resize(s.I.size());
    s.Io.resize(static_cast<size_t>(ncell_) * bl);
    s.beta.resize(s.Io.size());
    for (int b = s.b_lo; b < s.b_hi; ++b) {
      const double i0 = phys_->table.I0(b, T);
      const double be = phys_->table.beta(b, T);
      const size_t lb = static_cast<size_t>(b - s.b_lo);
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
        s.Io[c * bl + lb] = i0;
        s.beta[c * bl + lb] = be;
        for (int d = 0; d < nd_; ++d) s.I[(c * bl + lb) * static_cast<size_t>(nd_) + d] = i0;
      }
    }
  }
}

void BandSlices::reduce(const Slice& s, size_t begin, size_t end, std::vector<double>& out) const {
  for (size_t cb = begin; cb < end; ++cb) out[cb] = band_sum(s, cb);
}

void BandSlices::scatter_sums(const Slice& s, const std::vector<double>& sums,
                              std::vector<double>& G) const {
  const size_t bl = static_cast<size_t>(s.bands());
  for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c)
    for (size_t lb = 0; lb < bl; ++lb)
      G[c * static_cast<size_t>(nb_) + static_cast<size_t>(s.b_lo) + lb] = sums[c * bl + lb];
}

void BandSlices::sum_into(const Slice& s, std::vector<double>& G) const {
  const size_t bl = static_cast<size_t>(s.bands());
  for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c)
    for (size_t lb = 0; lb < bl; ++lb)
      G[c * static_cast<size_t>(nb_) + static_cast<size_t>(s.b_lo) + lb] =
          band_sum(s, c * bl + lb);
}

void BandSlices::update_temperature(const std::vector<double>& G, std::vector<double>& T) {
  std::vector<double> g(static_cast<size_t>(nb_));
  for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
    std::copy_n(G.begin() + static_cast<std::ptrdiff_t>(c * static_cast<size_t>(nb_)), nb_,
                g.begin());
    const double Tc = phys_->table.solve_temperature(g, T[c]);
    T[c] = Tc;
    for (Slice& s : slices_) {
      const size_t bl = static_cast<size_t>(s.bands());
      for (int b = s.b_lo; b < s.b_hi; ++b) {
        const size_t cb = c * bl + static_cast<size_t>(b - s.b_lo);
        s.Io[cb] = phys_->table.I0(b, Tc);
        s.beta[cb] = phys_->table.beta(b, Tc);
      }
    }
  }
}

void BandSlices::gather_intensity(std::vector<double>& out) const {
  // A slice's row of one cell, [(c*bl + lb)*nd + d] over lb and d, is the
  // contiguous run of the canonical row starting at band b_lo.
  const size_t nd = static_cast<size_t>(nd_);
  const size_t dofs = nd * static_cast<size_t>(nb_);
  for (const Slice& s : slices_) {
    const size_t row = static_cast<size_t>(s.bands()) * nd;
    const size_t first = static_cast<size_t>(s.b_lo) * nd;
    for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c)
      std::copy_n(s.I.begin() + static_cast<std::ptrdiff_t>(c * row), row,
                  out.begin() + static_cast<std::ptrdiff_t>(c * dofs + first));
  }
}

void BandSlices::gather_moments(std::vector<double>& Io, std::vector<double>& beta) const {
  for (const Slice& s : slices_) {
    const size_t bl = static_cast<size_t>(s.bands());
    for (int b = s.b_lo; b < s.b_hi; ++b) {
      const size_t lb = static_cast<size_t>(b - s.b_lo);
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
        Io[c * static_cast<size_t>(nb_) + static_cast<size_t>(b)] = s.Io[c * bl + lb];
        beta[c * static_cast<size_t>(nb_) + static_cast<size_t>(b)] = s.beta[c * bl + lb];
      }
    }
  }
}

void BandSlices::scatter(const std::vector<double>& I, const std::vector<double>& Io,
                         const std::vector<double>& beta) {
  const size_t dofs = static_cast<size_t>(nd_) * static_cast<size_t>(nb_);
  for (Slice& s : slices_) {
    const size_t bl = static_cast<size_t>(s.bands());
    for (int b = s.b_lo; b < s.b_hi; ++b) {
      const size_t lb = static_cast<size_t>(b - s.b_lo);
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
        s.Io[c * bl + lb] = Io[c * static_cast<size_t>(nb_) + static_cast<size_t>(b)];
        s.beta[c * bl + lb] = beta[c * static_cast<size_t>(nb_) + static_cast<size_t>(b)];
        for (int d = 0; d < nd_; ++d)
          s.I[(c * bl + lb) * static_cast<size_t>(nd_) + static_cast<size_t>(d)] =
              I[c * dofs + static_cast<size_t>(d + nd_ * b)];
      }
    }
  }
}

std::vector<int32_t> BandSlices::owner_counts() const {
  std::vector<int32_t> counts(static_cast<size_t>(nb_), 0);
  for (const Slice& s : slices_)
    for (int b = s.b_lo; b < s.b_hi; ++b) counts[static_cast<size_t>(b)] += 1;
  return counts;
}

}  // namespace finch::bte
