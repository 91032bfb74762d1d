#include "multi_gpu_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>

#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::bte {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

MultiGpuSolver::MultiGpuSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                               int num_devices, rt::GpuSpec spec)
    : DistributedSolver(scenario, std::move(physics),
                        {"mgpu", rt::FaultKind::DeviceLoss, "gpu", "device"}),
      spec_(std::move(spec)),
      slices_(*phys_, scenario.nx * scenario.ny) {
  if (num_devices < 1) throw std::invalid_argument("MultiGpuSolver: num_devices >= 1");
  if (num_devices > nb_) throw std::invalid_argument("MultiGpuSolver: more devices than bands");
  const int nx = scen_.nx, ny = scen_.ny;
  T_.assign(static_cast<size_t>(nx * ny), scen_.T_init);
  G_global_.resize(static_cast<size_t>(nx * ny) * nb_);

  // Interior/boundary split as in Fig. 6.
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const int32_t c = j * nx + i;
      if (i == 0 || i == nx - 1 || j == 0 || j == ny - 1)
        boundary_cells_.push_back(c);
      else
        interior_cells_.push_back(c);
    }

  rebuild(num_devices);
}

// Fresh SimGpu instances, state at T_init, and the one-time upload of each
// band slice (the movement plan's upload_once). Called by the constructor and
// by the driver's eviction, which follows it with a checkpoint restore that
// overwrites the T_init state with the survivors' truth.
void MultiGpuSolver::rebuild(int num_devices) {
  devices_.clear();
  for (int p = 0; p < num_devices; ++p) {
    devices_.push_back(std::make_unique<rt::SimGpu>(spec_));
    if (resilient_) {
      devices_.back()->set_fault_injector(res_.injector);
      devices_.back()->set_memory_budget(res_.memory);
    }
  }
  nparts_ = num_devices;
  apply_band_layout(slices_.equal_split(num_devices));
  detector_.resize(num_devices);
}

void MultiGpuSolver::apply_band_layout(const BandSlices::Ranges& ranges) {
  slices_.assign(ranges, scen_.T_init);
  mirrors_.assign(ranges.size(), Mirror{});
  for (size_t p = 0; p < ranges.size(); ++p) allocate_mirror(p);
}

void MultiGpuSolver::allocate_mirror(size_t p) {
  const BandSlices::Slice& r = slices_[p];
  rt::SimGpu& gpu = *devices_[p];
  mirrors_[p].dev_I = gpu.allocate(r.I.size());
  mirrors_[p].dev_Iob = gpu.allocate(r.Io.size() + r.beta.size());
  gpu.memcpy_h2d(mirrors_[p].dev_I, r.I);
}

void MultiGpuSolver::set_trace_track(int32_t track, const std::string& label) {
  trace_track_ = track;
  if (!label.empty()) rt::Tracer::global().set_track_name(1, track, label);
}

void MultiGpuSolver::charge_phase(double Phases::*field, const char* name, double seconds) {
  if (seconds <= 0) return;
  phases_.*field += seconds;
  rt::Tracer& tr = rt::Tracer::global();
  if (tr.enabled()) {
    rt::SpanAttrs attrs;
    attrs.step = step_index_;
    attrs.phase = name;
    tr.record_complete(name, static_cast<int64_t>(std::llround(trace_cursor_ * 1e9)),
                       static_cast<int64_t>(std::llround(seconds * 1e9)), trace_track_, attrs);
  }
  trace_cursor_ += seconds;
  rt::MetricsRegistry::global()
      .counter(std::string("mgpu.phase.") + name + "_seconds")
      .add(seconds);
}

void MultiGpuSolver::step() {
  double comm = 0;
  dev_seconds_.assign(slices_.size(), 0.0);

  for (size_t p = 0; p < slices_.size(); ++p) {
    BandSlices::Slice& r = slices_[p];
    rt::SimGpu& gpu = *devices_[p];
    const int bl = r.bands();
    const double dev_before = gpu.stream_clock(0);
    const double copy_before = gpu.counters().copy_seconds;

    // Interior kernel on the device (really executes on the band slice).
    rt::KernelStats ks;
    ks.threads = static_cast<int64_t>(interior_cells_.size()) * nd_ * bl;
    ks.flops_per_thread = 40;  // per-DOF update + 4-face upwind flux
    ks.fma_fraction = 0.3;
    ks.dram_bytes_per_thread = 18;
    ks.divergence = 0.05;
    launch_with_retry(gpu, "bte_interior", ks, [&] {
      upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, interior_cells_, std::identity{}, r.I, r.Io,
                   r.beta, r.I_new);
    });
    const double kernel_seconds = gpu.stream_clock(0) - dev_before;

    // Boundary cells on the CPU (the user-callback side of Fig. 6).
    const auto t0 = Clock::now();
    upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, boundary_cells_, std::identity{}, r.I, r.Io,
                 r.beta, r.I_new);
    const double cpu_boundary = seconds_since(t0);

    r.I.swap(r.I_new);

    // Refresh the device mirror with the interior results (what the real
    // kernel would have produced in place), then D2H the band slice for the
    // CPU post-step — the movement plan's per-step download. With the SDC
    // defense armed, the round trip additionally maintains the ABFT block
    // ledger, adopts the (possibly silently decayed) device copy, and heals
    // any corrupted block before the temperature update can consume it.
    if (sdc_armed())
      sdc_roundtrip(p);
    else
      roundtrip_with_guard(p);
    comm = std::max(comm, gpu.counters().copy_seconds - copy_before);
    dev_seconds_[p] = std::max(kernel_seconds, cpu_boundary);
  }

  // Straggler defense: the detector sees the raw (pre-mitigation) per-device
  // times — feeding it mitigated numbers would mask the straggler and make
  // the chronic verdict flap. Speculation then duplicates the chronic
  // straggler's shard on the least-loaded device: whichever copy finishes
  // first wins (results are bit-identical — both ran the same sweep), so the
  // step closes at min(victim, helper+shard). The helper's extra busy time is
  // the speculation charge.
  double spec_extra = 0.0;
  const bool strag = resilient_ && res_.straggler.enabled;
  if (strag) detector_.observe(dev_seconds_);
  if (strag && res_.straggler.speculation && num_devices() > 1) {
    const int32_t victim = detector_.chronic_straggler();
    const int32_t helper = victim >= 0 ? detector_.least_loaded(victim) : -1;
    if (victim >= 0 && helper >= 0) {
      const size_t v = static_cast<size_t>(victim), h = static_cast<size_t>(helper);
      const double helper_total = dev_seconds_[h] + detector_.fleet_median();
      const double eff_victim = std::min(dev_seconds_[v], helper_total);
      const double helper_busy = std::min(helper_total, std::max(dev_seconds_[h], eff_victim));
      spec_extra = helper_busy - dev_seconds_[h];
      dev_seconds_[v] = eff_victim;
      dev_seconds_[h] = helper_busy;
      rstats_.speculations += 1;
    }
  }
  const double max_intensity = *std::max_element(dev_seconds_.begin(), dev_seconds_.end());
  const double spec_charge = std::min(spec_extra, max_intensity);
  // Stats mirror the *charged* (capped) speculation time, the same quantity
  // the phase breakdown carries — charging the uncapped helper overshoot here
  // made resilience_stats().speculation_seconds drift above
  // phases().speculation (and hence above the wall-clock reconciliation)
  // whenever the helper ran past the step it was speculating for.
  rstats_.speculation_seconds += spec_charge;
  charge_phase(&Phases::intensity, "intensity", max_intensity - spec_charge);
  charge_phase(&Phases::speculation, "speculation", spec_charge);
  charge_phase(&Phases::communication, "communication", comm);

  // Gather band sums, temperature update on the CPU (replicated).
  const auto t0 = Clock::now();
  for (const BandSlices::Slice& r : slices_) slices_.sum_into(r, G_global_);
  slices_.update_temperature(G_global_, T_);
  charge_phase(&Phases::temperature, "temperature", seconds_since(t0));

  // H2D: refreshed Io/beta go back to each device — the movement plan's
  // per-step upload.
  double up = 0;
  for (size_t p = 0; p < slices_.size(); ++p) {
    const double before = devices_[p]->counters().copy_seconds;
    upload_moments(p);
    up = std::max(up, devices_[p]->counters().copy_seconds - before);
  }
  charge_phase(&Phases::communication, "communication", up);
}

void MultiGpuSolver::upload_moments(size_t p) {
  const BandSlices::Slice& r = slices_[p];
  iob_scratch_.resize(r.Io.size() + r.beta.size());
  std::copy(r.Io.begin(), r.Io.end(), iob_scratch_.begin());
  std::copy(r.beta.begin(), r.beta.end(),
            iob_scratch_.begin() + static_cast<std::ptrdiff_t>(r.Io.size()));
  devices_[p]->memcpy_h2d(mirrors_[p].dev_Iob, iob_scratch_);
}

// ---- resilience --------------------------------------------------------------

void MultiGpuSolver::launch_with_retry(rt::SimGpu& gpu, const std::string& name,
                                       const rt::KernelStats& ks,
                                       const std::function<void()>& body) {
  for (int attempt = 0;; ++attempt) {
    try {
      gpu.launch(name, ks, body);
      return;
    } catch (const rt::TransientFault&) {
      rstats_.faults_detected += 1;
      if (!resilient_ || attempt >= res_.max_retries)
        throw;  // unrecoverable here; run() or the caller decides
      recover(backoff_delay(res_, attempt));
      rstats_.retries += 1;
    }
  }
}

void MultiGpuSolver::roundtrip_with_guard(size_t p) {
  const BandSlices::Slice& r = slices_[p];
  rt::DeviceBuffer& dev_I = mirrors_[p].dev_I;
  rt::SimGpu& gpu = *devices_[p];
  host_back_.resize(r.I.size());
  const rt::BlockChecksum want = resilient_ ? rt::block_checksum(r.I) : rt::BlockChecksum{};
  for (int attempt = 0;; ++attempt) {
    gpu.memcpy_h2d(dev_I, r.I);
    gpu.memcpy_d2h(host_back_, dev_I);
    if (!resilient_) return;
    if (rt::block_checksum(host_back_).matches(want)) return;
    // Corrupted transfer: the band slice on the device (or the downloaded
    // copy) does not match the host truth. Re-drive the round trip.
    rstats_.faults_detected += 1;
    if (attempt >= res_.max_retries) {
      health_.transfer_ok = false;
      health_.detail = "device " + std::to_string(p) + " round-trip checksum mismatch";
      return;  // validation fails; run() rolls back and replays this step
    }
    recover(backoff_delay(res_, attempt));
    rstats_.retries += 1;
  }
}

// ---- silent-data-corruption defense ------------------------------------------

// SDC variant of the per-step round trip. Sequence, per rank:
//   1. refresh the ABFT block ledger from the swept host truth,
//   2. upload; let the device storage decay (possible injected silent flip),
//   3. download and *adopt* the device copy — the device is authoritative for
//      its band slice, so a flip there would otherwise reach the answer,
//   4. verify the adopted slice against the ledger; every mismatching block
//      is recomputed from the previous state (sub-range re-execution) rather
//      than rolling the whole run back,
//   5. run the redundant sentinel-cell audit (cross-checks even the blocks
//      whose checksums matched).
// Ledger upkeep + verification + sentinels are charged to the audit phase;
// block recomputes to recovery.
void MultiGpuSolver::sdc_roundtrip(size_t p) {
  BandSlices::Slice& r = slices_[p];
  Mirror& m = mirrors_[p];
  rt::SimGpu& gpu = *devices_[p];
  const size_t stride = static_cast<size_t>(r.bands()) * static_cast<size_t>(nd_);

  auto a0 = Clock::now();
  if (m.ledger.size() != r.I.size()) {
    const size_t block = static_cast<size_t>(std::max(1, res_.sdc.block_cells)) * stride;
    m.ledger = rt::BlockLedger(r.I.size(), block);
  }
  m.ledger.update(r.I);
  double audit_s = seconds_since(a0);

  const int64_t flips_before = gpu.counters().silent_flips;
  gpu.memcpy_h2d(m.dev_I, r.I);
  gpu.decay(m.dev_I, "dev_I");
  host_back_.resize(r.I.size());
  gpu.memcpy_d2h(host_back_, m.dev_I);
  r.I.swap(host_back_);
  if (gpu.counters().silent_flips > flips_before && flip_step_ < 0) flip_step_ = step_index_;

  a0 = Clock::now();
  const std::vector<size_t> bad = m.ledger.verify(r.I);
  audit_s += seconds_since(a0);
  for (size_t blk : bad) {
    note_sdc_detection();
    const auto r0 = Clock::now();
    const bool healed = repair_block(p, blk);
    recover(seconds_since(r0));
    if (!healed) {
      health_.sdc_ok = false;
      health_.detail = "device " + std::to_string(p) + " block " + std::to_string(blk) +
                       " failed twice; falling back to rollback";
    }
  }

  a0 = Clock::now();
  audit_sentinels(p);
  audit_s += seconds_since(a0);
  charge_phase(&Phases::audit, "audit", audit_s);
  rstats_.audit_seconds += audit_s;
}

// Localized repair: recompute one block's step from the previous state (the
// shadow that I_new holds after the swap) straight into the live array. The
// ledger's blocks align to whole cells, so the recompute is the exact
// computation the sweep performed originally — bit-identical by construction.
// Returns false when the block still mismatches afterwards (the "same block
// failed twice" case the caller escalates to checkpoint rollback).
bool MultiGpuSolver::repair_block(size_t p, size_t block) {
  BandSlices::Slice& r = slices_[p];
  const rt::BlockLedger& ledger = mirrors_[p].ledger;
  const size_t stride = static_cast<size_t>(r.bands()) * static_cast<size_t>(nd_);
  const rt::BlockLedger::Range range = ledger.range(block);
  repair_cells_.clear();
  for (size_t c = range.begin / stride; c * stride < range.end; ++c)
    repair_cells_.push_back(static_cast<int32_t>(c));
  upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, repair_cells_, std::identity{}, r.I_new, r.Io,
               r.beta, r.I);
  // A repair hit by its own silent fault (site "repair") models the same
  // block failing twice — the localized path gives up and the run() loop
  // falls back to checkpoint rollback.
  if (res_.injector != nullptr &&
      res_.injector->should_fault(rt::FaultKind::BitFlipDeviceArray, "repair"))
    res_.injector->flip_bit(
        std::span<double>(r.I).subspan(range.begin, range.end - range.begin),
        rt::FaultKind::BitFlipDeviceArray, "repair");
  const rt::BlockChecksum now = rt::block_checksum(
      std::span<const double>(r.I).subspan(range.begin, range.end - range.begin));
  if (!now.matches(ledger.checksum(block))) {
    rstats_.repair_failures += 1;
    return false;
  }
  rstats_.block_repairs += 1;
  return true;
}

// Redundant sentinel cells: a deterministic handful of cells recomputed from
// the previous state and compared bit-exactly against the live array. This is
// the cross-rank redundancy audit of the design (in a real MPI deployment the
// sentinels of neighbouring ranks ride the halo messages): it catches
// corruption even on paths the checksums do not cover, bounding detection
// latency to one step.
void MultiGpuSolver::audit_sentinels(size_t p) {
  if (res_.sdc.sentinel_cells <= 0) return;
  BandSlices::Slice& r = slices_[p];
  const size_t stride = static_cast<size_t>(r.bands()) * static_cast<size_t>(nd_);
  const std::vector<int32_t>& sentinels = sentinel_cells();
  sentinel_scratch_.resize(r.I.size());
  upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, sentinels, std::identity{}, r.I_new, r.Io, r.beta,
               sentinel_scratch_);
  for (int32_t c : sentinels) {
    rstats_.sentinel_checks += 1;
    const size_t off = static_cast<size_t>(c) * stride;
    if (std::memcmp(&r.I[off], &sentinel_scratch_[off], stride * sizeof(double)) == 0) continue;
    note_sdc_detection();
    const auto r0 = Clock::now();
    const bool healed = repair_block(p, mirrors_[p].ledger.block_of(off));
    recover(seconds_since(r0));
    if (!healed) {
      health_.sdc_ok = false;
      health_.detail = "device " + std::to_string(p) + " sentinel cell " + std::to_string(c) +
                       " repair failed";
    }
  }
}

// Energy-balance tripwire: the total intensity energy (the ledgers' Kahan
// sums, already paid for) must not jump by more than the configured relative
// tolerance in one step. A single flip is caught by the checksums long before
// it moves this needle; the invariant exists to flag *systematic* corruption
// (a wrong kernel, a stuck coefficient upload) and is recorded, not
// health-failing — bit-exact detection stays the checksums' job.
void MultiGpuSolver::audit_energy_invariant() {
  rt::KahanSum e;
  for (size_t p = 0; p < slices_.size(); ++p) {
    const rt::BlockLedger& ledger = mirrors_[p].ledger;
    if (ledger.size() != slices_[p].I.size()) return;  // ledger not armed yet
    for (size_t b = 0; b < ledger.num_blocks(); ++b) e.add(ledger.checksum(b).sum);
  }
  check_energy_drift(e.sum);
}

void MultiGpuSolver::validate() {
  rstats_.validations += 1;
  if (sdc_armed()) audit_energy_invariant();
  for (size_t p = 0; p < slices_.size(); ++p) scan_finite(slices_[p].I, static_cast<int>(p), "I");
  scan_finite(T_, -1, "T");
}

void MultiGpuSolver::scatter(const std::vector<double>& I, const std::vector<double>& T,
                             const std::vector<double>& Io, const std::vector<double>& beta) {
  T_ = T;
  slices_.scatter(I, Io, beta);
  // Device mirrors must match the restored host truth before replay.
  for (size_t p = 0; p < slices_.size(); ++p) {
    devices_[p]->memcpy_h2d(mirrors_[p].dev_I, slices_[p].I);
    upload_moments(p);
  }
}

double MultiGpuSolver::copy_seconds_total() const {
  double s = 0;
  for (const auto& dev : devices_) s += dev->counters().copy_seconds;
  return s;
}

void MultiGpuSolver::charge_recovery(double seconds) {
  charge_phase(&Phases::recovery, "recovery", seconds);
}

// Survivors notice the loss a suspicion timeout after it happens.
double MultiGpuSolver::charge_loss_detection(int32_t) {
  const double timeout = res_.heartbeat.suspicion_timeout();
  charge_recovery(timeout);
  return timeout;
}

double MultiGpuSolver::restore_charged(const rt::Snapshot& snap, Motion m) {
  const double copy_before = copy_seconds_total();
  restore(snap);
  const double spent = copy_seconds_total() - copy_before;
  if (m == Motion::Rollback) charge_phase(&Phases::recovery, "recovery", spent);
  if (m == Motion::Redistribution) charge_phase(&Phases::redistribution, "redistribution", spent);
  if (m == Motion::Rebalance) charge_phase(&Phases::rebalance, "rebalance", spent);
  return spent;
}

void MultiGpuSolver::inject_slow_device(int32_t device, double factor) {
  if (device < 0 || device >= num_devices())
    throw std::invalid_argument("inject_slow_device: device out of range");
  devices_[static_cast<size_t>(device)]->set_slow(factor);
}

void MultiGpuSolver::relayout_away(int32_t victim) {
  apply_band_layout(slices_.weighted_split(num_devices(), victim, detector_.slowdown(victim)));
  detector_.resize(num_devices());
}

void MultiGpuSolver::arm_strategy() {
  for (auto& dev : devices_) {
    dev->set_fault_injector(res_.injector);
    dev->set_memory_budget(res_.memory);
  }
  if (res_.straggler.enabled) detector_ = rt::StragglerDetector(num_devices(), res_.straggler);
  rehome_device_mirrors();
}

// The constructor allocated the device mirrors before enable_resilience could
// attach a budget, so they are invisible to it. Re-allocate + re-upload them
// through the now-budgeted devices: every mirror byte is then reserved against
// the budget (and released with the buffer), which is what makes MemoryPressure
// spikes and the relief-chain math operate on real occupancy instead of zero.
// Later reallocations (eviction rebuilds, rebalance layouts) are charged as a
// matter of course since the devices keep the budget pointer.
void MultiGpuSolver::rehome_device_mirrors() {
  if (res_.memory == nullptr) return;
  for (size_t p = 0; p < slices_.size(); ++p) allocate_mirror(p);
}

// Only rebuildable scratch: the host staging buffers are resized before every
// transfer that uses them.
int64_t MultiGpuSolver::shrink_scratch() {
  const auto shrink = [](std::vector<double>& v) {
    const int64_t freed = static_cast<int64_t>(v.capacity() * sizeof(double));
    v.clear();
    v.shrink_to_fit();
    return freed;
  };
  return shrink(host_back_) + shrink(iob_scratch_) + shrink(sentinel_scratch_);
}

// Mirrors the per-device performance-fault counters into the run stats.
// Evictions recreate devices, so this is a floor, not an exact total.
void MultiGpuSolver::sync_fault_telemetry() {
  int64_t jitter = 0;
  int64_t slow = 0;
  for (const auto& dev : devices_) {
    jitter += dev->counters().jitter_events;
    if (dev->is_slow()) slow += 1;
  }
  rstats_.jitter_events = jitter;
  rstats_.slow_steps = std::max(rstats_.slow_steps, slow);
}

}  // namespace finch::bte
