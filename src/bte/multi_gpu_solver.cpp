#include "multi_gpu_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>

#include "cost_model.hpp"

namespace finch::bte {

MultiGpuSolver::MultiGpuSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                               int num_devices, rt::GpuSpec spec)
    : DistributedSolver(scenario, std::move(physics), num_devices,
                        {"mgpu", rt::FaultKind::DeviceLoss, "gpu", "device"}),
      spec_(std::move(spec)),
      slices_(*phys_, scenario.nx * scenario.ny) {
  if (num_devices < 1) throw std::invalid_argument("MultiGpuSolver: num_devices >= 1");
  if (num_devices > nb_) throw std::invalid_argument("MultiGpuSolver: more devices than bands");
  bsp_.set_trace_track(100);
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

void MultiGpuSolver::step() {
  double comm = 0;
  bool stretched = false;
  std::vector<double> dev_seconds(slices_.size());

  // Every device's interior kernel body and CPU boundary cells run first,
  // concurrently: the swept slice does not depend on the launch bookkeeping
  // below, which owns every fault consultation. With resilience armed, the
  // block ledger of the swept host truth is refreshed alongside.
  for_each_rank(slices_.size(), [this](size_t p) {
    BandSlices::Slice& r = slices_[p];
    upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, interior_cells_, std::identity{}, r.I, r.Io,
                 r.beta, r.I_new);
    upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, boundary_cells_, std::identity{}, r.I, r.Io,
                 r.beta, r.I_new);
    r.I.swap(r.I_new);
    if (resilient_) refresh_ledger(p);
  });

  for (size_t p = 0; p < slices_.size(); ++p) {
    BandSlices::Slice& r = slices_[p];
    rt::SimGpu& gpu = *devices_[p];
    const int bl = r.bands();
    const double dev_before = gpu.stream_clock(0);
    const double copy_before = gpu.counters().copy_seconds;

    // Interior kernel on the device; its body ran above on the band slice.
    rt::KernelStats ks;
    ks.threads = static_cast<int64_t>(interior_cells_.size()) * nd_ * bl;
    ks.flops_per_thread = 40;  // per-DOF update + 4-face upwind flux
    ks.fma_fraction = 0.3;
    ks.dram_bytes_per_thread = 18;
    ks.divergence = 0.05;
    launch_with_retry(gpu, "bte_interior", ks);
    const double kernel_seconds = gpu.stream_clock(0) - dev_before;
    stretched = stretched || gpu.is_slow();

    // Boundary cells on the CPU (the user-callback side of Fig. 6).
    const double cpu_boundary =
        cost::sweep_seconds(static_cast<int64_t>(boundary_cells_.size()) * nd_ * bl);

    // Refresh the device mirror with the interior results (what the real
    // kernel would have produced in place), then D2H the band slice for the
    // CPU post-step — the movement plan's per-step download. With the SDC
    // defense armed, the round trip additionally adopts the (possibly
    // silently decayed) device copy and heals any corrupted block before the
    // temperature update can consume it.
    if (sdc_armed())
      sdc_roundtrip(p);
    else
      roundtrip_with_guard(p);
    comm = std::max(comm, gpu.counters().copy_seconds - copy_before);
    dev_seconds[p] = std::max(kernel_seconds, cpu_boundary);
  }

  // One device superstep on the clock. Its straggler detector sees the raw
  // per-device times, already stretched by a slow device's hardware; a shard
  // duplicated for a chronic straggler is priced at the fleet median, the
  // step of a healthy device.
  arm_speculation_if_chronic([this](int32_t) { return bsp_.straggler().fleet_median(); });
  bsp_.compute_step(dev_seconds, rt::BspSimulator::Phase::Compute);
  if (stretched) rstats_.slow_steps += 1;
  bsp_.uniform_compute(comm, rt::BspSimulator::Phase::Communication);

  // Gather band sums, temperature update on the CPU (replicated), over cell
  // chunks.
  const size_t ncell = T_.size();
  for_each_chunk(ncell, [this](size_t begin, size_t end) {
    for (const BandSlices::Slice& r : slices_) slices_.sum_into(r, G_global_, begin, end);
    slices_.update_temperature(G_global_, T_, begin, end);
  });
  const auto cells = static_cast<int64_t>(ncell);
  bsp_.uniform_compute(cost::temperature_seconds(cells, cells * nb_, cells * nb_ * nd_),
                       rt::BspSimulator::Phase::PostProcess);

  // H2D: refreshed Io/beta go back to each device — the movement plan's
  // per-step upload.
  double up = 0;
  for (size_t p = 0; p < slices_.size(); ++p) {
    const double before = devices_[p]->counters().copy_seconds;
    upload_moments(p);
    up = std::max(up, devices_[p]->counters().copy_seconds - before);
  }
  bsp_.uniform_compute(up, rt::BspSimulator::Phase::Communication);
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
                                       const rt::KernelStats& ks) {
  for (int attempt = 0;; ++attempt) {
    try {
      gpu.launch(name, ks, {});
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

// The block ledger over slice p's swept intensities (blocks = cell ranges x
// the slice's bands): the SDC audit's reference and the transfer guard's. As
// a signature of I as it stands, it proves I finite until the SDC round trip
// replaces I with the device copy.
void MultiGpuSolver::refresh_ledger(size_t p) {
  const BandSlices::Slice& r = slices_[p];
  Mirror& m = mirrors_[p];
  const size_t stride = static_cast<size_t>(r.bands()) * static_cast<size_t>(nd_);
  const size_t block = static_cast<size_t>(std::max(1, res_.sdc.block_cells)) * stride;
  if (m.ledger.size() != r.I.size() || m.ledger.block_size() != block)
    m.ledger = rt::BlockLedger(r.I.size(), block);
  m.ledger.update(r.I);
  m.proves_finite = true;
}

// The round trip without the SDC defense. Armed, it checks the downloaded
// copy against the ledger of the host truth (refreshed before the upload)
// and re-drives a corrupted transfer with backoff.
void MultiGpuSolver::roundtrip_with_guard(size_t p) {
  const BandSlices::Slice& r = slices_[p];
  Mirror& m = mirrors_[p];
  rt::SimGpu& gpu = *devices_[p];
  host_back_.resize(r.I.size());
  for (int attempt = 0;; ++attempt) {
    gpu.memcpy_h2d(m.dev_I, r.I);
    gpu.memcpy_d2h(host_back_, m.dev_I);
    if (!resilient_) return;
    if (m.ledger.verify(host_back_).empty()) return;
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
//   1. the ABFT block ledger of the swept host truth (refreshed by step()),
//   2. upload; let the device storage decay (possible injected silent flip),
//   3. download and *adopt* the device copy — the device is authoritative for
//      its band slice, so a flip there would otherwise reach the answer,
//   4. verify the adopted slice against the ledger; every mismatching block
//      is recomputed from the previous state (sub-range re-execution) rather
//      than rolling the whole run back,
//   5. run the redundant sentinel-cell audit (cross-checks even the blocks
//      whose checksums matched).
// Ledger upkeep + verification + sentinels are charged to the audit phase;
// block recomputes to recovery. A slice that leaves this clean matches its
// ledger bit for bit again, so the ledger's sums still prove it finite.
void MultiGpuSolver::sdc_roundtrip(size_t p) {
  BandSlices::Slice& r = slices_[p];
  Mirror& m = mirrors_[p];
  rt::SimGpu& gpu = *devices_[p];
  const int64_t bytes = static_cast<int64_t>(r.I.size()) * 8;
  double audit_s = cost::audit_seconds(bytes);  // the ledger refresh

  const int64_t flips_before = gpu.counters().silent_flips;
  gpu.memcpy_h2d(m.dev_I, r.I);
  gpu.decay(m.dev_I, "dev_I");
  host_back_.resize(r.I.size());
  gpu.memcpy_d2h(host_back_, m.dev_I);
  r.I.swap(host_back_);
  if (gpu.counters().silent_flips > flips_before && flip_step_ < 0) flip_step_ = step_index_;

  audit_s += cost::audit_seconds(bytes);
  bool clean = true;
  for (size_t blk : m.ledger.verify(r.I)) {
    note_sdc_detection();
    if (!repair_block(p, blk)) {
      clean = false;
      health_.sdc_ok = false;
      health_.detail = "device " + std::to_string(p) + " block " + std::to_string(blk) +
                       " failed twice; falling back to rollback";
    }
  }

  audit_s += cost::sweep_seconds(static_cast<int64_t>(sentinel_cells().size()) *
                                 r.bands() * nd_);
  clean = audit_sentinels(p) && clean;
  m.proves_finite = clean;
  charge_audit(audit_s);
}

// Localized repair: recompute one block's step from the previous state (the
// shadow that I_new holds after the swap) straight into the live array, and
// charge the recompute to recovery. The ledger's blocks align to whole cells,
// so the recompute is the exact computation the sweep performed originally —
// bit-identical by construction. Returns false when the block still
// mismatches afterwards (the "same block failed twice" case the caller
// escalates to checkpoint rollback).
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
  const bool healed = now.matches(ledger.checksum(block));
  if (healed)
    rstats_.block_repairs += 1;
  else
    rstats_.repair_failures += 1;
  recover(cost::sweep_seconds(static_cast<int64_t>(repair_cells_.size() * stride)) +
          cost::audit_seconds(static_cast<int64_t>(range.end - range.begin) * 8));
  return healed;
}

// Redundant sentinel cells: a deterministic handful of cells recomputed from
// the previous state and compared bit-exactly against the live array. This is
// the cross-rank redundancy audit of the design (in a real MPI deployment the
// sentinels of neighbouring ranks ride the halo messages): it catches
// corruption even on paths the checksums do not cover, bounding detection
// latency to one step. Returns false when a repair failed.
bool MultiGpuSolver::audit_sentinels(size_t p) {
  if (res_.sdc.sentinel_cells <= 0) return true;
  BandSlices::Slice& r = slices_[p];
  const size_t stride = static_cast<size_t>(r.bands()) * static_cast<size_t>(nd_);
  const std::vector<int32_t>& sentinels = sentinel_cells();
  sentinel_scratch_.resize(r.I.size());
  upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, sentinels, std::identity{}, r.I_new, r.Io, r.beta,
               sentinel_scratch_);
  bool clean = true;
  for (int32_t c : sentinels) {
    rstats_.sentinel_checks += 1;
    const size_t off = static_cast<size_t>(c) * stride;
    if (std::memcmp(&r.I[off], &sentinel_scratch_[off], stride * sizeof(double)) == 0) continue;
    note_sdc_detection();
    if (!repair_block(p, mirrors_[p].ledger.block_of(off))) {
      clean = false;
      health_.sdc_ok = false;
      health_.detail = "device " + std::to_string(p) + " sentinel cell " + std::to_string(c) +
                       " repair failed";
    }
  }
  return clean;
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
  // With resilience armed, a slice whose I matches its ledger (the guarded
  // round trip leaves the host truth untouched; the SDC round trip adopts the
  // device copy only after verifying it) is proven finite by the ledger's
  // Kahan block sums: a NaN or Inf element makes its block's sum non-finite
  // for good, as the cell solver's energy pass proves its owned cells. Every
  // other slice is scanned in full.
  const auto proven = [this](size_t p) {
    const Mirror& m = mirrors_[p];
    if (!m.proves_finite || m.ledger.size() != slices_[p].I.size()) return false;
    for (size_t b = 0; b < m.ledger.num_blocks(); ++b)
      if (!std::isfinite(m.ledger.checksum(b).sum)) return false;
    return true;
  };
  std::vector<FieldScan> scans;
  for (size_t p = 0; p < slices_.size(); ++p)
    if (!proven(p)) scans.push_back({slices_[p].I, 0, static_cast<int>(p), "I"});
  scans.push_back({T_, 0, -1, "T"});
  scan_finite(scans);
}

void MultiGpuSolver::scatter(const std::vector<double>& I, const std::vector<double>& T,
                             const std::vector<double>& Io, const std::vector<double>& beta) {
  T_ = T;
  slices_.scatter(I, Io, beta);
  // Device mirrors must match the restored host truth before replay.
  for (size_t p = 0; p < slices_.size(); ++p) {
    mirrors_[p].proves_finite = false;
    devices_[p]->memcpy_h2d(mirrors_[p].dev_I, slices_[p].I);
    upload_moments(p);
  }
}

double MultiGpuSolver::copy_seconds_total() const {
  double s = 0;
  for (const auto& dev : devices_) s += dev->counters().copy_seconds;
  return s;
}

double MultiGpuSolver::restore_charged(const rt::Snapshot& snap, Motion m) {
  using Phase = rt::BspSimulator::Phase;
  const double copy_before = copy_seconds_total();
  restore(snap);
  const double spent = copy_seconds_total() - copy_before;
  bsp_.charge(m == Motion::Rollback         ? Phase::Recovery
              : m == Motion::Redistribution ? Phase::Redistribution
                                            : Phase::Rebalance,
              spent);
  return spent;
}

void MultiGpuSolver::inject_slow_device(int32_t device, double factor) {
  if (device < 0 || device >= num_devices())
    throw std::invalid_argument("inject_slow_device: device out of range");
  devices_[static_cast<size_t>(device)]->set_slow(factor);
}

void MultiGpuSolver::relayout_away(int32_t victim) {
  apply_band_layout(
      slices_.weighted_split(num_devices(), victim, bsp_.straggler().slowdown(victim)));
  // Old per-device timing history does not describe the new shares.
  bsp_.straggler().resize(num_devices());
}

void MultiGpuSolver::arm_strategy() {
  for (auto& dev : devices_) {
    dev->set_fault_injector(res_.injector);
    dev->set_memory_budget(res_.memory);
  }
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

// Mirrors the per-device jitter counters into the run stats. Evictions
// recreate devices, so this is a floor, not an exact total. step() counts
// slow_steps itself: the devices, not the clock, stretch a slow superstep.
void MultiGpuSolver::sync_fault_telemetry() {
  int64_t jitter = 0;
  for (const auto& dev : devices_) jitter += dev->counters().jitter_events;
  rstats_.jitter_events = jitter;
}

}  // namespace finch::bte
