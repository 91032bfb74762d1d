#pragma once
// Executing multi-GPU hybrid solver — the configuration of Figs. 6-8:
// band-partitioned across devices ("each process is paired with one device.
// Partitioning between these is the same as the band-parallel strategy"),
// interior bulk on the (simulated) GPU, boundary cells and the temperature
// update on the CPU, per-step transfers following the movement plan.
//
// A strategy of the one resilient run driver (DistributedSolver,
// distributed_solver.hpp): this file supplies the device step, the field
// scan, the band-slice gather/scatter plus device-mirror refresh, the rebuild
// at M devices, the weighted derate and the copy-priced motions; run(),
// checkpoints, eviction, durable resume and the BSP virtual clock live in the
// driver. Each device is one rank of that clock: a step charges the device
// superstep (max over devices of kernel vs CPU boundary time), the PCIe
// transfers and the CPU temperature update to it. The band
// slices use the same BandSlices layout as BandPartitionedSolver, and every
// sweep — interior kernel, CPU boundary cells, SDC sentinels and block
// repair — is the one kernel upwind_sweep with the identity cell map over
// that cell subset. The devices sweep concurrently; every launch, transfer
// and fault consultation then runs on the calling thread in device order.
//
// Numerics are bit-identical to the serial DirectSolver (tested); what the
// simulated devices add is faithful accounting: per-device kernel launches,
// H2D/D2H byte counters and roofline-modeled times feeding the same phase
// breakdown the paper plots (compute = the device sweep, post_process = the
// CPU temperature update, communication = the PCIe transfers).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "distributed_solver.hpp"
#include "runtime/abft.hpp"
#include "runtime/simgpu.hpp"

namespace finch::bte {

class MultiGpuSolver : public DistributedSolver {
 public:
  MultiGpuSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                 int num_devices, rt::GpuSpec spec = rt::GpuSpec::a6000());

  void step() override;

  // Elastic shrink: marks `device` as permanently lost (XID/ECC death); at the
  // next run() step boundary the survivors redistribute the band shards over
  // M = num_devices()-1 devices and restart from the last (topology-
  // independent) checkpoint. Requires enable_resilience. DeviceLoss injector
  // policies drive the same path with a deterministically drawn victim.
  void kill_device(int32_t device) { request_kill(device); }

  // Explicit deterministic performance fault: every launch on `device` models
  // `factor`x slower from now on (SlowRank with a hand-placed victim). The
  // kernel's computed result is untouched.
  void inject_slow_device(int32_t device, double factor);

  // Per-band owner multiplicity.
  std::vector<int32_t> owner_counts() const override { return slices_.owner_counts(); }

  int num_devices() const { return static_cast<int>(devices_.size()); }
  const rt::SimGpu& device(int i) const { return *devices_[static_cast<size_t>(i)]; }

  const std::vector<double>& temperature() const { return T_; }
  std::vector<double> gather_temperature() const override { return T_; }

 private:
  // Device side of one band slice. Note: after step()'s I.swap(I_new), the
  // slice's I_new holds the *previous* step's intensities — the shadow state
  // the localized repair recomputes from.
  struct Mirror {
    rt::DeviceBuffer dev_I;    // device mirror of the band slice
    rt::DeviceBuffer dev_Iob;  // device mirror of Io+beta
    // ABFT block ledger over I (blocks = cell ranges x this rank's bands).
    rt::BlockLedger ledger;
    // I matches `ledger` bit for bit (see refresh_ledger).
    bool proves_finite = false;
  };

  // Fresh devices at `num_devices` with the equal band split.
  void rebuild(int num_devices) override;
  // Assigns explicit contiguous band ranges to the *existing* devices — the
  // weighted rebalance reuses the devices (the slow hardware must stay slow)
  // and only changes the assignment.
  void apply_band_layout(const BandSlices::Ranges& ranges);
  // Allocates slice p's device mirrors and uploads its intensities (the
  // movement plan's upload_once).
  void allocate_mirror(size_t p);
  // Dynamic derate: the chronic straggler keeps a band share inversely
  // proportional to its observed slowdown; survivors absorb the rest.
  void relayout_away(int32_t victim) override;
  // A device whose step does not shrink with its band share (a launch-bound
  // kernel under one wave) keeps its measured slowdown after a derate, and
  // the derate then reproduces the current layout: nothing to move.
  bool relayout_moves(int32_t victim) const override {
    return slices_.weighted_split(num_devices(), victim, bsp_.straggler().slowdown(victim)) !=
           slices_.ranges();
  }
  // The devices, not the clock, consult the injector.
  void arm_strategy() override;
  // The device-mirror refresh is a real H2D cost, billed to the phase the
  // motion names.
  double restore_charged(const rt::Snapshot& snap, Motion m) override;
  int64_t shrink_scratch() override;
  void sync_fault_telemetry() override;
  void validate() override;
  void gather_intensity_into(std::vector<double>& I) const override {
    slices_.gather_intensity(I);
  }
  void gather_moments(std::vector<double>& Io, std::vector<double>& beta) const override {
    slices_.gather_moments(Io, beta);
  }
  void scatter(const std::vector<double>& I, const std::vector<double>& T,
               const std::vector<double>& Io, const std::vector<double>& beta) override;

  double copy_seconds_total() const;
  void upload_moments(size_t p);
  // Launch bookkeeping (modeled time, fault consultations, retries) of a
  // kernel whose body step() already ran.
  void launch_with_retry(rt::SimGpu& gpu, const std::string& name, const rt::KernelStats& ks);
  void refresh_ledger(size_t p);
  void roundtrip_with_guard(size_t p);
  void sdc_roundtrip(size_t p);
  bool repair_block(size_t p, size_t block);
  bool audit_sentinels(size_t p);
  void audit_energy_invariant();
  void rehome_device_mirrors();

  rt::GpuSpec spec_;
  BandSlices slices_;
  std::vector<Mirror> mirrors_;
  std::vector<std::unique_ptr<rt::SimGpu>> devices_;
  std::vector<int32_t> interior_cells_, boundary_cells_;
  std::vector<double> T_;
  std::vector<double> G_global_;
  std::vector<double> host_back_, iob_scratch_;

  // ---- SDC defense scratch ----
  std::vector<int32_t> repair_cells_;       // scratch: cell list of one block
  std::vector<double> sentinel_scratch_;    // recompute target for sentinels
};

}  // namespace finch::bte
