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
// at M devices, the weighted derate and the phase-ledger clock; run(),
// checkpoints, eviction and durable resume live in the driver. The band
// slices use the same BandSlices layout as BandPartitionedSolver, and every
// sweep — interior kernel, CPU boundary cells, SDC sentinels and block
// repair — is the one kernel upwind_sweep with the identity cell map over
// that cell subset.
//
// Numerics are bit-identical to the serial DirectSolver (tested); what the
// simulated devices add is faithful accounting: per-device kernel launches,
// H2D/D2H byte counters and roofline-modeled times feeding the same phase
// breakdown the paper plots.

#include <cstdint>
#include <functional>
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

  // Modeled per-step phase seconds (max over devices, as a BSP step).
  struct Phases {
    double intensity = 0;      // max(kernel, cpu boundary) per step, summed
    double temperature = 0;    // CPU post-step (measured)
    double communication = 0;  // PCIe transfers (modeled)
    double recovery = 0;       // backoff + retransmit + restore (modeled)
    double redistribution = 0; // shard re-upload after a device eviction
    double audit = 0;          // ABFT ledger upkeep + verify + sentinels
    double speculation = 0;    // duplicated straggler work on the critical path
    double rebalance = 0;      // shard re-upload of a dynamic derate
    double total() const {
      return intensity + temperature + communication + recovery + redistribution + audit +
             speculation + rebalance;
    }
  };
  const Phases& phases() const { return phases_; }
  double phase_total() const override { return phases_.total(); }
  // Virtual seconds consumed so far; equals phases().total() exactly (every
  // phase charge advances this cursor, see charge_phase).
  double virtual_elapsed() const override { return trace_cursor_; }
  // Routes this solver's virtual-time phase spans to Chrome-trace track
  // `track` (see OBSERVABILITY.md); `label` names it in the exported file.
  void set_trace_track(int32_t track, const std::string& label = "");
  int32_t trace_track() const { return trace_track_; }

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
  int32_t chronic_straggler() const override { return detector_.chronic_straggler(); }
  void arm_strategy() override;
  void charge_recovery(double seconds) override;
  double charge_loss_detection(int32_t victim) override;
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
  void launch_with_retry(rt::SimGpu& gpu, const std::string& name, const rt::KernelStats& ks,
                         const std::function<void()>& body);
  void roundtrip_with_guard(size_t p);
  void sdc_roundtrip(size_t p);
  bool repair_block(size_t p, size_t block);
  void audit_sentinels(size_t p);
  void audit_energy_invariant();
  void rehome_device_mirrors();
  // The single gateway for phase accounting: adds `seconds` to phases_.*field,
  // emits a virtual-time trace span named `name` at the running cursor, and
  // bumps the mgpu.phase.<name>_seconds metric. Because every phases_ mutation
  // goes through here, per-phase span sums reconcile with phases().total() by
  // construction (asserted in bench_straggler).
  void charge_phase(double Phases::*field, const char* name, double seconds);

  rt::GpuSpec spec_;
  BandSlices slices_;
  std::vector<Mirror> mirrors_;
  std::vector<std::unique_ptr<rt::SimGpu>> devices_;
  std::vector<int32_t> interior_cells_, boundary_cells_;
  std::vector<double> T_;
  std::vector<double> G_global_;
  std::vector<double> host_back_, iob_scratch_;
  Phases phases_;
  int32_t trace_track_ = 100;  // Chrome-trace track of the virtual phase spans
  double trace_cursor_ = 0.0;  // running virtual time; advanced by charge_phase
  // Straggler defense: per-device step-time telemetry feeds the detector.
  rt::StragglerDetector detector_;
  std::vector<double> dev_seconds_;

  // ---- SDC defense scratch ----
  std::vector<int32_t> repair_cells_;       // scratch: cell list of one block
  std::vector<double> sentinel_scratch_;    // recompute target for sentinels
};

}  // namespace finch::bte
