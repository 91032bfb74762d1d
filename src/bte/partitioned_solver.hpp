#pragma once
// Executing distributed-memory solvers for the paper's two partitioning
// strategies (§III.C, Fig. 3). Ranks are simulated in-process but own
// genuinely separate storage and move data only through explicit exchanges,
// so the communication pattern — and its volume — is real:
//
//  * CellPartitionedSolver — the mesh is split by the partitioner; every rank
//    owns its cells plus ghost copies of remote halo cells, refreshed by a
//    halo exchange each step ("communication between neighbors for all values
//    of I_db", Fig. 3 top).
//  * BandPartitionedSolver — every rank owns a contiguous band range on all
//    cells; the only cross-rank data motion is the gather of per-cell
//    band-directional sums before the temperature update ("the coupling of
//    the bands only occurs in the temperature update", §III.C).
//
// Both are strategies of the one resilient run driver (DistributedSolver,
// distributed_solver.hpp): they supply one step, the field scan, the
// canonical gather/scatter, the rebuild at M ranks and the rebalance layout,
// while run(), checkpoints, eviction and durable resume live in the driver.
// BspSolver holds what the two share, the BSP virtual clock. Both sweep with
// the one kernel upwind_sweep and differ only in the cell → local-index map
// they hand it: a cell rank maps global ids through global_to_local onto its
// owned + ghost storage (the band slice bl = nb), a band rank uses the
// identity over every cell. Both produce fields bit-identical to the serial
// DirectSolver — tested — and report the bytes they moved, which the perf
// models' figures price.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "distributed_solver.hpp"
#include "mesh/partition.hpp"
#include "runtime/abft.hpp"
#include "runtime/simmpi.hpp"

namespace finch::bte {

struct CommVolume {
  int64_t bytes_per_step = 0;   // payload exchanged every step
  int64_t messages_per_step = 0;
  int64_t total_bytes = 0;      // accumulated over run()
};

// The cell and band strategies' shared clock: ranks run supersteps on one
// BSP simulator, which carries the phase ledger, the heartbeat, the
// straggler detector and the exchange watchdog. Recovery costs are charged
// to it; the numerics never see it.
class BspSolver : public DistributedSolver {
 public:
  // Kills `rank` permanently; the death is discovered (heartbeat suspicion
  // timeout) at the next run() step boundary, the survivors rebuild at
  // nparts()-1 ranks and restart from the last checkpoint. Requires
  // enable_resilience (eviction needs a rollback target). RankFailure
  // injector policies drive the same path with a deterministically drawn
  // victim.
  void kill_rank(int32_t rank) { request_kill(rank); }

  // Explicit deterministic performance fault: `rank` computes `factor`x
  // slower from now on (the SlowRank fault with a hand-placed victim). The
  // numerics are untouched — only the virtual clock feels it.
  void inject_slow_rank(int32_t rank, double factor) { bsp_.set_slow_rank(rank, factor); }

  int nparts() const { return nparts_; }
  const CommVolume& comm() const { return comm_; }
  // Virtual-time phase breakdown (measured compute, modeled communication).
  const rt::PhaseTimes& phases() const { return bsp_.phases(); }
  // Total virtual seconds on the BSP clock; equals phases().total() exactly.
  double virtual_elapsed() const override { return bsp_.elapsed(); }
  double phase_total() const override { return bsp_.phases().total(); }
  // Routes this solver's virtual-time phase spans to Chrome-trace track
  // `track` (see OBSERVABILITY.md); `label` names it in the exported file.
  void set_trace_track(int32_t track, const std::string& label = "") {
    bsp_.set_trace_track(track, label);
  }

 protected:
  BspSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics, int nparts,
            Sites sites);

  void arm_strategy() override;
  void charge_recovery(double seconds) override { bsp_.charge_recovery(seconds); }
  double charge_loss_detection(int32_t victim) override;
  double restore_charged(const rt::Snapshot& snap, Motion m) override;
  int32_t chronic_straggler() const override { return bsp_.straggler().chronic_straggler(); }
  int32_t take_hang_suspect() override;
  void sync_fault_telemetry() override;
  // Arms a one-shot speculative duplicate of the chronic straggler's shard on
  // the least-loaded survivor, just before the compute superstep it covers.
  void arm_speculation_if_chronic();
  // Retransmits a message dropped at `site` with bounded exponential backoff
  // (charged as fault stall). Returns false, with the step marked unhealthy,
  // when the retry budget is spent.
  bool deliver(rt::FaultInjector& fi, const char* site, const char* what);
  // Charges wall seconds measured since `t0` to the audit phase.
  void charge_audit_since(std::chrono::steady_clock::time_point t0);

  rt::BspSimulator bsp_;
  CommVolume comm_;
};

class CellPartitionedSolver : public BspSolver {
 public:
  CellPartitionedSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                        int nparts, mesh::PartitionMethod method = mesh::PartitionMethod::RCB);

  void step() override;

  std::vector<double> gather_temperature() const override;
  // Per-cell owner multiplicity (how many ranks claim each cell).
  std::vector<int32_t> owner_counts() const override;

 private:
  struct Rank {
    std::vector<int32_t> owned;            // global cell ids
    std::vector<int32_t> ghosts;           // global cell ids of halo copies
    std::vector<int32_t> global_to_local;  // -1 if not present on this rank
    std::vector<double> I, I_new;          // [(owned+ghost) * dofs]
    std::vector<double> Io, beta;          // [owned * nbands]
    std::vector<double> T;                 // [owned]
    mesh::HaloPlan halo;
    // The sweep's cell → local-index map: a rank is the band slice bl = nb
    // over its owned + ghost cells.
    auto local() const {
      return [this](int32_t c) { return global_to_local[static_cast<size_t>(c)]; };
    }
  };

  // (Re)builds the rank layout: partition, halos, per-rank storage at
  // T_init, and the per-step communication volume.
  void rebuild(int nparts) override;
  // The cell partitioner has no weighted mode, so the straggler is *drained*:
  // its whole shard moves to the survivors (nparts()-1 ranks).
  void relayout_away(int32_t victim) override;
  void validate() override;
  void gather_intensity_into(std::vector<double>& I) const override;
  void gather_moments(std::vector<double>& Io, std::vector<double>& beta) const override;
  void scatter(const std::vector<double>& I, const std::vector<double>& T,
               const std::vector<double>& Io, const std::vector<double>& beta) override;
  int64_t shrink_scratch() override;

  void exchange_halos();
  void copy_ghosts(Rank& r, const Rank& peer, const std::vector<int32_t>& cells);
  void temperature_rank(Rank& r);
  void audit_sentinels();

  mesh::Mesh mesh_;
  mesh::PartitionMethod method_;
  std::vector<int32_t> part_;
  int dofs_;
  std::vector<Rank> ranks_;
  std::vector<double> g_scratch_;
  std::vector<rt::Message> halo_messages_;

  // ---- SDC defense scratch ----
  std::vector<double> sentinel_scratch_;  // recompute target ([owned * dofs])
  std::vector<int32_t> sentinel_subset_;  // per-rank owned sentinels (global ids), reused
};

class BandPartitionedSolver : public BspSolver {
 public:
  BandPartitionedSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                        int nparts);

  void step() override;

  std::vector<double> gather_temperature() const override { return T_; }
  const std::vector<double>& temperature() const { return T_; }
  // Per-band owner multiplicity.
  std::vector<int32_t> owner_counts() const override { return slices_.owner_counts(); }

 private:
  // ABFT ledger over one rank's gather payload (blocks = cell ranges x the
  // rank's band slice) and the payload buffer itself, reused per step.
  struct Wire {
    rt::BlockLedger gledger;
    std::vector<double> payload;
  };

  void rebuild(int nparts) override { relayout(slices_.equal_split(nparts)); }
  void relayout(const BandSlices::Ranges& ranges);
  // Derate, not drain: bands are divisible, so the straggler keeps a share of
  // the spectrum inversely proportional to its observed slowdown and the
  // survivors absorb the rest; the fleet keeps its rank count.
  void relayout_away(int32_t victim) override;
  void validate() override;
  void gather_intensity_into(std::vector<double>& I) const override {
    slices_.gather_intensity(I);
  }
  void gather_moments(std::vector<double>& Io, std::vector<double>& beta) const override {
    slices_.gather_moments(Io, beta);
  }
  void scatter(const std::vector<double>& I, const std::vector<double>& T,
               const std::vector<double>& Io, const std::vector<double>& beta) override;
  int64_t shrink_scratch() override;

  void gather_rank(size_t p);
  void audit_sentinels();

  std::vector<int32_t> cells_;  // every global cell id: the sweep's cell list
  BandSlices slices_;
  std::vector<Wire> wire_;
  std::vector<double> T_;        // replicated temperature (each rank holds a copy)
  std::vector<double> G_global_; // gathered band sums [cells * nb]
};

}  // namespace finch::bte
