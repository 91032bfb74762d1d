#pragma once
// One resilient run driver for the distributed BTE solvers.
//
// The paper's partitioning strategies (§III.C: cells or bands, and the
// hybrid multi-GPU configuration) differ only in how state is laid out over
// ranks and how it moves between them. The per-step recovery state machine
// of resilience.hpp — cancel drain, resource-fault consult, permanent-loss
// eviction, straggler rebalance, step, validate, then checkpoint or roll
// back and replay — is the same for all of them. DistributedSolver runs it
// once; each strategy supplies only the hooks declared below (one step, the
// field scan, canonical gather/scatter, rebuild at M parts, the rebalance
// layout, motion pricing, scratch relief and fault-telemetry sync).
//
// Every strategy runs on one virtual clock, the rt::BspSimulator bsp_ with
// one BSP rank per cell rank, band rank or device. It carries the phase
// ledger, the heartbeat, the straggler detector, speculation and the
// exchange watchdog, and the driver charges recovery, loss detection and
// audits to it the same way for all three. Cell and band ranks let the clock
// consult the fault injector (slow ranks, jitter, dropped or hung
// exchanges); multi-GPU devices consult it themselves, and their clock never
// does.
//
// Ranks run at once: each strategy fans its per-rank compute (sweeps,
// commits, temperature updates, ledger upkeep, validation scans) out on a
// thread pool through for_each_rank / for_each_chunk, while every
// FaultInjector consultation, every health_ write and every BSP exchange or
// reduction stays on the calling thread in a fixed order. The clock charges
// modeled work (cost_model.hpp), never wall time, so fields, virtual time,
// fault schedules and ResilienceStats are identical at any thread count.
//
// BandSlices is the band-slice layout shared by the band and multi-GPU
// strategies, and upwind_sweep the one intensity kernel all three run.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bte_problem.hpp"
#include "resilience.hpp"
#include "runtime/simmpi.hpp"
#include "runtime/thread_pool.hpp"

namespace finch::bte {

class DistributedSolver {
 public:
  virtual ~DistributedSolver() = default;
  DistributedSolver(const DistributedSolver&) = default;
  DistributedSolver& operator=(const DistributedSolver&) = default;
  DistributedSolver(DistributedSolver&&) = default;
  DistributedSolver& operator=(DistributedSolver&&) = default;

  // One explicit time step of the strategy, without any recovery wiring.
  virtual void step() = 0;

  // Advances `nsteps` steps. Unarmed, that is plain step() calls. Armed, every
  // step consults the injector in a fixed order — cancel, "<kind>-mem", hang
  // escalation, the permanent-loss site, rebalance, step, validate — so a
  // seeded fault schedule replays identically on every strategy.
  void run(int nsteps);

  // Arms recovery from validated `options` (durable store, memory reliefs,
  // the strategy's fault wiring) and takes the initial checkpoint.
  void enable_resilience(const ResilienceOptions& options);
  bool resilient() const { return resilient_; }
  const ResilienceStats& resilience_stats() const { return rstats_; }
  const StepHealth& last_health() const { return health_; }
  int64_t step_index() const { return step_index_; }

  // Durable restart: arms resilience from `options` (which must carry the
  // durable dir the manifest was written into), validates the manifest
  // against this solver's name and configuration, restores the newest
  // readable on-disk generation (falling back across recorded paths),
  // re-imports the injector's counter/event state, and re-checkpoints — after
  // which run() continues bit-exactly where the killed or drained process
  // left off.
  void resume_from(const rt::RunManifest& manifest, const ResilienceOptions& options);

  // Topology-independent snapshot in the canonical global layout ("I", "T",
  // "Io", "beta"); an image taken at N parts restores onto any M parts of
  // any strategy.
  rt::Snapshot snapshot() const;
  void restore(const rt::Snapshot& snap);

  // Canonical global fields: I as [cell * dofs + (d + nd*b)], T per cell.
  std::vector<double> gather_intensity() const;
  virtual std::vector<double> gather_temperature() const = 0;
  // Owner multiplicity of each partitioned unit (cell or band); the eviction
  // invariant tests assert every entry is exactly 1.
  virtual std::vector<int32_t> owner_counts() const = 0;
  // Ranks or devices in the current topology.
  int nparts() const { return nparts_; }

  // Virtual seconds on the BSP clock; equals phases().total() up to the order
  // of summation.
  double virtual_elapsed() const { return bsp_.elapsed(); }
  // Virtual-time phase breakdown (modeled compute, see cost_model.hpp, and
  // modeled communication).
  const rt::PhaseTimes& phases() const { return bsp_.phases(); }
  // Routes this solver's virtual-time phase spans to Chrome-trace track
  // `track` (see OBSERVABILITY.md); `label` names it in the exported file.
  void set_trace_track(int32_t track, const std::string& label = "") {
    bsp_.set_trace_track(track, label);
  }

  // Runs the ranks' compute on `pool`; nullptr runs them one after another on
  // the calling thread. The default is rt::ThreadPool::shared(). A pool that
  // another caller holds (another solver, or Scheduler attempts racing each
  // other) is not waited for: the ranks then run inline. Results and virtual
  // time do not depend on the choice.
  void use_threads(rt::ThreadPool* pool) { pool_ = pool; }

 protected:
  // Names a strategy in manifests and fault sites: `kind` is the manifest
  // solver name and the "<kind>-mem" resource site; `loss`/`loss_site` is the
  // permanent-failure consult; `unit` ("rank"/"device") names a victim.
  struct Sites {
    std::string kind;
    rt::FaultKind loss;
    std::string loss_site;
    std::string unit;
  };
  // Which phase a state motion is charged to (see restore_charged).
  enum class Motion { Rollback, Redistribution, Rebalance };

  // `nparts` sizes the clock; the strategy's rebuild() sets nparts_.
  DistributedSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                    int nparts, Sites sites);

  // ---- strategy hooks ------------------------------------------------------
  // Scans the distributed fields into health_ (finite_ok, detail).
  virtual void validate() = 0;
  // Canonical [cell * dofs + (d + nd*b)] I (pre-sized by the caller).
  virtual void gather_intensity_into(std::vector<double>& I) const = 0;
  // Canonical [cell * nb + b] Io/beta (pre-sized by the caller).
  virtual void gather_moments(std::vector<double>& Io, std::vector<double>& beta) const = 0;
  // Loads canonical fields onto the current topology.
  virtual void scatter(const std::vector<double>& I, const std::vector<double>& T,
                       const std::vector<double>& Io, const std::vector<double>& beta) = 0;
  // Fresh topology at `nparts` parts with state at T_init; sets nparts_.
  virtual void rebuild(int nparts) = 0;
  // New layout that moves load off the chronic straggler `victim`; the
  // driver restores the live state onto it afterwards.
  virtual void relayout_away(int32_t victim) = 0;
  // False when relayout_away(victim) would leave every unit of work where it
  // is; the driver then moves, charges and counts nothing. By default a
  // relayout always moves work.
  virtual bool relayout_moves(int32_t /*victim*/) const { return true; }
  // Installs res_ on the strategy's fault sites (after the driver armed the
  // clock's heartbeat and straggler defense). By default the clock itself
  // consults the injector, as cell and band ranks do.
  virtual void arm_strategy();
  // restore(snap) plus the motion's cost on the phase `m` names; returns the
  // seconds charged. By default a rollback is free and a redistribution or
  // rebalance moves the bytes over the clock's interconnect model.
  virtual double restore_charged(const rt::Snapshot& snap, Motion m);
  // Frees rebuildable scratch for the memory relief chain; returns bytes.
  virtual int64_t shrink_scratch() = 0;
  // Mirrors the performance-fault counters into rstats_; by default the
  // clock's.
  virtual void sync_fault_telemetry();

  // ---- shared helpers ------------------------------------------------------
  // Charges recovery time and tallies it.
  void recover(double seconds) {
    bsp_.charge(rt::BspSimulator::Phase::Recovery, seconds);
    rstats_.recovery_seconds += seconds;
  }
  // Charges modeled ABFT seconds to the audit phase and tallies them.
  void charge_audit(double seconds) {
    bsp_.charge(rt::BspSimulator::Phase::Audit, seconds);
    rstats_.audit_seconds += seconds;
  }
  // Arms a one-shot speculative duplicate of the chronic straggler's shard on
  // the least-loaded survivor, just before the compute superstep it covers;
  // nominal(victim) prices the shard at nominal speed.
  void arm_speculation_if_chronic(const std::function<double(int32_t)>& nominal);
  // Retransmits a message dropped at `site` with bounded exponential backoff
  // (charged as fault stall). Returns false, with the step marked unhealthy,
  // when the retry budget is spent.
  bool deliver(rt::FaultInjector& fi, const char* site, const char* what);
  // fn(i) for every i in [0, n): concurrently on the pool when it is set and
  // free, otherwise in order on the calling thread. fn must not consult the
  // injector, write health_ or rstats_, or touch the virtual clock. The
  // exception of the lowest failing i, if any, is rethrown here.
  void for_each_rank(size_t n, const std::function<void(size_t)>& fn);
  // fn(begin, end) over chunks that tile [0, n), under the same rules.
  void for_each_chunk(size_t n, const std::function<void(size_t, size_t)>& fn);
  void note_sdc_detection();
  // Energy-balance tripwire: a per-step relative drift of `energy` beyond
  // kEnergyDriftTol is recorded, not health-failing.
  void check_energy_drift(double energy);
  // One NaN/Inf scan of validate(): `values` are elements [offset, ...) of
  // `field` on `rank` (< 0 omits the rank prefix).
  struct FieldScan {
    std::span<const double> values;
    size_t offset;
    int rank;
    const char* field;
  };
  // Runs the scans concurrently, then records each hit in health_ in the
  // order given; the detail names the last hit's first non-finite element.
  void scan_finite(const std::vector<FieldScan>& scans);
  // Spread-out sentinel cells of the redundant-recompute audit (lazy).
  const std::vector<int32_t>& sentinel_cells();
  // kill_rank / kill_device: the victim is evicted at the next step boundary.
  void request_kill(int32_t victim);
  bool sdc_armed() const { return resilient_ && res_.sdc.enabled; }

  BteScenario scen_;
  std::shared_ptr<const BtePhysics> phys_;
  int nd_, nb_;
  int nparts_ = 0;

  bool resilient_ = false;
  ResilienceOptions res_;
  ResilienceStats rstats_;
  StepHealth health_;
  rt::CheckpointStore store_;
  int64_t step_index_ = 0;
  int64_t flip_step_ = -1;  // step of the oldest undetected device flip
  rt::BspSimulator bsp_;

 private:
  void arm(const ResilienceOptions& options);
  void register_memory_reliefs();
  uint64_t config_hash() const;
  // snapshot() into `snap`, which is empty or holds an earlier snapshot_into
  // result whose buffers are reused.
  void snapshot_into(rt::Snapshot& snap) const;
  void take_checkpoint(const std::string& cancel_reason = "");
  void restore_checkpoint();
  void evict_and_redistribute(int32_t victim);
  void maybe_mitigate_stragglers();

  Sites sites_;
  std::string mem_site_;
  rt::ThreadPool* pool_;
  ResilienceStats published_;  // last rstats_ mirrored into the metrics registry
  int32_t pending_kill_ = -1;
  std::vector<int32_t> sentinel_cells_;
  // take_checkpoint gathers into these buffers, which persist between
  // checkpoints; the scratch-shrink relief releases them.
  rt::Snapshot snap_;
  double prev_energy_ = 0.0;
  bool have_prev_energy_ = false;
};

// Band-slice layout of the band and multi-GPU strategies: part p owns the
// contiguous band range [b_lo, b_hi) on every cell, with intensities stored
// [(c*bl + lb)*nd + d] and Io/beta [c*bl + lb] (bl bands owned, lb = b -
// b_lo). A cell rank stores its owned and ghost cells the same way, as the
// slice bl = nb over rank-local cell indices. Every access to that layout
// outside upwind_sweep goes through here.
class BandSlices {
 public:
  struct Slice {
    int b_lo = 0, b_hi = 0;
    std::vector<double> I, I_new;  // [cells * bl * nd]
    std::vector<double> Io, beta;  // [cells * bl]
    int bands() const { return b_hi - b_lo; }
  };
  using Ranges = std::vector<std::pair<int, int>>;

  BandSlices(const BtePhysics& physics, int ncell)
      : phys_(&physics), ncell_(ncell), nd_(physics.num_dirs()), nb_(physics.num_bands()) {}

  // Equal contiguous split of the bands over `nparts`.
  Ranges equal_split(int nparts) const;
  // Weighted contiguous split: `victim` keeps a share 1/slowdown, every
  // other part weight 1.
  Ranges weighted_split(int nparts, int32_t victim, double slowdown) const;
  // Re-lays the slices out over `ranges`, every value at equilibrium with T.
  void assign(const Ranges& ranges, double T);
  // The current layout.
  Ranges ranges() const;

  size_t size() const { return slices_.size(); }
  Slice& operator[](size_t p) { return slices_[p]; }
  const Slice& operator[](size_t p) const { return slices_[p]; }
  std::vector<Slice>::const_iterator begin() const { return slices_.begin(); }
  std::vector<Slice>::const_iterator end() const { return slices_.end(); }

  // Direction-weighted sum of entry `cb` = c*bl + lb of the band-slice
  // intensities `I` (the per-cell band sum the temperature update consumes).
  static double band_sum(const BtePhysics& phys, const std::vector<double>& I, size_t cb) {
    const size_t nd = static_cast<size_t>(phys.num_dirs());
    double g = 0.0;
    for (size_t d = 0; d < nd; ++d) g += phys.directions.weight[d] * I[cb * nd + d];
    return g;
  }
  double band_sum(const Slice& s, size_t cb) const { return band_sum(*phys_, s.I, cb); }
  // out[cb] = band_sum(s, cb) for cb in [begin, end).
  void reduce(const Slice& s, size_t begin, size_t end, std::vector<double>& out) const;
  // Writes slice-ordered sums `sums` into the canonical G[c * nb + b].
  void scatter_sums(const Slice& s, const std::vector<double>& sums, std::vector<double>& G) const;
  // G[c * nb + b] = band_sum for every band `s` owns, cells [c_begin, c_end).
  void sum_into(const Slice& s, std::vector<double>& G, size_t c_begin, size_t c_end) const;

  // Replicated temperature update of cells [c_begin, c_end): solves T per
  // cell from the gathered sums G[c * nb + b] and refreshes every slice's
  // Io/beta at the new T. Disjoint cell ranges write disjoint entries, so
  // they may run concurrently.
  void update_temperature(const std::vector<double>& G, std::vector<double>& T, size_t c_begin,
                          size_t c_end);

  // Canonical I and Io/beta (pre-sized by the caller).
  void gather_intensity(std::vector<double>& I) const;
  void gather_moments(std::vector<double>& Io, std::vector<double>& beta) const;
  void scatter(const std::vector<double>& I, const std::vector<double>& Io,
               const std::vector<double>& beta);
  std::vector<int32_t> owner_counts() const;

 private:
  const BtePhysics* phys_;
  int ncell_, nd_, nb_;
  std::vector<Slice> slices_;
};

// The one upwind intensity sweep of the cell, band and multi-GPU strategies
// (DirectSolver keeps its own copy as the independent reference). Advances
// every DOF of bands [b_lo, b_hi) on the global cells `cells` by one explicit
// step of the hot-spot scenario, reading I/Io/beta and writing `out` in the
// band-slice layout over rank-local cell indices l = local(c) (a cell id →
// index map: global_to_local for a cell rank, the identity for a band slice).
// Each cell's result depends only on the sources, so sweeping any subset of
// cells writes exactly the full sweep's bits for those cells and leaves every
// other entry of `out` untouched — the SDC sentinels and block repair rely
// on it. Loop order: cells outermost, so (i, j) and the four neighbours'
// local indices are derived once per cell; bands, then directions inside.
template <class Local>
void upwind_sweep(const BteScenario& scen, const BtePhysics& phys, int b_lo, int b_hi,
                  const std::vector<int32_t>& cells, Local local, const std::vector<double>& I,
                  const std::vector<double>& Io, const std::vector<double>& beta,
                  std::vector<double>& out) {
  const int nx = scen.nx, ny = scen.ny;
  const size_t nd = static_cast<size_t>(phys.num_dirs());
  const size_t bl = static_cast<size_t>(b_hi - b_lo);
  const double dt = scen.dt, hx = scen.lx / nx, hy = scen.ly / ny;
  const double ax = dt / hx, ay = dt / hy;
  const DirectionSet& dirs = phys.directions;
  for (const int32_t c : cells) {
    const int i = static_cast<int>(c % nx), j = static_cast<int>(c / nx);
    // A wall face never reads a neighbour, so its index stays the cell's own.
    const size_t lc = static_cast<size_t>(local(c));
    const size_t lw = i > 0 ? static_cast<size_t>(local(c - 1)) : lc;
    const size_t le = i < nx - 1 ? static_cast<size_t>(local(c + 1)) : lc;
    const size_t ls = j > 0 ? static_cast<size_t>(local(c - nx)) : lc;
    const size_t ln = j < ny - 1 ? static_cast<size_t>(local(c + nx)) : lc;
    for (int b = b_lo; b < b_hi; ++b) {
      const size_t lb = static_cast<size_t>(b - b_lo);
      const double vg = phys.bands[b].vg;
      const size_t cb = lc * bl + lb;
      const size_t row = cb * nd;
      const size_t w = (lw * bl + lb) * nd, e = (le * bl + lb) * nd;
      const size_t s = (ls * bl + lb) * nd, n = (ln * bl + lb) * nd;
      for (size_t d = 0; d < nd; ++d) {
        const double vx = vg * dirs.s[d].x;
        const double vy = vg * dirs.s[d].y;
        const size_t rx = static_cast<size_t>(dirs.reflect_x[d]);
        const double Ic = I[row + d];
        double val = Ic + dt * (Io[cb] - Ic) * beta[cb];

        double Iw;
        if (i > 0)
          Iw = -vx > 0 ? Ic : I[w + d];
        else
          Iw = -vx > 0 ? Ic : I[row + rx];
        val -= ax * (-vx) * Iw;
        double Ie;
        if (i < nx - 1)
          Ie = vx > 0 ? Ic : I[e + d];
        else
          Ie = vx > 0 ? Ic : I[row + rx];
        val -= ax * vx * Ie;
        double Is;
        if (j > 0)
          Is = -vy > 0 ? Ic : I[s + d];
        else
          Is = -vy > 0 ? Ic : phys.table.I0(b, scen.T_cold);
        val -= ay * (-vy) * Is;
        double In;
        if (j < ny - 1)
          In = vy > 0 ? Ic : I[n + d];
        else
          In = vy > 0 ? Ic : phys.table.I0(b, scen.wall_temperature((i + 0.5) * hx));
        val -= ay * vy * In;

        out[row + d] = val;
      }
    }
  }
}

}  // namespace finch::bte
