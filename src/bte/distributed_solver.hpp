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
// layout, its virtual clock, scratch relief and fault-telemetry sync).
//
// BandSlices is the band-slice layout shared by the band and multi-GPU
// strategies, and upwind_sweep the one intensity kernel all three run.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bte_problem.hpp"
#include "resilience.hpp"

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
  // Virtual seconds on the strategy's clock; equals phase_total() exactly.
  virtual double virtual_elapsed() const = 0;
  virtual double phase_total() const = 0;

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

  DistributedSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                    Sites sites);

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
  virtual int32_t chronic_straggler() const = 0;
  // A hung exchange the watchdog escalated to a Dead verdict (-1: none);
  // consumes the verdict.
  virtual int32_t take_hang_suspect() { return -1; }
  // Installs res_ on the strategy's clock / devices.
  virtual void arm_strategy() = 0;
  // Bills `seconds` to the clock's recovery phase (the driver tallies stats).
  virtual void charge_recovery(double seconds) = 0;
  // Bills the detection of `victim`'s loss; returns the seconds charged.
  virtual double charge_loss_detection(int32_t victim) = 0;
  // restore(snap) plus the motion's cost on the phase `m` names; returns the
  // seconds charged.
  virtual double restore_charged(const rt::Snapshot& snap, Motion m) = 0;
  // Frees rebuildable scratch for the memory relief chain; returns bytes.
  virtual int64_t shrink_scratch() = 0;
  // Mirrors the clock's / devices' performance-fault counters into rstats_.
  virtual void sync_fault_telemetry() = 0;

  // ---- shared helpers ------------------------------------------------------
  // Charges recovery time and tallies it.
  void recover(double seconds) {
    charge_recovery(seconds);
    rstats_.recovery_seconds += seconds;
  }
  void note_sdc_detection();
  // Energy-balance tripwire: a per-step relative drift of `energy` beyond the
  // tolerance is recorded, not health-failing (see SdcOptions).
  void check_energy_drift(double energy);
  // NaN/Inf scan of one field; `rank` < 0 omits the rank prefix.
  void scan_finite(const std::vector<double>& v, int rank, const char* field);
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
  // G[c * nb + b] = band_sum for every band `s` owns.
  void sum_into(const Slice& s, std::vector<double>& G) const;

  // Replicated temperature update: solves T per cell from the gathered sums
  // G[c * nb + b] and refreshes every slice's Io/beta at the new T.
  void update_temperature(const std::vector<double>& G, std::vector<double>& T);

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
