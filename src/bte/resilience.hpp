#pragma once
// Shared recovery machinery for the distributed BTE solvers.
//
// Every resilient solver follows the same state machine per step, run once
// for all strategies by DistributedSolver::run (distributed_solver.hpp):
//
//   RUN ──fault site throws / drops──▶ RETRY (bounded exponential backoff)
//    │                                    │ budget exhausted
//    ▼                                    ▼
//   VALIDATE (StepHealth: NaN/Inf scan + transfer checksums)
//    │ healthy                            │ unhealthy
//    ▼                                    ▼
//   CHECKPOINT (periodic policy)       ROLLBACK to last checkpoint, REPLAY
//
//   RUN ──rank/device dead (heartbeat)──▶ EVICT + REDISTRIBUTE:
//     repartition the victim's shard over the survivors, restore the last
//     (topology-independent) checkpoint at the shrunk size, REPLAY
//
// Retries handle transient faults whose failure is visible at the site
// (kernel launch failure, detected transfer mismatch, dropped halo message);
// rollback+replay handles corruption that is only visible after the fact
// (non-finite values that made it into solver state). Both are bounded so a
// hard fault surfaces as ResilienceError instead of a livelock. Permanent
// faults (RankFailure, DeviceLoss) have no retry path at all: the survivors
// shrink the topology (N → M ranks/devices), restore from the last global
// checkpoint, and continue — an eviction with no survivors left is the one
// permanent fault that still raises ResilienceError.
//
// All recovery costs are *virtual* seconds charged to the solver's phase
// breakdown (detection under `recovery`, state respread under
// `redistribution`), so benchmarks can plot recovery overhead vs. fault rate
// on the same axes as the paper's phase figures.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/hash.hpp"
#include "runtime/manifest.hpp"
#include "runtime/memory.hpp"
#include "runtime/metrics.hpp"
#include "runtime/straggler.hpp"

namespace finch::bte {

// Raised when recovery is exhausted (retry budget and rollback budget spent).
class ResilienceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Silent-data-corruption (SDC) defense knobs. Off by default: the ABFT
// checksums, sentinel audits, and localized repair run only when a solver is
// explicitly asked to pay for them, so fault-free runs stay bit-identical to
// the unguarded path with zero audit time.
struct SdcOptions {
  bool enabled = false;
  // Elements (cells for ledgers over per-rank intensity arrays) per ABFT
  // block: the granularity of both detection and localized repair.
  int block_cells = 16;
  // Redundant sentinel cells recomputed each step from the previous state —
  // the cross-rank "did my neighbor's update agree with mine" audit that
  // bounds detection latency to one step even off the transfer paths.
  int sentinel_cells = 4;
};

// Durable-run configuration: with a non-empty `dir` the solver keeps its
// CheckpointStore on disk (`checkpoint_<seq>.bin` generation files) and
// maintains an atomically-written `manifest.json` sidecar next to them after
// every checkpoint, so a SIGKILLed/OOMed process restarts bit-exactly via
// resume_from() (see runtime/manifest.hpp).
struct DurableOptions {
  std::string dir;           // empty: in-memory checkpoints only (not durable)
  int disk_generations = 2;  // on-disk generation files retained (>= 1)
  std::string manifest_path() const { return dir + "/manifest.json"; }
};

struct ResilienceOptions {
  rt::FaultInjector* injector = nullptr;  // null: no injection (guards still run)
  rt::CheckpointPolicy checkpoint{/*interval=*/8};
  int max_retries = 4;          // per fault site, per step
  int max_rollbacks = 64;       // per run() call
  double backoff_base_s = 50e-6;  // virtual seconds; doubles per attempt
  double backoff_max_s = 5e-3;    // ceiling on one backoff wait (<= 0: uncapped)
  // Failure-detection model for permanent faults (rank death, device loss).
  rt::HeartbeatModel heartbeat;
  // Silent-corruption defense (ABFT checksums + invariants + block repair).
  SdcOptions sdc;
  // Fail-slow defense (straggler detection, exchange watchdog, speculative
  // re-execution, dynamic rebalancing). Off by default like the SDC layer.
  //
  // Mitigation precedence (most to least drastic, each preempting the next):
  //
  //   1. EVICTION — a Dead heartbeat verdict (miss_threshold consecutive
  //      missed beats, or a hang that survives every Suspect-level watchdog
  //      retry) removes the victim permanently. Pending speculation and
  //      rebalance state for it is discarded: there is no rank left to
  //      mitigate.
  //   2. REBALANCE — a *chronic* straggler first sheds load structurally
  //      (shard migration, bounded by max_rebalances). Rebalancing resets the
  //      detector cold, so speculation cannot fire against the pre-migration
  //      timings.
  //   3. SPECULATION — only a chronic straggler that rebalancing did not (or
  //      could not, budget spent / rebalance disabled) cure gets its shard
  //      duplicated on the least-loaded survivor.
  //
  // The Suspect heartbeat window (suspect_after <= missed < miss_threshold)
  // is where 2 and 3 live; validate_resilience_options therefore rejects a
  // straggler defense armed with an empty Suspect window — with
  // suspect_after == miss_threshold every late rank jumps straight to the
  // Dead verdict and the mitigations it asked for can never engage.
  rt::StragglerOptions straggler;
  // Durable runs: on-disk checkpoint generations + manifest sidecar.
  DurableOptions durable;
  // Cooperative cancellation: consulted at every step boundary; a hit drains
  // (final checkpoint + manifest) and returns instead of aborting. Null: off.
  rt::CancelToken* cancel = nullptr;
  // Resource-exhaustion defense: AllocFailure / MemoryPressure faults run
  // this budget's relief chain (drop the second checkpoint generation, shrink
  // scratch, spill to disk) before anything fatal. Null: faults are counted
  // and charged but nothing degrades.
  rt::MemoryBudget* memory = nullptr;
};

// Verdict of the per-step validation pass.
struct StepHealth {
  bool finite_ok = true;    // no NaN/Inf in updated fields
  bool transfer_ok = true;  // round-trip / message checksums matched
  bool sdc_ok = true;       // ABFT block audit clean (or repaired in place)
  int64_t nonfinite_values = 0;
  std::string detail;  // first offending field/site, for diagnostics
  bool ok() const { return finite_ok && transfer_ok && sdc_ok; }
};

struct ResilienceStats {
  int64_t retries = 0;          // site-level retry attempts that were needed
  int64_t rollbacks = 0;        // checkpoint restores
  int64_t replayed_steps = 0;   // steps recomputed after rollbacks/evictions
  int64_t checkpoints = 0;      // snapshots taken
  int64_t validations = 0;      // StepHealth evaluations
  int64_t faults_detected = 0;  // unhealthy validations + caught TransientFaults
  int64_t evictions = 0;        // permanent failures survived (ranks/devices)
  double recovery_seconds = 0;  // virtual time spent on backoff/retransmit/replay
  double redistribution_seconds = 0;  // virtual time respreading shards onto survivors
  // ---- silent-corruption defense -----------------------------------------
  int64_t sdc_detections = 0;     // ABFT mismatches caught (blocks or sidecars)
  int64_t block_repairs = 0;      // blocks healed by sub-range recompute/repull
  int64_t repair_failures = 0;    // localized repair failed -> rollback path
  int64_t sentinel_checks = 0;    // redundant sentinel-cell comparisons run
  int64_t invariant_violations = 0;  // energy-balance drift beyond tolerance
  double audit_seconds = 0;       // virtual time in the audit phase
  // Steps between injection and detection, maximized over detections. The
  // per-step audit bounds this to 1 by construction; the stat proves it.
  int64_t max_detection_latency_steps = 0;
  // ---- fail-slow defense ---------------------------------------------------
  int64_t slow_steps = 0;         // compute supersteps stretched by a SlowRank
  int64_t jitter_events = 0;      // JitterKernel fires observed
  int64_t hang_events = 0;        // HangExchange fires observed
  int64_t hang_timeouts = 0;      // watchdog deadline expiries (bounded waits)
  int64_t hang_escalations = 0;   // persistent hangs escalated to eviction
  int64_t speculations = 0;       // supersteps with a speculative duplicate armed
  int64_t rebalances = 0;         // dynamic migrations away from a straggler
  double speculation_seconds = 0; // duplicated work on the critical path
  double rebalance_seconds = 0;   // shard motion of dynamic rebalances
  // ---- hardened checkpoint restore ----------------------------------------
  int64_t ckpt_restore_retries = 0;       // corrupted restore reads retried
  int64_t ckpt_generation_fallbacks = 0;  // restores that fell back a generation
  int64_t ckpt_hang_stalls = 0;           // hangs ridden out inside a restore
  // ---- resource-exhaustion defense -----------------------------------------
  int64_t alloc_failures = 0;    // AllocFailure fires ridden out via relief+retry
  int64_t pressure_events = 0;   // MemoryPressure fires absorbed
  int64_t reliefs = 0;           // relief-chain runs that freed something
  int64_t relieved_bytes = 0;    // total bytes freed by graceful degradation
  // ---- durable runs --------------------------------------------------------
  int64_t manifests_written = 0;  // manifest sidecar writes (one per checkpoint)
  int64_t resumes = 0;            // resume_from() restarts absorbed by this solver
  int64_t cancel_drains = 0;      // runs that drained on a cancel/deadline
};

// Mirrors a solver's recovery tallies into the global metrics registry under
// `solver.*` names (OBSERVABILITY.md). ResilienceStats counters only grow, so
// publication is delta-based against `published` — the caller keeps one
// previously-published copy per solver and calls this at the end of run();
// repeated runs then accumulate correctly instead of double-counting.
inline void publish_resilience_metrics(const ResilienceStats& now, ResilienceStats& published) {
  auto& mx = rt::MetricsRegistry::global();
  const auto count = [&mx](const char* name, int64_t cur, int64_t prev) {
    if (cur > prev) mx.counter(name).add(static_cast<double>(cur - prev));
  };
  const auto secs = [&mx](const char* name, double cur, double prev) {
    if (cur > prev) mx.counter(name).add(cur - prev);
  };
  count("solver.retries", now.retries, published.retries);
  count("solver.rollbacks", now.rollbacks, published.rollbacks);
  count("solver.replayed_steps", now.replayed_steps, published.replayed_steps);
  count("solver.checkpoints", now.checkpoints, published.checkpoints);
  count("solver.validations", now.validations, published.validations);
  count("solver.faults_detected", now.faults_detected, published.faults_detected);
  count("solver.evictions", now.evictions, published.evictions);
  count("solver.sdc_detections", now.sdc_detections, published.sdc_detections);
  count("solver.block_repairs", now.block_repairs, published.block_repairs);
  count("solver.repair_failures", now.repair_failures, published.repair_failures);
  count("solver.sentinel_checks", now.sentinel_checks, published.sentinel_checks);
  count("solver.invariant_violations", now.invariant_violations, published.invariant_violations);
  count("solver.hang_escalations", now.hang_escalations, published.hang_escalations);
  count("solver.speculations", now.speculations, published.speculations);
  count("solver.rebalances", now.rebalances, published.rebalances);
  count("solver.ckpt_restore_retries", now.ckpt_restore_retries, published.ckpt_restore_retries);
  count("solver.ckpt_generation_fallbacks", now.ckpt_generation_fallbacks,
        published.ckpt_generation_fallbacks);
  count("solver.ckpt_hang_stalls", now.ckpt_hang_stalls, published.ckpt_hang_stalls);
  count("solver.alloc_failures", now.alloc_failures, published.alloc_failures);
  count("solver.pressure_events", now.pressure_events, published.pressure_events);
  count("solver.reliefs", now.reliefs, published.reliefs);
  count("solver.relieved_bytes", now.relieved_bytes, published.relieved_bytes);
  count("run.manifests_written", now.manifests_written, published.manifests_written);
  count("run.resumes", now.resumes, published.resumes);
  count("cancel.drains", now.cancel_drains, published.cancel_drains);
  secs("solver.recovery_seconds", now.recovery_seconds, published.recovery_seconds);
  secs("solver.redistribution_seconds", now.redistribution_seconds, published.redistribution_seconds);
  secs("solver.audit_seconds", now.audit_seconds, published.audit_seconds);
  secs("solver.speculation_seconds", now.speculation_seconds, published.speculation_seconds);
  secs("solver.rebalance_seconds", now.rebalance_seconds, published.rebalance_seconds);
  published = now;
}

// Exponential backoff cost for attempt k (0-based): base * 2^k, clamped to
// backoff_max_s so an unlucky retry chain cannot dominate the step time.
inline double backoff_delay(const ResilienceOptions& opt, int attempt) {
  const double d = opt.backoff_base_s * std::ldexp(1.0, attempt);
  return opt.backoff_max_s > 0 ? std::min(d, opt.backoff_max_s) : d;
}

// Rejects a nonsensical options bundle before a solver arms itself with it,
// naming the offending field and value — a misconfigured defense must fail
// loudly at enable_resilience() instead of silently misbehaving mid-run.
inline void validate_resilience_options(const ResilienceOptions& opt) {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("ResilienceOptions: " + msg);
  };
  if (opt.max_retries < 0)
    fail("max_retries must be >= 0 (got " + std::to_string(opt.max_retries) + ")");
  if (opt.max_rollbacks < 0)
    fail("max_rollbacks must be >= 0 (got " + std::to_string(opt.max_rollbacks) + ")");
  if (opt.backoff_base_s < 0)
    fail("backoff_base_s must be >= 0 (got " + std::to_string(opt.backoff_base_s) + ")");
  if (!(opt.heartbeat.period_s > 0))
    fail("heartbeat.period_s must be > 0, a zero heartbeat interval detects nothing (got " +
         std::to_string(opt.heartbeat.period_s) + ")");
  if (opt.heartbeat.miss_threshold < 1)
    fail("heartbeat.miss_threshold must be >= 1 (got " +
         std::to_string(opt.heartbeat.miss_threshold) + ")");
  if (opt.heartbeat.suspect_after < 1 || opt.heartbeat.suspect_after > opt.heartbeat.miss_threshold)
    fail("heartbeat.suspect_after must be in [1, miss_threshold] (got " +
         std::to_string(opt.heartbeat.suspect_after) + ")");
  if (opt.sdc.block_cells < 1)
    fail("sdc.block_cells must be >= 1 (got " + std::to_string(opt.sdc.block_cells) + ")");
  if (opt.sdc.sentinel_cells < 0)
    fail("sdc.sentinel_cells must be >= 0 (got " + std::to_string(opt.sdc.sentinel_cells) + ")");
  const rt::StragglerOptions& st = opt.straggler;
  if (!(st.ewma_alpha > 0.0) || st.ewma_alpha > 1.0)
    fail("straggler.ewma_alpha must be in (0, 1] (got " + std::to_string(st.ewma_alpha) + ")");
  if (!(st.slow_ratio > 1.0))
    fail("straggler.slow_ratio must be > 1 (got " + std::to_string(st.slow_ratio) + ")");
  if (!(st.clip_ratio > st.slow_ratio))
    fail("straggler.clip_ratio must exceed slow_ratio or winsorizing would hide every "
         "straggler (got clip " + std::to_string(st.clip_ratio) + " vs slow " +
         std::to_string(st.slow_ratio) + ")");
  if (st.chronic_steps < 1)
    fail("straggler.chronic_steps must be >= 1 (got " + std::to_string(st.chronic_steps) + ")");
  if (!(st.deadline_factor > 1.0))
    fail("straggler.deadline_factor must be > 1, the watchdog would expire before the "
         "exchange it guards (got " + std::to_string(st.deadline_factor) + ")");
  if (st.max_rebalances < 1)
    fail("straggler.max_rebalances must be >= 1 (got " + std::to_string(st.max_rebalances) + ")");
  // Contradictory combos: each field is legal alone, the pair is nonsense.
  if (st.enabled && opt.heartbeat.suspect_after == opt.heartbeat.miss_threshold)
    fail("straggler defense with an empty Suspect window: suspect_after == miss_threshold (" +
         std::to_string(opt.heartbeat.suspect_after) +
         ") jumps every late rank straight to the Dead verdict, so the watchdog retries and "
         "speculation/rebalance it enables can never engage; lower suspect_after or raise "
         "miss_threshold");
  if (opt.checkpoint.interval <= 0 && opt.max_rollbacks > 0)
    fail("rollback budget with checkpointing disabled: checkpoint.interval " +
         std::to_string(opt.checkpoint.interval) + " never takes a snapshot, so max_rollbacks " +
         std::to_string(opt.max_rollbacks) +
         " has nothing to roll back to; set max_rollbacks = 0 or give checkpoint.interval a "
         "positive period");
  if (opt.durable.disk_generations < 1)
    fail("durable.disk_generations must be >= 1 (got " +
         std::to_string(opt.durable.disk_generations) + ")");
  if (!opt.durable.dir.empty() && opt.checkpoint.interval <= 0)
    fail("durable dir with checkpointing disabled: durable.dir '" + opt.durable.dir +
         "' promises restartability but checkpoint.interval " +
         std::to_string(opt.checkpoint.interval) +
         " never writes a generation, so a crash always restarts from step 0; give "
         "checkpoint.interval a positive period or clear durable.dir");
}

// ---- hardened checkpoint restore --------------------------------------------
//
// The restore path is itself a fault surface: the process re-reading an image
// can hang mid-read ("HangExchange @ ckpt-restore") and the bytes it reads can
// take a flip in flight ("BitFlipMessage @ ckpt-restore") — cross-class
// interactions the per-step defenses never see because they strike *during*
// recovery. This loader hardens every rollback / eviction restore:
//
//   for each checkpoint generation (newest first):
//     for each read attempt (<= max_retries):
//       ride out an injected hang (bounded: the heartbeat suspicion timeout
//         when the fail-slow defense is armed, the raw hang timeout otherwise),
//       read the image (in place; an injected in-flight flip lands on a
//       private copy, so the store's bytes stay intact), deserialize — the
//       image checksums catch torn/flipped bytes — and return on success; on
//       CheckpointError charge a backoff and re-read.
//     every read of this generation corrupted -> fall back one generation
//     (older step, more replay, still bit-exact).
//
// Only when every read of every generation fails does the restore surface
// ResilienceError. `charge_stall(seconds)` bills virtual stall time to the
// caller's recovery phase. Tallies land in ResilienceStats::ckpt_*.
template <typename ChargeStall>
rt::Snapshot load_checkpoint_guarded(const rt::CheckpointStore& store,
                                     const ResilienceOptions& opt, ResilienceStats& stats,
                                     ChargeStall&& charge_stall) {
  if (store.generations() == 0) throw rt::CheckpointError("no checkpoint saved");
  std::string last_error;
  for (int gen = 0; gen < store.generations(); ++gen) {
    for (int attempt = 0; attempt <= opt.max_retries; ++attempt) {
      if (opt.injector != nullptr &&
          opt.injector->should_fault(rt::FaultKind::HangExchange, "ckpt-restore")) {
        stats.ckpt_hang_stalls += 1;
        charge_stall(opt.straggler.enabled ? opt.heartbeat.suspicion_timeout()
                                           : opt.injector->hang_seconds());
      }
      std::vector<std::byte> scratch;
      std::span<const std::byte> image = store.image(gen, scratch);
      if (opt.injector != nullptr && !image.empty() &&
          opt.injector->should_fault(rt::FaultKind::BitFlipMessage, "ckpt-restore")) {
        // A generation read from disk already sits in scratch; one held in
        // memory is copied there first.
        if (image.data() != scratch.data()) scratch.assign(image.begin(), image.end());
        opt.injector->flip_raw_bit(scratch, rt::FaultKind::BitFlipMessage, "ckpt-restore");
        image = scratch;
      }
      try {
        return rt::deserialize(image);
      } catch (const rt::CheckpointError& err) {
        last_error = err.what();
        stats.ckpt_restore_retries += 1;
        charge_stall(backoff_delay(opt, attempt));
        // With no injector the bytes cannot change between reads; re-reading
        // the same in-memory image would fail identically, so fall through to
        // the older generation at once.
        if (opt.injector == nullptr) break;
      }
    }
    if (gen + 1 < store.generations()) stats.ckpt_generation_fallbacks += 1;
  }
  throw ResilienceError("checkpoint restore failed on every generation: " + last_error);
}

// ---- durable-run helpers ----------------------------------------------------

// Order-sensitive bitwise FNV-1a accumulator over the run configuration. The
// manifest records the hash so resume_from() can refuse to graft a checkpoint
// onto a solver built from a different scenario/topology — a silent mismatch
// would "resume" into garbage that still looks finite.
struct ConfigHasher {
  uint64_t h = rt::kFnvOffset;
  ConfigHasher& mix_bytes(const void* p, size_t n) {
    h = rt::fnv1a64(p, n, h);
    return *this;
  }
  ConfigHasher& mix(double v) { return mix_bytes(&v, sizeof v); }
  ConfigHasher& mix(int64_t v) { return mix_bytes(&v, sizeof v); }
  ConfigHasher& mix(const std::string& s) {
    mix(static_cast<int64_t>(s.size()));
    return mix_bytes(s.data(), s.size());
  }
  uint64_t value() const { return h; }
};

// Step-boundary consult of the resource fault class. MemoryPressure models an
// external squeeze (co-tenant, OS): the usable budget transiently halves and
// the relief chain restores headroom. AllocFailure models a failed first
// allocation attempt inside the step: relief runs, then the retried
// allocation is charged one backoff of virtual stall time. Both are absorbed
// — graceful degradation only ever frees rebuildable state (the second
// checkpoint generation, scratch, the in-memory images once spilled to disk),
// so the numerical trajectory stays bit-exact. `charge_stall(seconds)` bills
// the caller's recovery phase.
template <typename ChargeStall>
void consult_resource_faults(const ResilienceOptions& opt, ResilienceStats& stats,
                             std::string_view site, ChargeStall&& charge_stall) {
  if (opt.injector == nullptr) return;
  const auto relieve = [&](int64_t headroom) {
    if (opt.memory == nullptr) return;
    const int64_t freed = opt.memory->run_relief(headroom);
    if (freed > 0) {
      stats.reliefs += 1;
      stats.relieved_bytes += freed;
    }
  };
  if (opt.injector->should_fault(rt::FaultKind::MemoryPressure, site)) {
    stats.pressure_events += 1;
    if (opt.memory != nullptr) opt.memory->spike(0.5);
    relieve(0);
  }
  if (opt.injector->should_fault(rt::FaultKind::AllocFailure, site)) {
    stats.alloc_failures += 1;
    relieve(0);
    charge_stall(backoff_delay(opt, 0));
  }
}

// Builds and atomically writes the durable manifest for a solver's current
// checkpoint state. No-op when the run is not durable. The injector's whole
// resumable state (counters + event log) rides along so a restarted process
// draws the exact fault sequence the killed one would have.
inline void write_run_manifest(const ResilienceOptions& opt, ResilienceStats& stats,
                               const std::string& solver, int nparts, uint64_t config_hash,
                               const rt::CheckpointStore& store,
                               const std::string& cancel_reason = "") {
  if (opt.durable.dir.empty()) return;
  rt::RunManifest m;
  m.config_hash = config_hash;
  m.injector_seed = opt.injector != nullptr ? opt.injector->seed() : 0;
  m.solver = solver;
  m.nparts = nparts;
  m.last_step = store.latest_step();
  m.saves = store.saves();
  m.checkpoints = store.disk_paths();
  if (opt.injector != nullptr) {
    m.injector_counters = opt.injector->export_counters();
    m.injector_events = opt.injector->events();
  }
  m.cancel_reason = cancel_reason;
  rt::write_manifest_atomic(opt.durable.manifest_path(), m);
  stats.manifests_written += 1;
}

// Refuses to graft a manifest onto the wrong solver or problem — a silent
// mismatch would "resume" into a finite-looking but wrong trajectory.
inline void check_manifest_matches(const rt::RunManifest& m, std::string_view solver,
                                   uint64_t config_hash) {
  if (m.solver != solver)
    throw rt::CheckpointError("manifest solver mismatch: manifest records '" + m.solver +
                              "' but a '" + std::string(solver) + "' solver is resuming");
  if (m.config_hash != config_hash)
    throw rt::CheckpointError(
        "manifest config-hash mismatch: the manifest was written by a run with a different "
        "scenario/discretization; refusing to resume");
}

// Loads the newest readable generation file recorded by the manifest, falling
// back across the recorded paths (older step, more replay, still bit-exact)
// exactly like the in-memory guarded restore falls back across generations.
// Every failure is a named CheckpointError; only when every recorded path is
// missing or corrupt does the resume itself fail.
inline rt::Snapshot load_manifest_checkpoint(const rt::RunManifest& m, ResilienceStats& stats) {
  std::string last_error = "manifest records no checkpoint generations";
  for (size_t g = 0; g < m.checkpoints.size(); ++g) {
    try {
      return rt::CheckpointStore::read_file(m.checkpoints[g]);
    } catch (const rt::CheckpointError& err) {
      last_error = err.what();
      if (g + 1 < m.checkpoints.size()) stats.ckpt_generation_fallbacks += 1;
    }
  }
  throw rt::CheckpointError("resume failed, every manifest checkpoint unreadable: " + last_error);
}

}  // namespace finch::bte
