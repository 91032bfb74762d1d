// Concurrent ranks: the cell, band and multi-GPU strategies fan their
// per-rank compute out on a thread pool, while every fault consultation,
// health verdict and virtual-clock charge stays on the calling thread in a
// fixed order, and the clocks charge modeled work rather than wall time. So
// everything a run reports — the fields, the phase ledger, the virtual clock
// and every ResilienceStats field — must be identical, bit for bit, whether
// the ranks run one after another (use_threads(nullptr)) or on a 4-thread
// pool, with or without faults, and across two runs of one seeded solve.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "runtime/thread_pool.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

constexpr uint64_t kChaosSeed = 2026;
constexpr int kSteps = 16;
const char* const kKinds[] = {"cell", "band", "mgpu"};

BteScenario scen() {
  BteScenario s;
  s.nx = 16;
  s.ny = 12;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 8;
  s.dt = 1e-12;
  return s;
}

std::shared_ptr<const BtePhysics> phys() {
  static auto p = std::make_shared<const BtePhysics>(8, 8);
  return p;
}

template <class T>
bool same_bytes(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The phase ledger of either clock type as raw doubles.
template <class Phases>
std::vector<double> phase_doubles(const Phases& ph) {
  static_assert(std::is_trivially_copyable_v<Phases> && sizeof(Phases) % sizeof(double) == 0);
  std::vector<double> v(sizeof(Phases) / sizeof(double));
  std::memcpy(v.data(), &ph, sizeof(Phases));
  return v;
}

struct Outcome {
  std::vector<double> T, I, phases;
  double virtual_s = 0.0;
  ResilienceStats stats;
  int64_t injected = 0;
};

// Message, device and rank faults at fixed consultations of each strategy's
// own sites (one permanent loss, so the run also shrinks to 3 parts), plus a
// slow rank for the straggler defense.
void arm_faults(const std::string& kind, rt::FaultInjector& inj) {
  using rt::FaultKind;
  if (kind == "cell") {
    inj.schedule_fault(FaultKind::DroppedMessage, "halo", 3);
    inj.schedule_fault(FaultKind::BitFlipMessage, "halo", 5);
    inj.schedule_fault(FaultKind::TransferCorruption, "halo", 20);
    inj.schedule_fault(FaultKind::RankFailure, "cell-rank", 6);
  } else if (kind == "band") {
    inj.schedule_fault(FaultKind::DroppedMessage, "gather", 3);
    inj.schedule_fault(FaultKind::BitFlipReduction, "gather", 5);
    inj.schedule_fault(FaultKind::TransferCorruption, "gather", 9);
    inj.schedule_fault(FaultKind::RankFailure, "band-rank", 6);
  } else {
    inj.schedule_fault(FaultKind::KernelLaunchFailure, "bte_interior", 3);
    inj.schedule_fault(FaultKind::BitFlipDeviceArray, "dev_I", 5);
    inj.schedule_fault(FaultKind::TransferCorruption, "h2d", 9);
    inj.schedule_fault(FaultKind::DeviceLoss, "gpu", 6);
  }
  inj.schedule_fault(FaultKind::SlowRank, kind == "mgpu" ? "launch" : "compute", 2);
}

template <class Solver>
Outcome solve(Solver& solver, rt::ThreadPool* pool, bool faults, const std::string& kind) {
  rt::FaultInjector inj(kChaosSeed);
  if (faults) arm_faults(kind, inj);
  ResilienceOptions opt;
  opt.injector = faults ? &inj : nullptr;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  opt.straggler.enabled = true;
  solver.use_threads(pool);
  solver.enable_resilience(opt);
  solver.run(kSteps);
  Outcome o;
  o.T = solver.gather_temperature();
  o.I = solver.gather_intensity();
  o.phases = phase_doubles(solver.phases());
  o.virtual_s = solver.virtual_elapsed();
  o.stats = solver.resilience_stats();
  o.injected = inj.stats().total_injected();
  return o;
}

Outcome run(const std::string& kind, rt::ThreadPool* pool, bool faults) {
  if (kind == "cell") {
    CellPartitionedSolver s(scen(), phys(), 4);
    return solve(s, pool, faults, kind);
  }
  if (kind == "band") {
    BandPartitionedSolver s(scen(), phys(), 4);
    return solve(s, pool, faults, kind);
  }
  MultiGpuSolver s(scen(), phys(), 4);
  return solve(s, pool, faults, kind);
}

void expect_identical(const Outcome& a, const Outcome& b, const std::string& what) {
  EXPECT_TRUE(same_bits(a.T, b.T)) << what << ": temperature";
  EXPECT_TRUE(same_bits(a.I, b.I)) << what << ": intensity";
  EXPECT_TRUE(same_bits(a.phases, b.phases)) << what << ": phase ledger";
  EXPECT_TRUE(same_bytes(a.virtual_s, b.virtual_s)) << what << ": virtual clock";
  EXPECT_TRUE(same_bytes(a.stats, b.stats)) << what << ": resilience stats";
  EXPECT_EQ(a.injected, b.injected) << what;
}

}  // namespace

TEST(ConcurrentRanks, FaultFreeRunIsIdenticalSequentialAndOnFourThreads) {
  DirectSolver serial(scen(), phys());
  serial.run(kSteps);
  rt::ThreadPool pool(4);
  for (const char* kind : kKinds) {
    const Outcome seq = run(kind, nullptr, false);
    const Outcome par = run(kind, &pool, false);
    expect_identical(seq, par, kind);
    EXPECT_TRUE(same_bits(par.T, serial.temperature())) << kind;
    EXPECT_TRUE(same_bits(par.I, serial.intensity())) << kind;
    EXPECT_GT(par.virtual_s, 0.0) << kind;
  }
}

TEST(ConcurrentRanks, ChaosRunIsIdenticalSequentialAndOnFourThreads) {
  DirectSolver serial(scen(), phys());
  serial.run(kSteps);
  rt::ThreadPool pool(4);
  for (const char* kind : kKinds) {
    const Outcome seq = run(kind, nullptr, true);
    const Outcome par = run(kind, &pool, true);
    expect_identical(seq, par, kind);
    // The schedule really fired: a loss was survived, faults were caught,
    // and the answer is still the fault-free one.
    EXPECT_EQ(par.stats.evictions, 1) << kind;
    EXPECT_GT(par.stats.faults_detected, 0) << kind;
    EXPECT_GT(par.stats.sdc_detections, 0) << kind;
    EXPECT_GE(par.injected, 5) << kind;
    EXPECT_TRUE(same_bits(par.T, serial.temperature())) << kind;
    EXPECT_TRUE(same_bits(par.I, serial.intensity())) << kind;
  }
}

TEST(ConcurrentRanks, TwoSeededRunsChargeIdenticalVirtualLedgers) {
  // The default pool is the process-wide one.
  for (const char* kind : kKinds) {
    const Outcome a = run(kind, &rt::ThreadPool::shared(), true);
    const Outcome b = run(kind, &rt::ThreadPool::shared(), true);
    expect_identical(a, b, kind);
  }
}

TEST(ConcurrentRanks, BusySharedPoolRunsRanksInline) {
  // A caller that finds the pool taken runs its ranks on its own thread: a
  // solve issued from inside a pool job (the pool is busy with that job)
  // completes and matches the sequential result.
  const Outcome seq = run("band", nullptr, false);
  rt::ThreadPool& pool = rt::ThreadPool::shared();
  Outcome nested;
  ASSERT_TRUE(pool.try_parallel_for_chunks(0, 1, [&](int64_t, int64_t) {
    nested = run("band", &pool, false);
  }));
  expect_identical(seq, nested, "band inside a pool job");
}
