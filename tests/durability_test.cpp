// Durable runs: the manifest sidecar, on-disk checkpoint generations,
// resource-exhaustion faults with graceful degradation, cooperative
// cancellation, and process-crash restart.
//
// The tentpole property under test: for any interruption — SIGKILL at a step
// boundary, SIGKILL inside a checkpoint's .tmp-write window, an OOM-style
// drain, an operator cancel — restarting via resume_from(manifest) continues
// the run bit-exactly versus an uninterrupted reference, on all three
// distributed solvers. The crash itself is exercised here with a real fork +
// SIGKILL child (bench_durability sweeps many kill points; this suite proves
// the mechanism).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bte/chaos_campaign.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "bte/solver_factory.hpp"
#include "runtime/cancel.hpp"
#include "runtime/chaos.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/manifest.hpp"
#include "runtime/memory.hpp"
#include "runtime/simgpu.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define FINCH_HAVE_FORK 1
#endif

using namespace finch;
using namespace finch::bte;

namespace {

BteScenario tiny_scenario() {
  BteScenario s;
  s.nx = 12;
  s.ny = 10;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

std::shared_ptr<const BtePhysics> tiny_physics() {
  const BteScenario s = tiny_scenario();
  return std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

// Fresh cwd-relative directory for one test's durable store (ctest runs in
// the build tree; stale files from a previous run are removed so retention
// assertions see only this run's generations).
std::string fresh_dir(const std::string& name) {
  const std::string dir = "durability_" + name;
#if defined(__unix__) || defined(__APPLE__)
  ::mkdir(dir.c_str(), 0755);
#endif
  for (int seq = 0; seq < 64; ++seq)
    std::remove((dir + "/checkpoint_" + std::to_string(seq) + ".bin").c_str());
  std::remove((dir + "/checkpoint.bin").c_str());
  std::remove((dir + "/manifest.json").c_str());
  return dir;
}

ResilienceOptions durable_options(const std::string& dir, int interval = 2) {
  ResilienceOptions opt;
  opt.checkpoint.interval = interval;
  opt.durable.dir = dir;
  return opt;
}

rt::Snapshot tiny_snapshot(int64_t step) {
  rt::Snapshot snap;
  snap.step = step;
  snap.add("I", std::vector<double>{1.0, 2.0, 3.0 + static_cast<double>(step)});
  snap.add("T", std::vector<double>{300.0, 301.0});
  return snap;
}

}  // namespace

// ---- fault taxonomy (satellite: exhaustiveness regression) ------------------

// Every FaultKind must land in exactly one class: transient (none of the four
// predicates), permanent, silent, performance, or resource. The classifier in
// fault.cpp is a default-less switch, so *adding* a kind without classifying
// it fails to compile; this test closes the other gap — a kind classified
// into two classes, or a name collision.
TEST(Durability, FaultTaxonomyIsExhaustive) {
  std::vector<std::string> names;
  int resource = 0;
  for (int k = 0; k < rt::kNumFaultKinds; ++k) {
    const auto kind = static_cast<rt::FaultKind>(k);
    const int classes = (rt::fault_is_permanent(kind) ? 1 : 0) +
                        (rt::fault_is_silent(kind) ? 1 : 0) +
                        (rt::fault_is_performance(kind) ? 1 : 0) +
                        (rt::fault_is_resource(kind) ? 1 : 0);
    EXPECT_LE(classes, 1) << "kind " << k << " classified into " << classes << " classes";
    resource += rt::fault_is_resource(kind) ? 1 : 0;
    const std::string name = rt::fault_kind_name(kind);
    EXPECT_NE(name, "unknown-fault") << "kind " << k << " has no name";
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
    EXPECT_EQ(rt::fault_kind_from_name(name), kind) << name;
  }
  EXPECT_EQ(resource, 2);  // AllocFailure + MemoryPressure
  EXPECT_TRUE(rt::fault_is_resource(rt::FaultKind::AllocFailure));
  EXPECT_TRUE(rt::fault_is_resource(rt::FaultKind::MemoryPressure));
}

// The chaos generator's menus expose the resource class on all three solvers,
// and a resource-only schedule counts as one distinct class.
TEST(Durability, ResourceClassIsInEveryChaosMenu) {
  for (const char* solver : {"cell", "band", "mgpu"}) {
    bool has_resource = false;
    for (const rt::ChaosMenuEntry& e : rt::ChaosEngine::site_menu(solver))
      has_resource = has_resource || rt::fault_is_resource(e.kind);
    EXPECT_TRUE(has_resource) << solver;
  }
  rt::ChaosSchedule sched;
  sched.faults = {{rt::FaultKind::AllocFailure, "cell-mem", 0, 1, 1},
                  {rt::FaultKind::MemoryPressure, "cell-mem", 1, 1, 1}};
  EXPECT_EQ(sched.num_classes(), 1);
}

// ---- manifest serialization -------------------------------------------------

TEST(Manifest, RoundTripsAllFields) {
  rt::RunManifest m;
  m.config_hash = 0x1234abcd5678ef01ULL;
  m.injector_seed = 77;
  m.solver = "cell";
  m.nparts = 3;
  m.last_step = 42;
  m.saves = 7;
  m.checkpoints = {"d/checkpoint_7.bin", "d/checkpoint_6.bin"};
  m.injector_counters = {{2, "halo", 120, 3}, {12, "cell-mem", 40, 1}};
  m.injector_events = {{rt::FaultKind::DroppedMessage, "halo", 17},
                       {rt::FaultKind::AllocFailure, "cell-mem", 9}};
  m.cancel_reason = "deadline: steps";

  const rt::RunManifest back = rt::manifest_from_json(rt::manifest_to_json(m));
  EXPECT_EQ(back.config_hash, m.config_hash);
  EXPECT_EQ(back.injector_seed, m.injector_seed);
  EXPECT_EQ(back.solver, m.solver);
  EXPECT_EQ(back.nparts, m.nparts);
  EXPECT_EQ(back.last_step, m.last_step);
  EXPECT_EQ(back.saves, m.saves);
  EXPECT_EQ(back.checkpoints, m.checkpoints);
  ASSERT_EQ(back.injector_counters.size(), 2u);
  EXPECT_EQ(back.injector_counters[0].kind, 2);
  EXPECT_EQ(back.injector_counters[0].site, "halo");
  EXPECT_EQ(back.injector_counters[0].consulted, 120);
  EXPECT_EQ(back.injector_counters[0].fired, 3);
  ASSERT_EQ(back.injector_events.size(), 2u);
  EXPECT_EQ(back.injector_events[1].kind, rt::FaultKind::AllocFailure);
  EXPECT_EQ(back.injector_events[1].site, "cell-mem");
  EXPECT_EQ(back.injector_events[1].event_index, 9);
  EXPECT_EQ(back.cancel_reason, m.cancel_reason);
}

// Negative paths (satellite): truncation, corruption and unreadable bodies
// each surface as a *named* CheckpointError, never a half-parsed manifest.
TEST(Manifest, TruncatedTextIsANamedError) {
  rt::RunManifest m;
  m.solver = "band";
  const std::string text = rt::manifest_to_json(m);
  const std::string truncated = text.substr(0, text.rfind("#fnv1a:"));
  try {
    rt::manifest_from_json(truncated);
    FAIL() << "truncated manifest parsed";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("truncated"), std::string::npos) << err.what();
  }
}

TEST(Manifest, FlippedByteIsAChecksumMismatch) {
  rt::RunManifest m;
  m.solver = "cell";
  m.last_step = 10;
  std::string text = rt::manifest_to_json(m);
  const size_t pos = text.find("\"cell\"");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = 'k';
  try {
    rt::manifest_from_json(text);
    FAIL() << "corrupted manifest parsed";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("checksum mismatch"), std::string::npos) << err.what();
  }
}

TEST(Manifest, GarbageBodyWithValidChecksumIsUnreadable) {
  // A correct trailer over a non-manifest body: the strict parser, not the
  // checksum, must reject it.
  rt::RunManifest m;
  const std::string good = rt::manifest_to_json(m);
  const std::string trailer = good.substr(good.rfind("#fnv1a:"));
  (void)trailer;
  const std::string body = "{\"not\": \"a manifest\"}\n";
  std::vector<std::byte> bytes(body.size());
  for (size_t i = 0; i < body.size(); ++i) bytes[i] = static_cast<std::byte>(body[i]);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(rt::fnv1a64(bytes)));
  const std::string text = body + "#fnv1a:" + hex + "\n";
  try {
    rt::manifest_from_json(text);
    FAIL() << "garbage manifest parsed";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("unreadable"), std::string::npos) << err.what();
  }
}

TEST(Manifest, MissingFileIsANamedError) {
  EXPECT_THROW(rt::read_manifest("durability_nonexistent/manifest.json"), rt::CheckpointError);
}

// ---- durable checkpoint store -----------------------------------------------

TEST(DurableStore, RetainsNewestGenerationsAndPrunesBeyondRetention) {
  const std::string dir = fresh_dir("store_retention");
  rt::CheckpointStore store(dir, 2);
  store.save(tiny_snapshot(1));
  store.save(tiny_snapshot(2));
  store.save(tiny_snapshot(3));
  ASSERT_EQ(store.disk_paths().size(), 2u);
  EXPECT_EQ(store.disk_paths()[0], dir + "/checkpoint_3.bin");
  EXPECT_EQ(store.disk_paths()[1], dir + "/checkpoint_2.bin");
  EXPECT_EQ(rt::CheckpointStore::read_file(store.disk_paths()[0]).step, 3);
  EXPECT_EQ(rt::CheckpointStore::read_file(store.disk_paths()[1]).step, 2);
  // The pruned oldest generation is gone.
  EXPECT_THROW(rt::CheckpointStore::read_file(dir + "/checkpoint_1.bin"), rt::CheckpointError);
}

TEST(DurableStore, ReliefsFreeMemoryOnlyWhenDiskBacksIt) {
  // In-memory-only store: dropping the previous generation would destroy the
  // only fallback, so the relief must refuse (return 0).
  rt::CheckpointStore memory_only;
  memory_only.save(tiny_snapshot(1));
  memory_only.save(tiny_snapshot(2));
  EXPECT_EQ(memory_only.drop_previous_generation(), 0);
  EXPECT_EQ(memory_only.spill(), 0);
  EXPECT_EQ(memory_only.generations(), 2);

  const std::string dir = fresh_dir("store_relief");
  rt::CheckpointStore durable(dir, 2);
  durable.save(tiny_snapshot(1));
  durable.save(tiny_snapshot(2));
  EXPECT_GT(durable.drop_previous_generation(), 0);
  EXPECT_GT(durable.spill(), 0);
  // Both generations survive the reliefs — re-read from their files.
  EXPECT_EQ(durable.generations(), 2);
  EXPECT_EQ(durable.load(0).step, 2);
  EXPECT_EQ(durable.load(1).step, 1);
}

// ---- memory budget ----------------------------------------------------------

TEST(MemoryBudget, RunsReliefChainBeforeFailingAnAllocation) {
  rt::MemoryBudget budget(1000);
  EXPECT_TRUE(budget.try_reserve(900));
  EXPECT_FALSE(budget.try_reserve(200));  // no reliefs registered
  EXPECT_EQ(budget.in_use(), 900);

  int64_t stash = 500;
  budget.add_relief("stash", [&stash] {
    const int64_t freed = stash;
    stash = 0;
    return freed;
  });
  EXPECT_TRUE(budget.try_reserve(200));  // relief freed 500
  EXPECT_EQ(stash, 0);
  EXPECT_EQ(budget.in_use(), 600);
  EXPECT_EQ(budget.reliefs(), 1);
  EXPECT_EQ(budget.relieved_bytes(), 500);
  budget.release(600);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(MemoryBudget, SpikeTransientlyShrinksCapacityOnce) {
  rt::MemoryBudget budget(1000);
  int relief_runs = 0;
  budget.add_relief("count", [&relief_runs] {
    relief_runs += 1;
    return int64_t{400};
  });
  EXPECT_TRUE(budget.try_reserve(600));
  budget.spike(0.5);  // effective capacity 500 for the next admission
  EXPECT_TRUE(budget.try_reserve(100));
  EXPECT_EQ(relief_runs, 1);  // 600 + 100 > 500 forced one relief
  // The spike was consumed: full capacity is back.
  EXPECT_TRUE(budget.try_reserve(300));
  EXPECT_EQ(relief_runs, 1);
}

// ---- SimGpu resource faults -------------------------------------------------

TEST(SimGpuResource, AllocationsReserveAndReleaseAgainstTheBudget) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  rt::MemoryBudget budget(64 * 8);
  gpu.set_memory_budget(&budget);
  {
    rt::DeviceBuffer buf = gpu.allocate(64);
    EXPECT_EQ(budget.in_use(), 64 * 8);
    EXPECT_THROW(gpu.allocate(1), rt::TransientFault);  // over budget, no reliefs
    EXPECT_EQ(gpu.counters().alloc_failures, 0);        // fatal path, not a fault fire
  }
  EXPECT_EQ(budget.in_use(), 0);  // buffer destruction released the reservation
  EXPECT_EQ(budget.peak(), 64 * 8);
}

TEST(SimGpuResource, InjectedResourceFaultsAreCountedAndRelieved) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  rt::MemoryBudget budget(100 * 8);
  gpu.set_memory_budget(&budget);
  int64_t stash = 50 * 8;
  budget.add_relief("stash", [&stash] {
    const int64_t freed = stash;
    stash = 0;
    return freed;
  });
  rt::FaultInjector injector(7);
  injector.set_policy(rt::FaultKind::AllocFailure, {.probability = 0, .first_event = 0, .every = 1});
  gpu.set_fault_injector(&injector);
  rt::DeviceBuffer big = gpu.allocate(90);  // fills most of the budget
  EXPECT_EQ(gpu.counters().alloc_failures, 1);
  // Second allocation would overflow; the injected failure already ran the
  // relief chain, so the retry fits.
  rt::DeviceBuffer more = gpu.allocate(20);
  EXPECT_EQ(gpu.counters().alloc_failures, 2);
  EXPECT_EQ(stash, 0);
  EXPECT_GE(budget.reliefs(), 1);
}

// ---- cancel token -----------------------------------------------------------

TEST(CancelToken, RequestAndDeadlinesDrainWithNamedReasons) {
  rt::CancelToken cancel;
  EXPECT_FALSE(cancel.should_drain(100, 1e3));
  cancel.set_step_deadline(50);
  EXPECT_TRUE(cancel.should_drain(50, 0.0));
  EXPECT_EQ(cancel.drain_reason(50, 0.0), "deadline: steps");
  EXPECT_FALSE(cancel.should_drain(49, 0.0));

  rt::CancelToken timed;
  timed.set_virtual_deadline(1.5);
  EXPECT_TRUE(timed.should_drain(0, 2.0));
  EXPECT_EQ(timed.drain_reason(0, 2.0), "deadline: virtual-time");

  rt::CancelToken requested;
  requested.request("operator said so");
  EXPECT_TRUE(requested.should_drain(0, 0.0));
  EXPECT_EQ(requested.drain_reason(0, 0.0), "operator said so");
}

// ---- durable run + resume: bit-exact continuation ---------------------------

// A drained (cancelled) cell run resumed in a fresh solver matches the
// uninterrupted reference bit for bit, with the injector's draw sequence
// continuing across the restart through the manifest's counter state.
TEST(DurableResume, CellCancelDrainThenResumeIsBitExact) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 12;

  const auto make_injector = [] {
    rt::FaultInjector inj(21);
    inj.set_policy(rt::FaultKind::DroppedMessage, {.probability = 0, .first_event = 3, .every = 17});
    inj.set_policy(rt::FaultKind::MemoryPressure, {.probability = 0, .first_event = 2, .every = 5});
    return inj;
  };

  // Uninterrupted reference.
  rt::FaultInjector ref_inj = make_injector();
  CellPartitionedSolver ref(scen, phys, 3);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref_opt.injector = &ref_inj;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  // Interrupted: drain on a step deadline, then resume in a fresh solver.
  const std::string dir = fresh_dir("cell_cancel");
  rt::FaultInjector inj = make_injector();
  rt::CancelToken cancel;
  cancel.set_step_deadline(5);
  {
    CellPartitionedSolver first(scen, phys, 3);
    ResilienceOptions opt = durable_options(dir);
    opt.injector = &inj;
    opt.cancel = &cancel;
    first.enable_resilience(opt);
    first.run(nsteps);
    EXPECT_EQ(first.step_index(), 5);
    EXPECT_EQ(first.resilience_stats().cancel_drains, 1);
  }
  const rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
  EXPECT_EQ(manifest.solver, "cell");
  EXPECT_EQ(manifest.last_step, 5);
  EXPECT_EQ(manifest.cancel_reason, "deadline: steps");

  rt::FaultInjector resumed_inj(manifest.injector_seed);
  resumed_inj.set_policy(rt::FaultKind::DroppedMessage,
                         {.probability = 0, .first_event = 3, .every = 17});
  resumed_inj.set_policy(rt::FaultKind::MemoryPressure,
                         {.probability = 0, .first_event = 2, .every = 5});
  CellPartitionedSolver second(scen, phys, 3);
  ResilienceOptions opt = durable_options(dir);
  opt.injector = &resumed_inj;
  second.resume_from(manifest, opt);
  EXPECT_EQ(second.step_index(), 5);
  EXPECT_EQ(second.resilience_stats().resumes, 1);
  second.run(nsteps - static_cast<int>(second.step_index()));

  EXPECT_TRUE(bitwise_equal(second.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
}

// Same bit-exactness property through the band and multi-GPU solvers (plain
// abandon-and-resume, as after a crash whose manifest survived).
TEST(DurableResume, BandAbandonedRunResumesBitExact) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 10;

  BandPartitionedSolver ref(scen, phys, 3);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("band_abandon");
  {
    BandPartitionedSolver first(scen, phys, 3);
    first.enable_resilience(durable_options(dir));
    first.run(6);  // abandoned: the process "dies" here with step 6 checkpointed
  }
  const rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
  EXPECT_EQ(manifest.solver, "band");
  EXPECT_EQ(manifest.last_step, 6);
  EXPECT_TRUE(manifest.cancel_reason.empty());

  BandPartitionedSolver second(scen, phys, 3);
  second.resume_from(manifest, durable_options(dir));
  EXPECT_EQ(second.step_index(), 6);
  second.run(nsteps - static_cast<int>(second.step_index()));
  EXPECT_TRUE(bitwise_equal(second.temperature(), ref.temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
}

TEST(DurableResume, MultiGpuResumesBitExactUnderResourceFaults) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 10;

  const auto arm = [](rt::FaultInjector& inj) {
    inj.set_policy(rt::FaultKind::AllocFailure, {.probability = 0, .first_event = 1, .every = 4});
    inj.set_policy(rt::FaultKind::MemoryPressure, {.probability = 0, .first_event = 2, .every = 3});
  };
  rt::FaultInjector ref_inj(33);
  arm(ref_inj);
  rt::MemoryBudget ref_budget(int64_t{64} << 20);
  MultiGpuSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref_opt.injector = &ref_inj;
  ref_opt.memory = &ref_budget;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);
  EXPECT_GT(ref.resilience_stats().alloc_failures, 0);
  EXPECT_GT(ref.resilience_stats().pressure_events, 0);

  const std::string dir = fresh_dir("mgpu_resume");
  rt::FaultInjector inj(33);
  arm(inj);
  rt::MemoryBudget budget(int64_t{64} << 20);
  {
    MultiGpuSolver first(scen, phys, 2);
    ResilienceOptions opt = durable_options(dir);
    opt.injector = &inj;
    opt.memory = &budget;
    first.enable_resilience(opt);
    first.run(6);
  }
  const rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
  EXPECT_EQ(manifest.solver, "mgpu");

  rt::FaultInjector resumed_inj(manifest.injector_seed);
  arm(resumed_inj);
  rt::MemoryBudget resumed_budget(int64_t{64} << 20);
  MultiGpuSolver second(scen, phys, 2);
  ResilienceOptions opt = durable_options(dir);
  opt.injector = &resumed_inj;
  opt.memory = &resumed_budget;
  second.resume_from(manifest, opt);
  second.run(nsteps - static_cast<int>(second.step_index()));
  EXPECT_TRUE(bitwise_equal(second.temperature(), ref.temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
}

// ---- resume negative paths --------------------------------------------------

TEST(DurableResume, ManifestForTheWrongSolverOrConfigIsRefused) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  // config_hash of tiny_scenario() as recorded by manifests written before
  // the solvers shared one run driver: an old manifest must still resume.
  constexpr uint64_t kTinyConfigHash = 0xce60ecebec50e871ULL;
  const std::vector<std::string> kinds = {"cell", "band", "mgpu"};
  for (const std::string& writer : kinds) {
    SCOPED_TRACE("writer " + writer);
    const std::string dir = fresh_dir("resume_mismatch_" + writer);
    {
      AnySolver s(writer, scen, phys, 2);
      s.enable_resilience(durable_options(dir));
      s.run(4);
    }
    const rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
    EXPECT_EQ(manifest.solver, writer);
    EXPECT_EQ(manifest.config_hash, kTinyConfigHash);

    // Writer x resumer matrix: only the writing solver may resume.
    for (const std::string& resumer : kinds) {
      SCOPED_TRACE("resumer " + resumer);
      AnySolver r(resumer, scen, phys, 2);
      if (resumer == writer) {
        EXPECT_NO_THROW(r.resume_from(manifest, durable_options(dir)));
        EXPECT_EQ(r.step_index(), 4);
      } else {
        EXPECT_THROW(r.resume_from(manifest, durable_options(dir)), rt::CheckpointError);
      }
    }

    BteScenario other = scen;
    other.nx = 10;
    AnySolver wrong_config(writer, other, phys, 2);
    EXPECT_THROW(wrong_config.resume_from(manifest, durable_options(dir)), rt::CheckpointError);
  }
}

TEST(DurableResume, MissingNewestGenerationFallsBackCorruptAllFails) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("resume_fallback");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);  // generations at steps 6 (newest) and 4
  }
  rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
  ASSERT_EQ(manifest.checkpoints.size(), 2u);
  EXPECT_EQ(manifest.last_step, 6);

  // Newest generation file lost: resume falls back to the older one.
  std::remove(manifest.checkpoints[0].c_str());
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.resume_from(manifest, durable_options(dir));
    EXPECT_EQ(s.step_index(), 4);
    EXPECT_GE(s.resilience_stats().ckpt_generation_fallbacks, 1);
  }

  // Every recorded generation unreadable: a named error, not a silent restart.
  std::remove(manifest.checkpoints[1].c_str());
  {
    CellPartitionedSolver s(scen, phys, 2);
    EXPECT_THROW(s.resume_from(manifest, durable_options(dir)), rt::CheckpointError);
  }
}

namespace {
// Rewrites `path` keeping only the first half of its bytes — a torn copy, a
// partial scp, a filesystem that lost the tail. Distinct from deletion: the
// file still exists and opens fine, only deserialization can reject it.
void truncate_file_to_half(const std::string& path) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(data.size(), 1u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
}
}  // namespace

TEST(DurableResume, TruncatedNewestGenerationFallsBack) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 8;

  CellPartitionedSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("resume_truncated");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);  // generations at steps 6 (newest) and 4
  }
  rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
  ASSERT_EQ(manifest.checkpoints.size(), 2u);

  // Newest generation torn (truncated, not deleted): resume must reject it
  // by content and fall back to the older generation, then finish bit-exact.
  truncate_file_to_half(manifest.checkpoints[0]);
  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(manifest, durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 4);
  EXPECT_GE(resumed.resilience_stats().ckpt_generation_fallbacks, 1);
  resumed.run(nsteps - static_cast<int>(resumed.step_index()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_intensity(), ref.gather_intensity()));
}

TEST(DurableResume, ResumedRunAdoptsOlderGenerationsAsFallback) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("resume_adopt");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);
  }
  const rt::RunManifest first = rt::read_manifest(dir + "/manifest.json");
  ASSERT_EQ(first.checkpoints.size(), 2u);

  // Resume and immediately "crash" (drop the solver). The resume itself
  // commits a fresh checkpoint + manifest; the ISSUE-8 fragility was that
  // this manifest recorded ONLY the new generation, orphaning the files the
  // first manifest still had — adoption must keep an older one as fallback.
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.resume_from(first, durable_options(dir));
    EXPECT_EQ(s.step_index(), 6);
  }
  rt::RunManifest second = rt::read_manifest(dir + "/manifest.json");
  ASSERT_EQ(second.checkpoints.size(), 2u)
      << "post-resume manifest forgot the adopted generation";
  EXPECT_NE(second.checkpoints[0], second.checkpoints[1]);

  // Second crash with the newest generation torn: the adopted fallback is
  // what makes this resumable at all.
  truncate_file_to_half(second.checkpoints[0]);
  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(second, durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 6);
  EXPECT_GE(resumed.resilience_stats().ckpt_generation_fallbacks, 1);
}

TEST(DurableResume, AdoptDiskPathsSkipsDamagedCandidates) {
  rt::CheckpointStore store("", 2);
  // Neither path exists; adoption must validate by content and adopt nothing.
  EXPECT_EQ(store.adopt_disk_paths({"durability_missing_a.bin", "durability_missing_b.bin"}), 0);
  EXPECT_TRUE(store.disk_paths().empty());
}

TEST(DurableResume, OptionValidationCoversDurableKnobs) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  CellPartitionedSolver s(scen, phys, 2);

  ResilienceOptions bad_generations = durable_options("x");
  bad_generations.durable.disk_generations = 0;
  EXPECT_THROW(s.enable_resilience(bad_generations), std::invalid_argument);

  ResilienceOptions no_checkpoints = durable_options("x");
  no_checkpoints.checkpoint.interval = 0;
  no_checkpoints.max_rollbacks = 0;
  EXPECT_THROW(s.enable_resilience(no_checkpoints), std::invalid_argument);

  const rt::RunManifest manifest;  // never mind the contents:
  ResilienceOptions no_dir;        // resume without a durable dir is refused first
  EXPECT_THROW(s.resume_from(manifest, no_dir), std::invalid_argument);
}

// ---- chaos: resource class composes with the rest ---------------------------

TEST(DurabilityChaos, ResourceClassScheduleSurvivesTheOracle) {
  ChaosCampaign campaign(tiny_scenario(), tiny_physics(), ChaosDefense{});
  rt::ChaosSchedule sched;
  sched.seed = 99;
  sched.solver = "cell";
  sched.nparts = 3;
  sched.nsteps = 10;
  sched.faults = {{rt::FaultKind::AllocFailure, "cell-mem", 2, 1, 2},
                  {rt::FaultKind::MemoryPressure, "cell-mem", 4, 2, 2},
                  {rt::FaultKind::DroppedMessage, "halo", 10, 5, 2}};
  const ChaosOutcome out = campaign.run_schedule(sched);
  EXPECT_TRUE(out.ok()) << out.detail;
  EXPECT_GT(out.stats.alloc_failures, 0);
  EXPECT_GT(out.stats.pressure_events, 0);
}

// ---- crash harness: SIGKILL inside the checkpoint .tmp-write window ---------

#ifdef FINCH_HAVE_FORK
// The child is killed while the third checkpoint's `.tmp` sibling is being
// written (rename still pending). The commit protocol guarantees the previous
// generation and the previous manifest are untouched, so the parent resumes
// from the prior step and finishes bit-exactly (satellite: the mid-write
// window is the one a naive in-place writer corrupts).
TEST(CrashHarness, SigkillDuringTmpWriteLeavesPriorGenerationResumable) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 8;

  CellPartitionedSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("crash_tmpwrite");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: SIGKILL from inside the .tmp-write window of the third
    // checkpoint image (enable_resilience writes #1 at step 0, then steps 2
    // and 4 write #2 and #3).
    static int checkpoint_tmp_writes = 0;
    rt::set_checkpoint_commit_hook([](const std::string& path, rt::CommitPhase phase) {
      if (phase != rt::CommitPhase::AfterTmpWrite) return;
      if (path.find("checkpoint_") == std::string::npos) return;
      if (++checkpoint_tmp_writes == 3) ::raise(SIGKILL);
    });
    CellPartitionedSolver victim(scen, phys, 2);
    victim.enable_resilience(durable_options(dir));
    victim.run(nsteps);
    ::_exit(42);  // unreachable when the kill landed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The manifest on disk is the one from the second checkpoint (step 2), its
  // newest generation is intact, and the torn write left no readable trace.
  const rt::RunManifest manifest = rt::read_manifest(dir + "/manifest.json");
  EXPECT_EQ(manifest.last_step, 2);
  ASSERT_FALSE(manifest.checkpoints.empty());
  EXPECT_EQ(rt::CheckpointStore::read_file(manifest.checkpoints[0]).step, 2);

  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(manifest, durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 2);
  resumed.run(nsteps - static_cast<int>(resumed.step_index()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_intensity(), ref.gather_intensity()));
}
#endif  // FINCH_HAVE_FORK
