// Differential and failure-path tests for the native JIT backend
// (CODEGEN.md): for a matrix of problems — BTE, gray model, RK2, DofMajor,
// threaded, plus seeded fuzz-generated conservation forms — the native
// solver's results must be bit-identical to the bytecode VM's. Negative
// paths (no compiler, compile error, corrupted cache entry, disabled JIT)
// must fall back to the VM cleanly, counted in jit.fallback, and still
// produce the VM's exact answer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "bte/bte_problem.hpp"
#include "bte/gray.hpp"
#include "core/codegen/native_backend.hpp"
#include "core/codegen/native_ir.hpp"
#include "core/dsl/problem.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

using namespace finch;
namespace fs = std::filesystem;

namespace {

double counter(const char* name) { return rt::MetricsRegistry::global().counter(name).value(); }

bool bits_equal(const fvm::CellField& a, const fvm::CellField& b) {
  if (a.data().size() != b.data().size()) return false;
  return std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
}

// Small toy problem over an nx x ny (default 6x5) quad mesh: I[d,b] with
// direction/band indices,
// a flux BC on the y-min wall, optionally a value BC on y-max (`value_fn`, or
// a fixed profile), and the x walls left as default zero-flux.
std::unique_ptr<dsl::Problem> toy_problem(const std::string& eq, dsl::Backend backend,
                                          fvm::Layout layout = fvm::Layout::CellMajor,
                                          sym::TimeScheme scheme = sym::TimeScheme::ForwardEuler,
                                          bool value_bc = false,
                                          fvm::BoundaryCallback value_fn = nullptr, int nx = 6,
                                          int ny = 5) {
  auto p = std::make_unique<dsl::Problem>("toy");
  p->domain(2).time_stepper(scheme);
  p->set_steps(0.01, 4);
  p->set_mesh(mesh::Mesh::structured_quad(nx, ny, 1.0, 1.0));
  p->layout(layout);
  p->execution_backend(backend);
  p->index("d", 1, 3);
  p->index("b", 1, 2);
  p->variable("I", {"d", "b"});
  p->variable("Io", {"b"});
  p->coefficient("Sx", {0.6, -0.8, 0.2}, {"d"});
  p->coefficient("Sy", {0.4, 0.3, -0.9}, {"d"});
  p->coefficient("k", 0.7);
  p->coefficient("vg", 1.3);
  p->initial("I", [](int32_t c, std::span<const int32_t> idx) {
    return 0.05 * (c + 1) + 0.3 * idx[0] - 0.17 * idx[1];
  });
  p->initial("Io", [](int32_t c, std::span<const int32_t> idx) {
    return 0.4 + 0.01 * c + 0.2 * idx[0];
  });
  p->boundary("I", 1, dsl::BcType::Flux, "toy_flux", [](const fvm::BoundaryContext& ctx) {
    return 0.1 * (ctx.cell + 1) + 0.01 * ctx.dof + 0.02 * ctx.dir - 0.005 * ctx.band;
  });
  if (value_fn) {
    p->boundary("I", 2, dsl::BcType::Value, "toy_value", std::move(value_fn));
  } else if (value_bc) {
    p->boundary("I", 2, dsl::BcType::Value, "toy_value", [](const fvm::BoundaryContext& ctx) {
      return 0.2 + 0.03 * ctx.dof + 0.001 * ctx.cell;
    });
  }
  p->conservation_form("I", eq);
  return p;
}

constexpr const char* kToySurfaceEq =
    "(Io[b] - I[d,b]) * k - surface(vg * upwind([Sx[d];Sy[d]], I[d,b]))";

class NativeBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    codegen::reset_jit_config_from_env();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    cache_dir_ = ::testing::TempDir() + "finch_jit_" + info->name();
    fs::remove_all(cache_dir_);
    codegen::jit_config().cache_dir = cache_dir_;
    codegen::reset_native_memory_cache();
  }
  void TearDown() override {
    codegen::reset_jit_config_from_env();
    fs::remove_all(cache_dir_);
  }

  // Compiles the same toy problem under both backends, runs `steps`, and
  // requires bit-identical I fields with the JIT actually engaged.
  void expect_differential_identity(const std::string& eq,
                                    fvm::Layout layout = fvm::Layout::CellMajor,
                                    sym::TimeScheme scheme = sym::TimeScheme::ForwardEuler,
                                    bool value_bc = false, int steps = 3) {
    auto pv = toy_problem(eq, dsl::Backend::Vm, layout, scheme, value_bc);
    auto pn = toy_problem(eq, dsl::Backend::Native, layout, scheme, value_bc);
    auto sv = pv->compile(dsl::Target::CpuSerial);
    const double fb0 = counter("jit.fallback");
    auto sn = pn->compile(dsl::Target::CpuSerial);
    ASSERT_EQ(counter("jit.fallback"), fb0) << "JIT fell back instead of compiling: " << eq;
    sv->run(steps);
    sn->run(steps);
    EXPECT_EQ(counter("jit.verify.mismatch"), 0.0);
    EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I"))) << "eq: " << eq;
  }

  std::string cache_dir_;
};

// ---- differential matrix ---------------------------------------------------

TEST_F(NativeBackendTest, ToyUpwindSurfaceBitIdentical) {
  expect_differential_identity(kToySurfaceEq);
}

TEST_F(NativeBackendTest, VolumeOnlyBitIdentical) {
  expect_differential_identity("(Io[b] - I[d,b]) * k");
}

TEST_F(NativeBackendTest, ValueBcBitIdentical) {
  expect_differential_identity(kToySurfaceEq, fvm::Layout::CellMajor,
                               sym::TimeScheme::ForwardEuler, /*value_bc=*/true);
}

TEST_F(NativeBackendTest, Rk2MidpointBitIdentical) {
  expect_differential_identity(kToySurfaceEq, fvm::Layout::CellMajor,
                               sym::TimeScheme::RK2Midpoint, /*value_bc=*/true);
}

TEST_F(NativeBackendTest, DofMajorLayoutBitIdentical) {
  expect_differential_identity(kToySurfaceEq, fvm::Layout::DofMajor);
}

TEST_F(NativeBackendTest, ThreadedNativeMatchesSerialVm) {
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  rt::ThreadPool pool(3);
  pn->use_threads(&pool);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  auto sn = pn->compile(dsl::Target::CpuThreads);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  sv->run(3);
  sn->run(3);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

TEST_F(NativeBackendTest, GrayModelBitIdentical) {
  bte::GrayScenario scen;
  scen.nx = scen.ny = 8;
  scen.ndirs = 4;
  scen.nsteps = 3;
  bte::GrayBteProblem gv(scen), gn(scen);
  gv.problem().execution_backend(dsl::Backend::Vm);
  gn.problem().execution_backend(dsl::Backend::Native);
  auto sv = gv.compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  auto sn = gn.compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  sv->run(scen.nsteps);
  sn->run(scen.nsteps);
  EXPECT_TRUE(bits_equal(gv.problem().fields().get("I"), gn.problem().fields().get("I")));
  EXPECT_TRUE(bits_equal(gv.problem().fields().get("T"), gn.problem().fields().get("T")));
}

TEST_F(NativeBackendTest, SpectralBteBitIdentical) {
  bte::BteScenario scen = bte::BteScenario::small();
  scen.nx = scen.ny = 8;
  scen.ndirs = 4;
  scen.nbands = 2;
  scen.nsteps = 2;
  auto phys = std::make_shared<const bte::BtePhysics>(scen.nbands, scen.ndirs);
  scen.backend = "vm";
  bte::BteProblem bv(scen, phys);
  scen.backend = "native";
  bte::BteProblem bn(scen, phys);
  auto sv = bv.compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  auto sn = bn.compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  sv->run(scen.nsteps);
  sn->run(scen.nsteps);
  EXPECT_TRUE(bits_equal(bv.problem().fields().get("I"), bn.problem().fields().get("I")));
  EXPECT_TRUE(bits_equal(bv.problem().fields().get("T"), bn.problem().fields().get("T")));
}

// ---- fuzz-generated conservation forms --------------------------------------

std::string fuzz_volume_expr(std::mt19937& rng, int depth) {
  static const char* leaves[] = {"I[d,b]", "Io[b]", "Sx[d]", "k", "0.5", "1.25", "2"};
  if (depth <= 0) return leaves[rng() % (sizeof(leaves) / sizeof(leaves[0]))];
  static const char* ops[] = {" + ", " - ", " * "};
  return "(" + fuzz_volume_expr(rng, depth - 1) + ops[rng() % 3] +
         fuzz_volume_expr(rng, depth - 1) + ")";
}

class NativeBackendFuzz : public NativeBackendTest,
                          public ::testing::WithParamInterface<uint32_t> {};

TEST_P(NativeBackendFuzz, FuzzedProgramsBitIdentical) {
  std::mt19937 rng(GetParam());
  std::string eq = fuzz_volume_expr(rng, 3);
  if (rng() % 2 == 0) eq += " - surface(vg * upwind([Sx[d];Sy[d]], I[d,b]))";
  expect_differential_identity(eq, fvm::Layout::CellMajor, sym::TimeScheme::ForwardEuler,
                               /*value_bc=*/rng() % 2 == 0, /*steps=*/2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeBackendFuzz, ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---- kernel cache -----------------------------------------------------------

TEST_F(NativeBackendTest, CacheMissThenDiskHitThenMemoryHit) {
  const double miss0 = counter("jit.cache.miss");
  const double hit0 = counter("jit.cache.hit");
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  EXPECT_EQ(counter("jit.cache.miss"), miss0 + 1);
  EXPECT_EQ(counter("jit.cache.hit"), hit0);

  // Same IR again, but with the in-process handle cache dropped: the kernel
  // must come back from disk, not a recompile.
  codegen::reset_native_memory_cache();
  const double disk0 = counter("jit.cache.hit_disk");
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  EXPECT_EQ(counter("jit.cache.miss"), miss0 + 1);
  EXPECT_EQ(counter("jit.cache.hit_disk"), disk0 + 1);

  // Third solve: served from process memory.
  const double mem0 = counter("jit.cache.hit_mem");
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  EXPECT_EQ(counter("jit.cache.miss"), miss0 + 1);
  EXPECT_EQ(counter("jit.cache.hit_mem"), mem0 + 1);
}

TEST_F(NativeBackendTest, CorruptedCacheEntryIsEvictedAndRecompiled) {
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  // Replace every cached shared object with garbage, atomically (a new inode
  // renamed over the entry — the way a crashed writer would leave one). The
  // first solve's mapping of the old inode stays intact; only the cache entry
  // is corrupt.
  int corrupted = 0;
  for (const auto& ent : fs::directory_iterator(cache_dir_)) {
    if (ent.path().extension() == ".so") {
      const fs::path garbage = ent.path().string() + ".garbage";
      std::ofstream(garbage, std::ios::trunc) << "not an elf object";
      fs::rename(garbage, ent.path());
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0);
  codegen::reset_native_memory_cache();
  const double corrupt0 = counter("jit.cache.corrupt");
  const double fb0 = counter("jit.fallback");
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  auto sn = pn->compile(dsl::Target::CpuSerial);
  EXPECT_GE(counter("jit.cache.corrupt"), corrupt0 + 1);
  EXPECT_EQ(counter("jit.fallback"), fb0) << "recompile after eviction should succeed";
  sv->run(2);
  sn->run(2);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

// ---- negative paths: always the VM's answer, never a wrong one --------------

void expect_clean_fallback(const std::string& why) {
  const double fb0 = counter("jit.fallback");
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  auto sn = pn->compile(dsl::Target::CpuSerial);
  EXPECT_GE(counter("jit.fallback"), fb0 + 1) << why;
  sv->run(3);
  sn->run(3);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I"))) << why;
}

TEST_F(NativeBackendTest, MissingCompilerFallsBackToVm) {
  codegen::jit_config().compiler = "/nonexistent/finch-test-cxx";
  expect_clean_fallback("missing compiler");
}

TEST_F(NativeBackendTest, CompileErrorFallsBackToVm) {
  codegen::jit_config().extra_cflags = "--finch-definitely-not-a-flag";
  expect_clean_fallback("compile error");
}

TEST_F(NativeBackendTest, DisabledJitFallsBackToVm) {
  codegen::jit_config().disable = true;
  EXPECT_FALSE(codegen::native_backend_available());
  expect_clean_fallback("jit disabled");
}

TEST_F(NativeBackendTest, LoadReportsDiagnosticOnFailure) {
  codegen::jit_config().compiler = "/nonexistent/finch-test-cxx";
  codegen::NativePlan plan;
  plan.source = "int broken(";
  std::string err;
  EXPECT_FALSE(codegen::load_native_plan(plan, &err));
  EXPECT_NE(err.find("compile failed"), std::string::npos);
  EXPECT_NE(err.find("/nonexistent/finch-test-cxx"), std::string::npos);
  EXPECT_EQ(plan.fn, nullptr);
}

// ---- backend selection ------------------------------------------------------

TEST_F(NativeBackendTest, BackendStringsRoundTrip) {
  EXPECT_EQ(dsl::backend_from_string("vm"), dsl::Backend::Vm);
  EXPECT_EQ(dsl::backend_from_string("native"), dsl::Backend::Native);
  EXPECT_EQ(dsl::backend_from_string("auto"), dsl::Backend::Auto);
  EXPECT_STREQ(dsl::backend_to_string(dsl::Backend::Native), "native");
  EXPECT_THROW(dsl::backend_from_string("cuda"), std::invalid_argument);
}

TEST_F(NativeBackendTest, EnvSeedsDefaultBackend) {
  ::setenv("FINCH_BACKEND", "native", 1);
  EXPECT_EQ(dsl::default_backend_from_env(), dsl::Backend::Native);
  ::setenv("FINCH_BACKEND", "bogus", 1);
  EXPECT_EQ(dsl::default_backend_from_env(), dsl::Backend::Vm);
  ::unsetenv("FINCH_BACKEND");
  EXPECT_EQ(dsl::default_backend_from_env(), dsl::Backend::Vm);
}

TEST_F(NativeBackendTest, ExplicitVmBackendNeverTouchesTheJit) {
  const double miss0 = counter("jit.cache.miss");
  const double hit0 = counter("jit.cache.hit");
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto s = p->compile(dsl::Target::CpuSerial);
  s->run(2);
  EXPECT_EQ(counter("jit.cache.miss"), miss0);
  EXPECT_EQ(counter("jit.cache.hit"), hit0);
}

TEST_F(NativeBackendTest, AutoUsesNativeWhenAvailableElseVm) {
  if (codegen::native_backend_available()) {
    const double batches0 = counter("jit.exec.batches");
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Auto);
    auto s = p->compile(dsl::Target::CpuSerial);
    s->run(1);
    EXPECT_GT(counter("jit.exec.batches"), batches0);
  }
  codegen::jit_config().disable = true;
  const double miss0 = counter("jit.cache.miss");
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Auto);
  auto s = p->compile(dsl::Target::CpuSerial);
  s->run(1);  // must run fine on the VM without counting a fallback attempt
  EXPECT_EQ(counter("jit.cache.miss"), miss0);
}

TEST_F(NativeBackendTest, GuardedSolverStaysOnVm) {
  const double batches0 = counter("jit.exec.batches");
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto s = p->compile(dsl::Target::CpuSerial);
  s->enable_nonfinite_guard();
  s->run(2);
  EXPECT_EQ(counter("jit.exec.batches"), batches0);
  EXPECT_GT(s->nonfinite_report().evals, 0);
  EXPECT_TRUE(s->nonfinite_report().clean());
}

// ---- emission ---------------------------------------------------------------

TEST_F(NativeBackendTest, EmittedSourceIsDeterministicAndStructured) {
  bte::GrayScenario scen;
  scen.nx = scen.ny = 8;
  scen.ndirs = 4;
  bte::GrayBteProblem g1(scen), g2(scen);
  const std::string s1 = g1.problem().generated_native_source();
  const std::string s2 = g2.problem().generated_native_source();
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1.find("extern \"C\" void finch_kernel_v1"), std::string::npos);
  EXPECT_NE(s1.find("finch_kernel_abi_version"), std::string::npos);
  EXPECT_NE(s1.find("-ffp-contract=off"), std::string::npos);
}

TEST_F(NativeBackendTest, CsePrunesTheUpwindExpansion) {
  const double before0 = counter("jit.ir.nodes_before");
  const double after0 = counter("jit.ir.nodes_after");
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  (void)p->generated_native_source();
  const double before = counter("jit.ir.nodes_before") - before0;
  const double after = counter("jit.ir.nodes_after") - after0;
  ASSERT_GT(before, 0.0);
  // The upwind select evaluates s·n for the condition and both branches; CSE
  // must collapse those repeats, so the SSA graph is strictly smaller.
  EXPECT_LT(after, before);
}

TEST_F(NativeBackendTest, VerifyKnobIsHonored) {
  codegen::jit_config().verify_first_sweep = false;
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  auto sn = pn->compile(dsl::Target::CpuSerial);
  sv->run(2);
  sn->run(2);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

// A value-BC callback that is stateful and deliberately not thread-safe: a
// plain call counter. The first `first_calls` calls return one wall value and
// every later call another. An atomic in-flight flag records whether two
// calls ever overlapped.
struct CountingWall {
  int calls = 0;
  int first_calls = 0;
  std::atomic<bool> in_flight{false};
  std::atomic<bool> overlapped{false};

  fvm::BoundaryCallback callback() {
    return [this](const fvm::BoundaryContext&) {
      if (in_flight.exchange(true)) overlapped = true;
      const double v = calls++ < first_calls ? 0.2 : 0.9;
      in_flight = false;
      return v;
    };
  }
};

TEST_F(NativeBackendTest, VerifyMismatchDemotesToTheVm) {
  // A mesh large enough that the replay's interior and boundary cells each
  // span many pool chunks. The y-max wall has nx boundary (cell, face) slots
  // over 3 x 2 = 6 DOFs: the native pre-pass evaluates the callback nx * 6
  // times and sees 0.2; the VM replay then sees 0.9, so kernel and oracle
  // disagree at every inflow DOF.
  constexpr int kNx = 48, kNy = 40;
  constexpr int kPrePassCalls = kNx * 6;
  CountingWall native_wall, vm_wall;
  native_wall.first_calls = kPrePassCalls;
  vm_wall.first_calls = 0;  // the reference sees only the value the VM saw
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native, fvm::Layout::CellMajor,
                        sym::TimeScheme::ForwardEuler, true, native_wall.callback(), kNx, kNy);
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm, fvm::Layout::CellMajor,
                        sym::TimeScheme::ForwardEuler, true, vm_wall.callback(), kNx, kNy);
  const double fb0 = counter("jit.fallback");
  const double mm0 = counter("jit.verify.mismatch");
  auto sn = pn->compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0) << "JIT fell back instead of compiling";
  auto sv = pv->compile(dsl::Target::CpuSerial);
  sn->run(3);
  sv->run(3);
  EXPECT_EQ(counter("jit.verify.mismatch"), mm0 + 1);
  EXPECT_EQ(counter("jit.fallback"), fb0 + 1);
  EXPECT_GT(native_wall.calls, kPrePassCalls);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
  EXPECT_FALSE(native_wall.overlapped) << "a serial solver ran two BC callbacks at once";
}

TEST_F(NativeBackendTest, VerifyInsideAPoolJobRunsInline) {
  // A serial native solve issued from inside a shared-pool job finds the pool
  // busy: its first-sweep check runs on the calling thread and still passes.
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  sv->run(3);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  const double fb0 = counter("jit.fallback");
  const double mm0 = counter("jit.verify.mismatch");
  const double verify0 = counter("jit.verify.seconds");
  rt::ThreadPool& pool = rt::ThreadPool::shared();
  ASSERT_TRUE(pool.try_parallel_for_chunks(0, 1, [&](int64_t, int64_t) {
    auto sn = pn->compile(dsl::Target::CpuSerial);
    sn->run(3);
  }));
  EXPECT_EQ(counter("jit.fallback"), fb0);
  EXPECT_EQ(counter("jit.verify.mismatch"), mm0);
  EXPECT_GT(counter("jit.verify.seconds"), verify0);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

}  // namespace
