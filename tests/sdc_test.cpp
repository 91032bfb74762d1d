// Silent-data-corruption defense: ABFT checksum primitives, silent bit-flip
// injection, verify-on-receipt transfer sidecars, and — per distributed
// solver — detection within one step, localization to a block, repair without
// full rollback, and bit-exact final fields. The "same block fails twice"
// escalation to checkpoint rollback is exercised through the dedicated
// repair-site policies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "core/codegen/bytecode.hpp"
#include "core/codegen/movement.hpp"
#include "core/symbolic/parser.hpp"
#include "core/symbolic/simplify.hpp"
#include "runtime/abft.hpp"
#include "runtime/fault.hpp"
#include "runtime/simmpi.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

std::shared_ptr<const BtePhysics> phys() {
  static auto p = std::make_shared<const BtePhysics>(6, 8);
  return p;
}

BteScenario scen() {
  BteScenario s;
  s.nx = 10;
  s.ny = 8;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;
}

std::vector<double> ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.25 * static_cast<double>(i) + 1.0;
  return v;
}

}  // namespace

// ---- ABFT primitives ---------------------------------------------------------

TEST(Abft, FletcherCatchesEverySingleMantissaBitFlip) {
  const std::vector<double> data = ramp(32);
  const rt::BlockChecksum clean = rt::block_checksum(data);
  for (int bit = 0; bit < 52; ++bit) {
    std::vector<double> hit = data;
    uint64_t bits;
    std::memcpy(&bits, &hit[17], sizeof(bits));
    bits ^= 1ULL << bit;
    std::memcpy(&hit[17], &bits, sizeof(bits));
    EXPECT_TRUE(std::isfinite(hit[17]));
    EXPECT_FALSE(rt::block_checksum(hit).matches(clean)) << "bit " << bit;
  }
}

TEST(Abft, ComparisonIsBitExactNotValueBased) {
  // 0.0 and -0.0 compare equal as values; the checksum must tell them apart.
  const std::vector<double> pos = {0.0, 1.0};
  const std::vector<double> neg = {-0.0, 1.0};
  EXPECT_FALSE(rt::block_checksum(neg).matches(rt::block_checksum(pos)));
  EXPECT_TRUE(rt::block_checksum(pos).matches(rt::block_checksum(pos)));
}

TEST(Abft, BlockLedgerLocalizesAndHeals) {
  std::vector<double> data = ramp(120);
  rt::BlockLedger ledger(data.size(), 24);
  EXPECT_EQ(ledger.num_blocks(), 5u);
  ledger.update(data);
  EXPECT_TRUE(ledger.verify(data).empty());

  uint64_t bits;
  std::memcpy(&bits, &data[77], sizeof(bits));
  bits ^= 1ULL << 13;
  std::memcpy(&data[77], &bits, sizeof(bits));

  const auto bad = ledger.verify(data);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 77u / 24u);  // localized to the containing block only
  const auto range = ledger.range(bad[0]);
  EXPECT_LE(range.begin, 77u);
  EXPECT_GT(range.end, 77u);

  ledger.update_block(bad[0], data);  // owner re-adopts after a repair
  EXPECT_TRUE(ledger.verify(data).empty());
}

TEST(Abft, RaggedLastBlockIsCovered) {
  std::vector<double> data = ramp(50);
  rt::BlockLedger ledger(data.size(), 16);
  EXPECT_EQ(ledger.num_blocks(), 4u);
  EXPECT_EQ(ledger.range(3).begin, 48u);
  EXPECT_EQ(ledger.range(3).end, 50u);
  ledger.update(data);
  data[49] = -data[49];
  const auto bad = ledger.verify(data);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 3u);
}

namespace {

// BlockChecksum::fold as it stood before the deferred-modulo fast path: four
// dependent `% 0xffffffff` per element. The fast paths must reproduce every
// field of it bit for bit.
rt::BlockChecksum per_element_fold(std::span<const double> data) {
  rt::BlockChecksum c;
  for (double v : data) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    c.lo = (c.lo + (bits & 0xffffffffULL)) % 0xffffffffULL;
    c.hi = (c.hi + c.lo) % 0xffffffffULL;
    c.lo = (c.lo + (bits >> 32)) % 0xffffffffULL;
    c.hi = (c.hi + c.lo) % 0xffffffffULL;
    const double y = v - c.comp;
    const double t = c.sum + y;
    c.comp = (t - c.sum) - y;
    c.sum = t;
    ++c.count;
  }
  return c;
}

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// IEEE 754 leaves open which payload an addition of two different NaNs
// returns, and the compiler may commute the operands, so a NaN Kahan value is
// matched by NaN-ness. Every other value, infinities and signed zeros
// included, is matched bit for bit.
void expect_same_value(double got, double want, const std::string& what) {
  if (std::isnan(want))
    EXPECT_TRUE(std::isnan(got)) << what;
  else
    EXPECT_EQ(bits_of(got), bits_of(want)) << what;
}

void expect_same_fields(const rt::BlockChecksum& got, const rt::BlockChecksum& want,
                        const std::string& what) {
  EXPECT_EQ(got.lo, want.lo) << what;
  EXPECT_EQ(got.hi, want.hi) << what;
  expect_same_value(got.sum, want.sum, what + " sum");
  expect_same_value(got.comp, want.comp, what + " comp");
  EXPECT_EQ(got.count, want.count) << what;
}

// Random bit patterns mixed with the values a checksum must not mishandle:
// NaN payloads, signed zeros, infinities, denormals and all-ones 32-bit words.
// With `finite`, every value is finite and of moderate magnitude (random sign
// and mantissa, binary exponent in [-200, 200], plus signed zeros, denormals
// and an all-ones low word), so the Kahan sum and its compensation stay
// finite and are compared bit for bit.
std::vector<double> adversarial(size_t n, uint64_t seed, bool finite = false) {
  static const uint64_t kSpecial[] = {
      0x7ff8000000000001ULL, 0xfff8deadbeef0000ULL, 0x7ff0000000000001ULL,  // NaNs
      0x0000000000000000ULL, 0x8000000000000000ULL,                          // +-0
      0x7ff0000000000000ULL, 0xfff0000000000000ULL,                          // +-Inf
      0x0000000000000001ULL, 0x800fffffffffffffULL,                          // denormals
      0xffffffff00000000ULL, 0x00000000ffffffffULL, 0xffffffffffffffffULL,   // all-ones words
      0x7fefffffffffffffULL, 0x3ff0000000000000ULL};
  static const uint64_t kFiniteSpecial[] = {
      0x0000000000000000ULL, 0x8000000000000000ULL, 0x0000000000000001ULL,
      0x800fffffffffffffULL, 0x3ff00000ffffffffULL, 0xbff0000000000000ULL};
  std::mt19937_64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    const uint64_t r = rng();
    uint64_t bits = rng();
    if (finite) {
      const uint64_t exponent = 1023 - 200 + (bits >> 52) % 401;
      bits = (bits & 0x800fffffffffffffULL) | (exponent << 52);
      if ((r & 3) == 0) bits = kFiniteSpecial[(r >> 2) % std::size(kFiniteSpecial)];
    } else if ((r & 3) == 0) {
      bits = kSpecial[(r >> 2) % std::size(kSpecial)];
    }
    std::memcpy(&x, &bits, sizeof(x));
  }
  return v;
}

}  // namespace

TEST(Abft, FastChecksumMatchesPerElementFoldInEveryField) {
  for (bool finite : {false, true})
    for (size_t n : {0u, 1u, 2u, 3u, 4095u, 4096u, 4097u, 8192u, 12289u}) {
      const std::vector<double> data = adversarial(n, 11 + n, finite);
      const std::string what = "n=" + std::to_string(n) + (finite ? " finite" : "");
      const rt::BlockChecksum want = per_element_fold(data);
      expect_same_fields(rt::block_checksum(data), want, "block_checksum " + what);
      rt::BlockChecksum folded;
      for (double v : data) folded.fold(v);
      expect_same_fields(folded, want, "fold " + what);
    }
}

TEST(Abft, LockstepLedgerMatchesPerElementFoldPerBlock) {
  // (n, block size): ragged last blocks and block counts that are not a
  // multiple of the four lockstep lanes, as well as ones that are.
  const std::pair<size_t, size_t> shapes[] = {{0, 4},    {1, 1},    {2, 1},   {7, 2},
                                              {50, 16},  {64, 16},  {120, 24}, {143, 10},
                                              {128, 16}, {9000, 1000}};
  for (bool finite : {false, true}) {
    for (const auto& [n, block] : shapes) {
      std::vector<double> data = adversarial(n, 7 * n + block, finite);
      rt::BlockLedger ledger(n, block);
      ledger.update(data);
      for (size_t b = 0; b < ledger.num_blocks(); ++b) {
        const auto r = ledger.range(b);
        const auto block_data = std::span<const double>(data).subspan(r.begin, r.end - r.begin);
        expect_same_fields(ledger.checksum(b), per_element_fold(block_data),
                           "n=" + std::to_string(n) + " block " + std::to_string(b));
      }
      EXPECT_TRUE(ledger.verify(data).empty());
      // A flip in each block is localized to exactly that block.
      for (size_t b = 0; b < ledger.num_blocks(); ++b) {
        const size_t i = ledger.range(b).end - 1;
        std::vector<double> hit = data;
        const uint64_t flipped = bits_of(hit[i]) ^ 1ULL;
        std::memcpy(&hit[i], &flipped, sizeof(flipped));
        const auto bad = ledger.verify(hit);
        ASSERT_EQ(bad.size(), 1u) << "n=" << n << " block " << b;
        EXPECT_EQ(bad[0], b);
      }
    }
  }
}

TEST(Abft, DeferredModuloIsExactOverBlocksLongerThanTheReductionInterval) {
  // 2^20 elements per block, 256 reduction intervals. All-ones words grow the
  // unreduced Fletcher sums fastest, so a wrap would show as a wrong residue.
  constexpr size_t kBlock = size_t{1} << 20;
  std::vector<double> ones(kBlock);
  const uint64_t all_ones = ~uint64_t{0};
  for (double& x : ones) std::memcpy(&x, &all_ones, sizeof(x));
  expect_same_fields(rt::block_checksum(ones), per_element_fold(ones), "all-ones");

  std::vector<double> data = adversarial(4 * kBlock + 3, 2024, /*finite=*/true);
  rt::BlockLedger ledger(data.size(), kBlock);
  ledger.update(data);
  ASSERT_EQ(ledger.num_blocks(), 5u);
  for (size_t b = 0; b < ledger.num_blocks(); ++b) {
    const auto r = ledger.range(b);
    const auto block_data = std::span<const double>(data).subspan(r.begin, r.end - r.begin);
    expect_same_fields(ledger.checksum(b), per_element_fold(block_data),
                       "long block " + std::to_string(b));
  }
  EXPECT_TRUE(ledger.verify(data).empty());
}

// ---- silent fault injection --------------------------------------------------

TEST(SilentFaults, FlipBitStaysFiniteAndMantissaOnly) {
  rt::FaultInjector inj(99);
  rt::FaultPolicy fire;
  fire.every = 1;
  inj.set_policy(rt::FaultKind::BitFlipDeviceArray, fire);
  std::vector<double> data = ramp(64);
  const std::vector<double> orig = data;
  for (int k = 0; k < 40; ++k) {
    // Real call sites consult first; the fired event advances the draw key,
    // so consecutive flips land on different (element, bit) pairs.
    ASSERT_TRUE(inj.should_fault(rt::FaultKind::BitFlipDeviceArray, "t"));
    const size_t idx = inj.flip_bit(data, rt::FaultKind::BitFlipDeviceArray, "t");
    ASSERT_LT(idx, data.size());
    EXPECT_TRUE(std::isfinite(data[idx]));
    uint64_t a, b;
    std::memcpy(&a, &data[idx], sizeof(a));
    std::memcpy(&b, &orig[idx], sizeof(b));
    // The exponent and sign bits are untouched, so the damage is silent by
    // construction: the value stays finite and plausibly scaled.
    EXPECT_EQ(a >> 52, b >> 52) << "iteration " << k;
  }
  EXPECT_NE(data, orig);
}

TEST(SilentFaults, FlipBitIsDeterministicInSeed) {
  rt::FaultPolicy fire;
  fire.every = 1;
  rt::FaultInjector a(1234), b(1234), c(4321);
  for (rt::FaultInjector* i : {&a, &b, &c}) i->set_policy(rt::FaultKind::BitFlipMessage, fire);
  std::vector<double> da = ramp(32), db = ramp(32), dc = ramp(32);
  for (int k = 0; k < 10; ++k) {
    a.should_fault(rt::FaultKind::BitFlipMessage, "s");
    b.should_fault(rt::FaultKind::BitFlipMessage, "s");
    c.should_fault(rt::FaultKind::BitFlipMessage, "s");
    EXPECT_EQ(a.flip_bit(da, rt::FaultKind::BitFlipMessage, "s"),
              b.flip_bit(db, rt::FaultKind::BitFlipMessage, "s"));
    c.flip_bit(dc, rt::FaultKind::BitFlipMessage, "s");
  }
  expect_bitwise_equal(da, db);
  EXPECT_NE(dc, da);  // different seed, different damage
}

TEST(SilentFaults, KindPredicates) {
  EXPECT_TRUE(rt::fault_is_silent(rt::FaultKind::BitFlipDeviceArray));
  EXPECT_TRUE(rt::fault_is_silent(rt::FaultKind::BitFlipMessage));
  EXPECT_TRUE(rt::fault_is_silent(rt::FaultKind::BitFlipReduction));
  EXPECT_FALSE(rt::fault_is_silent(rt::FaultKind::TransferCorruption));
  EXPECT_FALSE(rt::fault_is_permanent(rt::FaultKind::BitFlipMessage));
}

TEST(SilentFaults, TransmitSealsSidecarBeforeTheFlip) {
  rt::FaultInjector inj(7);
  rt::FaultPolicy p;
  p.every = 1;  // fire on every consultation
  inj.set_policy(rt::FaultKind::BitFlipMessage, p);

  rt::BspSimulator bsp(2);
  bsp.set_fault_injector(&inj);
  std::vector<double> payload = ramp(16);
  const std::vector<double> sent = payload;
  const rt::BlockChecksum sidecar = bsp.transmit(payload, "wire");
  EXPECT_EQ(bsp.silent_flips(), 1);
  EXPECT_NE(payload, sent);  // the wire flipped a bit...
  // ...but the sidecar describes the payload as sent, so the receiver catches
  // it, and a clean retransmission verifies.
  EXPECT_FALSE(rt::block_checksum(payload).matches(sidecar));
  EXPECT_TRUE(rt::block_checksum(sent).matches(sidecar));
}

// ---- codegen tier ------------------------------------------------------------

TEST(SdcCodegen, EvalAuditedFoldsEveryResult) {
  sym::EntityTable table;
  codegen::CompileEnv env;
  env.table = &table;
  const sym::Expr e = sym::simplify(sym::parse_expression("1 + 2 * 3", table));
  const codegen::Program p = codegen::compile(e, env);
  codegen::EvalContext ctx;
  rt::BlockChecksum audit;
  const double a = codegen::eval_audited(p, ctx, audit);
  EXPECT_DOUBLE_EQ(a, codegen::eval(p, ctx));
  EXPECT_EQ(audit.count, 1u);
  EXPECT_DOUBLE_EQ(audit.sum, 7.0);
  codegen::eval_audited(p, ctx, audit);
  EXPECT_EQ(audit.count, 2u);
}

TEST(SdcCodegen, TransferSidecarVerifiesOnReceipt) {
  codegen::MovementPlan::Transfer t;
  t.array = "I";
  std::vector<double> payload = ramp(40);
  t.seal(payload);
  EXPECT_TRUE(t.verify(payload));
  uint64_t bits;
  std::memcpy(&bits, &payload[9], sizeof(bits));
  bits ^= 1ULL << 30;
  std::memcpy(&payload[9], &bits, sizeof(bits));
  EXPECT_FALSE(t.verify(payload));
}

// ---- MultiGpuSolver: device-array flips --------------------------------------

TEST(SdcMultiGpu, FlipDetectedLocalizedRepairedBitExact) {
  const BteScenario s = scen();
  const int nsteps = 12;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(5);
  rt::FaultPolicy p;
  p.every = 3;  // a flip roughly every third device-step
  inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", p);

  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  opt.sdc.block_cells = 8;
  multi.enable_resilience(opt);
  multi.run(nsteps);

  const ResilienceStats& rs = multi.resilience_stats();
  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipDeviceArray)], 0);
  EXPECT_GT(rs.sdc_detections, 0);
  EXPECT_GT(rs.block_repairs, 0);
  // Every flip was healed in place: no repair failure, no checkpoint rollback.
  EXPECT_EQ(rs.repair_failures, 0);
  EXPECT_EQ(rs.rollbacks, 0);
  EXPECT_EQ(rs.max_detection_latency_steps, 1);
  EXPECT_GT(multi.phases().audit, 0.0);
  expect_bitwise_equal(multi.temperature(), serial.temperature());
  expect_bitwise_equal(multi.gather_intensity(), serial.intensity());
}

TEST(SdcMultiGpu, RepairFailureFallsBackToRollback) {
  const BteScenario s = scen();
  const int nsteps = 10;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(11);
  rt::FaultPolicy flip;
  flip.every = 1;
  flip.first_event = 2;
  flip.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", flip);
  rt::FaultPolicy again;  // the repaired block is hit again -> escalate
  again.every = 1;
  again.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "repair", again);

  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  multi.enable_resilience(opt);
  multi.run(nsteps);

  const ResilienceStats& rs = multi.resilience_stats();
  EXPECT_EQ(rs.repair_failures, 1);
  EXPECT_GE(rs.rollbacks, 1);  // the localized path gave up; replay healed it
  EXPECT_GT(rs.replayed_steps, 0);
  expect_bitwise_equal(multi.temperature(), serial.temperature());
  expect_bitwise_equal(multi.gather_intensity(), serial.intensity());
}

TEST(SdcMultiGpu, InjectionOffStaysBitIdenticalAndReportsAudit) {
  const BteScenario s = scen();
  const int nsteps = 8;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  MultiGpuSolver multi(s, phys(), 3);
  ResilienceOptions opt;  // no injector at all
  opt.sdc.enabled = true;
  multi.enable_resilience(opt);
  multi.run(nsteps);

  const ResilienceStats& rs = multi.resilience_stats();
  EXPECT_EQ(rs.sdc_detections, 0);
  EXPECT_EQ(rs.block_repairs, 0);
  EXPECT_GT(rs.sentinel_checks, 0);
  EXPECT_GT(rs.audit_seconds, 0.0);        // the defense's cost is visible...
  EXPECT_GT(multi.phases().audit, 0.0);    // ...in its own phase
  expect_bitwise_equal(multi.temperature(), serial.temperature());
  expect_bitwise_equal(multi.gather_intensity(), serial.intensity());
}

// ---- CellPartitionedSolver: halo-message flips -------------------------------

TEST(SdcCellPartitioned, HaloFlipDetectedRepairedBitExact) {
  const BteScenario s = scen();
  const int nsteps = 12;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(21);
  rt::FaultPolicy p;
  p.every = 4;  // several flipped halo messages over the run
  inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo", p);

  CellPartitionedSolver part(s, phys(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);

  const ResilienceStats& rs = part.resilience_stats();
  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipMessage)], 0);
  EXPECT_GT(rs.sdc_detections, 0);
  EXPECT_GT(rs.block_repairs, 0);
  EXPECT_EQ(rs.repair_failures, 0);
  EXPECT_EQ(rs.rollbacks, 0);
  EXPECT_EQ(rs.max_detection_latency_steps, 1);
  EXPECT_GT(part.phases().audit, 0.0);
  EXPECT_GT(rs.recovery_seconds, 0.0);  // re-pulled messages are priced
  expect_bitwise_equal(part.gather_temperature(), serial.temperature());
  expect_bitwise_equal(part.gather_intensity(), serial.intensity());
}

TEST(SdcCellPartitioned, RepairFailureFallsBackToRollback) {
  const BteScenario s = scen();
  const int nsteps = 10;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(33);
  rt::FaultPolicy flip;
  flip.every = 1;
  flip.first_event = 3;
  flip.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo", flip);
  rt::FaultPolicy again;
  again.every = 1;
  again.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo-repair", again);

  CellPartitionedSolver part(s, phys(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);

  const ResilienceStats& rs = part.resilience_stats();
  EXPECT_EQ(rs.repair_failures, 1);
  EXPECT_GE(rs.rollbacks, 1);
  expect_bitwise_equal(part.gather_temperature(), serial.temperature());
  expect_bitwise_equal(part.gather_intensity(), serial.intensity());
}

TEST(SdcCellPartitioned, InjectionOffStaysBitIdentical) {
  const BteScenario s = scen();
  const int nsteps = 8;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  CellPartitionedSolver part(s, phys(), 3);
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);

  EXPECT_EQ(part.resilience_stats().sdc_detections, 0);
  EXPECT_GT(part.resilience_stats().sentinel_checks, 0);
  EXPECT_GT(part.phases().audit, 0.0);
  expect_bitwise_equal(part.gather_temperature(), serial.temperature());
  expect_bitwise_equal(part.gather_intensity(), serial.intensity());
}

// ---- BandPartitionedSolver: reduction flips ----------------------------------

TEST(SdcBandPartitioned, ReductionFlipDetectedRepairedBitExact) {
  const BteScenario s = scen();
  const int nsteps = 12;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(8);
  rt::FaultPolicy p;
  p.every = 3;
  inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather", p);

  BandPartitionedSolver band(s, phys(), 3);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  opt.sdc.block_cells = 8;
  band.enable_resilience(opt);
  band.run(nsteps);

  const ResilienceStats& rs = band.resilience_stats();
  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipReduction)], 0);
  EXPECT_GT(rs.sdc_detections, 0);
  EXPECT_GT(rs.block_repairs, 0);
  EXPECT_EQ(rs.repair_failures, 0);
  EXPECT_EQ(rs.rollbacks, 0);
  EXPECT_EQ(rs.max_detection_latency_steps, 1);
  EXPECT_GT(band.phases().audit, 0.0);
  expect_bitwise_equal(band.temperature(), serial.temperature());
  expect_bitwise_equal(band.gather_intensity(), serial.intensity());
}

TEST(SdcBandPartitioned, RepairFailureFallsBackToRollback) {
  const BteScenario s = scen();
  const int nsteps = 10;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(17);
  rt::FaultPolicy flip;
  flip.every = 1;
  flip.first_event = 2;
  flip.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather", flip);
  rt::FaultPolicy again;
  again.every = 1;
  again.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather-repair", again);

  BandPartitionedSolver band(s, phys(), 3);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  band.enable_resilience(opt);
  band.run(nsteps);

  const ResilienceStats& rs = band.resilience_stats();
  EXPECT_EQ(rs.repair_failures, 1);
  EXPECT_GE(rs.rollbacks, 1);
  expect_bitwise_equal(band.temperature(), serial.temperature());
  expect_bitwise_equal(band.gather_intensity(), serial.intensity());
}

TEST(SdcBandPartitioned, InjectionOffStaysBitIdentical) {
  const BteScenario s = scen();
  const int nsteps = 8;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  BandPartitionedSolver band(s, phys(), 2);
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  band.enable_resilience(opt);
  band.run(nsteps);

  EXPECT_EQ(band.resilience_stats().sdc_detections, 0);
  EXPECT_GT(band.resilience_stats().sentinel_checks, 0);
  EXPECT_GT(band.phases().audit, 0.0);
  expect_bitwise_equal(band.temperature(), serial.temperature());
  expect_bitwise_equal(band.gather_intensity(), serial.intensity());
}

// ---- invariants --------------------------------------------------------------

TEST(SdcInvariants, EnergyTripwireQuietOnHealthyRun) {
  const BteScenario s = scen();
  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  multi.enable_resilience(opt);
  multi.run(10);
  // The explicit scheme's per-step energy change is far below the tolerance,
  // so a fault-free run records no violations.
  EXPECT_EQ(multi.resilience_stats().invariant_violations, 0);
}

TEST(SdcInvariants, SdcOffMatchesPlainGuardedRun) {
  // With sdc.enabled=false nothing about the guarded path changes: phases and
  // fields are bit-identical to a resilient run without the SDC knobs set.
  const BteScenario s = scen();
  MultiGpuSolver a(s, phys(), 2), b(s, phys(), 2);
  ResilienceOptions plain;
  a.enable_resilience(plain);
  ResilienceOptions off;
  off.sdc.enabled = false;
  b.enable_resilience(off);
  a.run(6);
  b.run(6);
  EXPECT_EQ(a.phases().communication, b.phases().communication);
  EXPECT_EQ(a.phases().audit, 0.0);
  EXPECT_EQ(b.phases().audit, 0.0);
  expect_bitwise_equal(a.temperature(), b.temperature());
}

TEST(SdcMultiGpu, ValidationProvesSlicesFiniteFromTheLedgerAndStillNamesANaN) {
  // With resilience armed (SDC audit or the plain transfer guard), validate()
  // takes a slice's finiteness from its ledger's Kahan block sums instead of
  // rescanning it. A NaN that reaches a slice through the sweep makes its
  // block's sum non-finite, so the full scan still runs and names the
  // element exactly as before.
  const BteScenario s = scen();
  const size_t cell = 27, band = 4, dir = 3;
  const int nd = phys()->num_dirs(), nb = phys()->num_bands();
  MultiGpuSolver probe(s, phys(), 2);
  rt::Snapshot poisoned = probe.snapshot();
  std::vector<double>& I0 = poisoned.fields[0].second;
  I0[cell * static_cast<size_t>(nd * nb) + dir + static_cast<size_t>(nd) * band] = std::nan("");

  // Where the NaN lands after one step: a plain (unarmed) step over the
  // same state, read back in the slice layout of the band's owner.
  MultiGpuSolver plain(s, phys(), 2);
  plain.restore(poisoned);
  plain.step();
  const std::vector<double> I1 = plain.gather_intensity();
  const int owner = static_cast<int>(band) >= nb / 2 ? 1 : 0;
  const int b_lo = owner == 0 ? 0 : nb / 2, bl = owner == 0 ? nb / 2 : nb - nb / 2;
  size_t first = static_cast<size_t>(-1);
  for (size_t c = 0; c * static_cast<size_t>(nd * nb) < I1.size() && first == size_t(-1); ++c)
    for (int lb = 0; lb < bl && first == size_t(-1); ++lb)
      for (int d = 0; d < nd; ++d)
        if (!std::isfinite(I1[c * static_cast<size_t>(nd * nb) + d + nd * (b_lo + lb)])) {
          first = (c * static_cast<size_t>(bl) + static_cast<size_t>(lb)) * nd + d;
          break;
        }
  ASSERT_NE(first, static_cast<size_t>(-1));

  for (const bool sdc : {true, false}) {
    MultiGpuSolver multi(s, phys(), 2);
    ResilienceOptions opt;
    opt.sdc.enabled = sdc;
    opt.max_rollbacks = 0;  // the first unhealthy step surfaces its detail
    multi.restore(poisoned);
    multi.enable_resilience(opt);
    try {
      multi.run(1);
      ADD_FAILURE() << "the NaN went unreported (sdc " << sdc << ")";
    } catch (const ResilienceError& e) {
      const std::string want =
          "rank " + std::to_string(owner) + " I[" + std::to_string(first) + "] non-finite";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
    EXPECT_FALSE(multi.last_health().finite_ok) << "sdc " << sdc;
  }
}
