// Resilience layer tests: deterministic fault injection, checksummed
// checkpoint round trips, and recovery (retry / rollback + replay) driving
// every distributed solver back to the fault-free DirectSolver answer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"

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

}  // namespace

// ---- fault injector ------------------------------------------------------

TEST(FaultInjector, SameSeedSameSequence) {
  rt::FaultPolicy p;
  p.probability = 0.2;
  rt::FaultInjector a(42), b(42);
  a.set_policy(rt::FaultKind::DroppedMessage, p);
  b.set_policy(rt::FaultKind::DroppedMessage, p);
  std::vector<bool> fa, fb;
  for (int i = 0; i < 200; ++i) fa.push_back(a.should_fault(rt::FaultKind::DroppedMessage, "x"));
  for (int i = 0; i < 200; ++i) fb.push_back(b.should_fault(rt::FaultKind::DroppedMessage, "x"));
  EXPECT_EQ(fa, fb);
  EXPECT_GT(a.stats().total_injected(), 0);
  EXPECT_EQ(a.stats().consulted[static_cast<int>(rt::FaultKind::DroppedMessage)], 200);
}

TEST(FaultInjector, SiteSequencesIndependentOfInterleaving) {
  rt::FaultPolicy p;
  p.probability = 0.3;
  rt::FaultInjector a(7), b(7);
  a.set_policy(rt::FaultKind::TransferCorruption, p);
  b.set_policy(rt::FaultKind::TransferCorruption, p);
  // a: all of site "h2d" first, then all of "d2h"; b: strictly interleaved.
  std::vector<bool> a_h2d, a_d2h, b_h2d, b_d2h;
  for (int i = 0; i < 50; ++i) a_h2d.push_back(a.should_fault(rt::FaultKind::TransferCorruption, "h2d"));
  for (int i = 0; i < 50; ++i) a_d2h.push_back(a.should_fault(rt::FaultKind::TransferCorruption, "d2h"));
  for (int i = 0; i < 50; ++i) {
    b_h2d.push_back(b.should_fault(rt::FaultKind::TransferCorruption, "h2d"));
    b_d2h.push_back(b.should_fault(rt::FaultKind::TransferCorruption, "d2h"));
  }
  EXPECT_EQ(a_h2d, b_h2d);
  EXPECT_EQ(a_d2h, b_d2h);
}

TEST(FaultInjector, ScheduledInjectionIsExact) {
  rt::FaultPolicy p;
  p.every = 4;
  p.first_event = 1;
  p.max_injections = 2;
  rt::FaultInjector inj(0);
  inj.set_site_policy(rt::FaultKind::KernelLaunchFailure, "k", p);
  std::vector<int> fired;
  for (int i = 0; i < 20; ++i)
    if (inj.should_fault(rt::FaultKind::KernelLaunchFailure, "k")) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{1, 5}));  // first_event, +every, capped at 2
  ASSERT_EQ(inj.events().size(), 2u);
  EXPECT_EQ(inj.events()[0].event_index, 1);
  EXPECT_EQ(inj.events()[1].event_index, 5);
}

TEST(FaultInjector, CorruptWritesNonFinite) {
  rt::FaultInjector inj(3);
  std::vector<double> data(64, 1.0);
  const size_t idx = inj.corrupt(data, "site");
  ASSERT_LT(idx, data.size());
  EXPECT_FALSE(std::isfinite(data[idx]));
  size_t bad = 0;
  EXPECT_FALSE(rt::all_finite(data, &bad));
  EXPECT_EQ(bad, idx);
}

// ---- checkpointing -------------------------------------------------------

TEST(Checkpoint, RoundTripIsBitExact) {
  rt::Snapshot snap;
  snap.step = 77;
  // Include bit patterns a lossy path would destroy: -0.0, denormals, huge.
  std::vector<double> tricky = {0.0, -0.0, 5e-324, 1.7976931348623157e308, -3.14159, 1e-300};
  std::vector<double> field(100);
  for (size_t i = 0; i < field.size(); ++i) field[i] = 1e-9 * static_cast<double>(i * i) - 3.0;
  snap.add("tricky", tricky);
  snap.add("field", field);
  const auto bytes = rt::serialize(snap);
  const rt::Snapshot back = rt::deserialize(bytes);
  EXPECT_EQ(back.step, 77);
  ASSERT_TRUE(back.has("tricky"));
  ASSERT_TRUE(back.has("field"));
  ASSERT_EQ(back.field("tricky").size(), tricky.size());
  EXPECT_EQ(std::memcmp(back.field("tricky").data(), tricky.data(), tricky.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(back.field("field").data(), field.data(), field.size() * sizeof(double)), 0);
}

TEST(Checkpoint, CorruptionAndTruncationAreDetected) {
  rt::Snapshot snap;
  snap.step = 1;
  std::vector<double> field(32, 2.5);
  snap.add("f", field);
  auto bytes = rt::serialize(snap);
  // Single flipped byte in the payload: checksum must catch it.
  auto flipped = bytes;
  flipped[flipped.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW(rt::deserialize(flipped), rt::CheckpointError);
  // Torn write: truncated image must not deserialize.
  auto torn = bytes;
  torn.resize(torn.size() - 9);
  EXPECT_THROW(rt::deserialize(torn), rt::CheckpointError);
  EXPECT_THROW(rt::deserialize({}), rt::CheckpointError);
  // The pristine image still restores.
  EXPECT_NO_THROW(rt::deserialize(bytes));
}

TEST(Checkpoint, FileBackendRoundTrips) {
  const std::string path = "resilience_test_checkpoint.bin";
  rt::Snapshot snap;
  snap.step = 9;
  std::vector<double> field = {1.0, -0.0, 42.5};
  snap.add("f", field);
  rt::CheckpointStore::write_file(path, snap);
  const rt::Snapshot back = rt::CheckpointStore::read_file(path);
  EXPECT_EQ(back.step, 9);
  EXPECT_EQ(std::memcmp(back.field("f").data(), field.data(), field.size() * sizeof(double)), 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, DiskWritesAreAtomicAgainstTornWrites) {
  const std::string path = "resilience_test_atomic.bin";
  rt::Snapshot snap;
  snap.step = 21;
  std::vector<double> field = {4.0, 5.0, 6.0};
  snap.add("f", field);
  rt::CheckpointStore::write_file(path, snap);

  // A committed write leaves no .tmp sibling behind.
  std::ifstream tmp_probe(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp_probe.good());

  // Simulate a crash mid-write of the *next* checkpoint: a torn .tmp sibling
  // appears, but the committed image at `path` is untouched and still loads.
  {
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn << "torn";
  }
  const rt::Snapshot back = rt::CheckpointStore::read_file(path);
  EXPECT_EQ(back.step, 21);
  EXPECT_EQ(back.field("f")[2], 6.0);

  // A torn image at the destination itself (no atomic rename) is the failure
  // mode the checksum catches: truncate the committed file and load must throw.
  {
    std::ofstream trunc(path, std::ios::binary | std::ios::trunc);
    trunc << "FCNK";  // a prefix of the magic, nothing more
  }
  EXPECT_THROW(rt::CheckpointStore::read_file(path), rt::CheckpointError);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

namespace {

// Patch helpers for the negative-path tests: overwrite a little-endian u64 at
// `off` and recompute the trailing FNV-1a so only the *targeted* defect (bad
// version, bogus count) is exercised — not the checksum that would otherwise
// mask it.
void put_u64_at(std::vector<std::byte>& bytes, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[off + static_cast<size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

void reseal(std::vector<std::byte>& bytes) {
  const uint64_t h =
      rt::fnv1a64(std::span<const std::byte>(bytes).subspan(0, bytes.size() - 8));
  put_u64_at(bytes, bytes.size() - 8, h);
}

std::string thrown_message(const std::vector<std::byte>& bytes) {
  try {
    rt::deserialize(bytes);
  } catch (const rt::CheckpointError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(Checkpoint, VersionMismatchIsRejected) {
  rt::Snapshot snap;
  snap.step = 4;
  std::vector<double> f = {1.0, 2.0};
  snap.add("f", f);
  auto bytes = rt::serialize(snap);
  // Image layout: magic @0, version @8. A future-versioned image must be
  // refused outright, not half-parsed.
  put_u64_at(bytes, 8, 999);
  reseal(bytes);
  EXPECT_NE(thrown_message(bytes).find("version"), std::string::npos);
}

TEST(Checkpoint, BogusFieldCountIsRejectedWithoutOverread) {
  rt::Snapshot snap;
  snap.step = 4;
  std::vector<double> f = {1.0, 2.0, 3.0};
  snap.add("f", f);
  auto bytes = rt::serialize(snap);
  // Element count of field 0 lives after magic/version/step/nfields (8*4)
  // plus name_len (8) + name ("f": 1 byte). A count chosen so count*8
  // overflows to something small must still be caught by the bound check.
  const size_t count_off = 8 * 4 + 8 + 1;
  auto huge = bytes;
  put_u64_at(huge, count_off, ~0ULL / 4);
  reseal(huge);
  EXPECT_NE(thrown_message(huge).find("truncated"), std::string::npos);
  // Same for a merely-too-large (non-overflowing) count: short read.
  auto shortread = bytes;
  put_u64_at(shortread, count_off, 1000);
  reseal(shortread);
  EXPECT_NE(thrown_message(shortread).find("truncated"), std::string::npos);
}

TEST(Checkpoint, TruncatedFileOnDiskIsRejected) {
  const std::string path = "resilience_test_truncated.bin";
  rt::Snapshot snap;
  snap.step = 12;
  std::vector<double> f(64, 1.25);
  snap.add("f", f);
  const auto bytes = rt::serialize(snap);
  // A file that lost its tail (crash before the last block hit the disk,
  // pre-fsync) must fail the load, whatever prefix survived.
  for (const size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{12}, size_t{0}}) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(keep));
    }
    EXPECT_THROW(rt::CheckpointStore::read_file(path), rt::CheckpointError) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

namespace {

// A small three-field snapshot shaped like the solvers' ("I"/"T"/"Io"), with
// per-field byte offsets derivable from the image layout: 32-byte header, then
// per field name_len(8) + name + count(8) + payload + field checksum(8).
rt::Snapshot three_field_snapshot() {
  rt::Snapshot snap;
  snap.step = 7;
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = {5.0, 6.0, 7.0, 8.0};
  std::vector<double> c = {9.0, 10.0, 11.0, 12.0};
  snap.add("I", a);
  snap.add("T", b);
  snap.add("Io", c);
  return snap;
}

}  // namespace

TEST(Checkpoint, TruncatedFileWithValidHeaderNamesTheDamagedField) {
  // The header and field 0 survive intact; the file lost its tail somewhere
  // inside field 1's payload (crash after the first fs block hit the disk).
  // The loader must localize the damage — "field 1 ('T')" — not report a bare
  // mismatch that reads like whole-image corruption.
  const std::string path = "resilience_test_valid_header_trunc.bin";
  const auto bytes = rt::serialize(three_field_snapshot());
  const size_t header = 8 * 4;
  const size_t field0 = 8 + 1 + 8 + 4 * sizeof(double) + 8;  // "I", 4 doubles
  const size_t keep = header + field0 + 8 + 1 + 8 + 2 * sizeof(double);  // mid-"T"
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(keep));
  }
  try {
    rt::CheckpointStore::read_file(path);
    FAIL() << "truncated image deserialized";
  } catch (const rt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("field 1 ('T')"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, PayloadCorruptionNamesTheBitFlippedField) {
  // One flipped byte inside field 2's payload, trailing checksum resealed (a
  // flip *before* serialization would be invisible; this models corruption of
  // the image at rest). The per-field checksum must name "field 2 ('Io')" —
  // the diagnosis that separates a bit flip from a lost tail in a post-mortem.
  auto bytes = rt::serialize(three_field_snapshot());
  const size_t header = 8 * 4;
  const size_t field0 = 8 + 1 + 8 + 4 * sizeof(double) + 8;
  const size_t field1 = 8 + 1 + 8 + 4 * sizeof(double) + 8;
  const size_t io_payload = header + field0 + field1 + 8 + 2 + 8;
  bytes[io_payload + 5] ^= std::byte{0x10};
  reseal(bytes);
  const std::string msg = thrown_message(bytes);
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("field 2 ('Io')"), std::string::npos) << msg;
  // Undamaged fields before the flip are unaffected: resealing alone loads.
  auto clean = rt::serialize(three_field_snapshot());
  reseal(clean);
  EXPECT_EQ(rt::deserialize(clean).field("Io")[3], 12.0);
}

TEST(Checkpoint, StoreMirrorsToDiskAtomically) {
  rt::CheckpointStore store(".");
  rt::Snapshot snap;
  snap.step = 3;
  std::vector<double> f = {1.5, 2.5};
  snap.add("f", f);
  store.save(snap);
  const rt::Snapshot back = rt::CheckpointStore::read_file("./checkpoint.bin");
  EXPECT_EQ(back.step, 3);
  EXPECT_EQ(back.field("f")[1], 2.5);
  std::ifstream tmp_probe("./checkpoint.bin.tmp", std::ios::binary);
  EXPECT_FALSE(tmp_probe.good());
  std::remove("./checkpoint.bin");
}

TEST(Resilience, BackoffIsCappedAtConfiguredCeiling) {
  ResilienceOptions opt;
  opt.backoff_base_s = 50e-6;
  opt.backoff_max_s = 300e-6;
  EXPECT_DOUBLE_EQ(backoff_delay(opt, 0), 50e-6);
  EXPECT_DOUBLE_EQ(backoff_delay(opt, 1), 100e-6);
  EXPECT_DOUBLE_EQ(backoff_delay(opt, 2), 200e-6);
  EXPECT_DOUBLE_EQ(backoff_delay(opt, 3), 300e-6);   // 400us clamped
  EXPECT_DOUBLE_EQ(backoff_delay(opt, 20), 300e-6);  // stays clamped
  opt.backoff_max_s = 0;                             // <= 0: uncapped
  EXPECT_DOUBLE_EQ(backoff_delay(opt, 6), 50e-6 * 64);
}

TEST(Checkpoint, StoreKeepsLatest) {
  rt::CheckpointStore store;
  EXPECT_FALSE(store.has_checkpoint());
  rt::Snapshot s1;
  s1.step = 4;
  std::vector<double> f = {1, 2, 3};
  s1.add("f", f);
  store.save(s1);
  rt::Snapshot s2;
  s2.step = 8;
  f = {9, 8, 7};
  s2.add("f", f);
  store.save(s2);
  EXPECT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.latest_step(), 8);
  EXPECT_EQ(store.saves(), 2);
  EXPECT_EQ(store.load_latest().field("f")[0], 9.0);
}

namespace {

// The v2 writer as it stood before the one-pass serializer: byte push_backs
// and two separate FNV-1a passes. Kept here to pin the image byte for byte.
void legacy_put_u64(std::vector<std::byte>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

uint64_t legacy_fnv1a64(std::span<const std::byte> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::byte> legacy_serialize(const rt::Snapshot& snap) {
  std::vector<std::byte> out;
  legacy_put_u64(out, 0x46434e4b50543031ULL);
  legacy_put_u64(out, 2);
  legacy_put_u64(out, static_cast<uint64_t>(snap.step));
  legacy_put_u64(out, static_cast<uint64_t>(snap.fields.size()));
  for (const auto& [name, data] : snap.fields) {
    legacy_put_u64(out, static_cast<uint64_t>(name.size()));
    for (char c : name) out.push_back(static_cast<std::byte>(c));
    legacy_put_u64(out, static_cast<uint64_t>(data.size()));
    const auto raw = std::as_bytes(std::span<const double>(data));
    out.insert(out.end(), raw.begin(), raw.end());
    legacy_put_u64(out, legacy_fnv1a64(raw));
  }
  legacy_put_u64(out, legacy_fnv1a64(out));
  return out;
}

// Several fields of different sizes, an empty field and an empty name, and
// bit patterns a lossy path would destroy; the values depend on `step`.
rt::Snapshot pin_snapshot(int64_t step) {
  rt::Snapshot snap;
  snap.step = step;
  std::vector<double> I(3000);
  for (size_t i = 0; i < I.size(); ++i)
    I[i] = std::sin(0.001 * static_cast<double>(i) + static_cast<double>(step)) * 1e-3;
  I[7] = -0.0;
  I[8] = std::numeric_limits<double>::quiet_NaN();
  I[9] = std::numeric_limits<double>::infinity();
  I[10] = 5e-324;
  snap.add("I", I);
  snap.add("T", std::vector<double>{300.0 + static_cast<double>(step), 301.5, -1.0});
  snap.add("empty", std::vector<double>{});
  snap.add("", std::vector<double>{1.0, 2.0});
  snap.add("Io", std::vector<double>(17, 0.25 * static_cast<double>(step)));
  return snap;
}

}  // namespace

TEST(Checkpoint, SerializeIsByteIdenticalToTheLegacyWriter) {
  for (int64_t step : {0, 8, -3}) {
    const rt::Snapshot snap = pin_snapshot(step);
    const std::vector<std::byte> want = legacy_serialize(snap);
    EXPECT_EQ(rt::serialize(snap), want) << "step " << step;
    // Writing into a reused buffer, larger or smaller, gives the same bytes.
    std::vector<std::byte> reused(want.size() + 100, std::byte{0xab});
    rt::serialize(snap, reused);
    EXPECT_EQ(reused, want) << "step " << step;
    reused.assign(5, std::byte{0xcd});
    rt::serialize(snap, reused);
    EXPECT_EQ(reused, want) << "step " << step;
    EXPECT_EQ(rt::deserialize(want).step, step);
  }
}

TEST(Checkpoint, StoreReusesImageBuffersAcrossSaves) {
  const std::string dir = "resilience_test_store_reuse";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  rt::CheckpointStore store(dir, 2);
  for (int64_t step : {10, 20, 30}) store.save(pin_snapshot(step));
  ASSERT_EQ(store.generations(), 2);
  EXPECT_EQ(store.load(0).step, 30);
  EXPECT_EQ(store.load(1).step, 20);
  EXPECT_EQ(store.image_copy(0), legacy_serialize(pin_snapshot(30)));
  EXPECT_EQ(store.image_copy(1), legacy_serialize(pin_snapshot(20)));

  // The reliefs still free the in-memory images and report their capacity;
  // the generations stay readable from their files.
  const int64_t image_bytes = store.bytes_stored();
  EXPECT_GE(store.drop_previous_generation(), image_bytes);
  EXPECT_EQ(store.load(1).step, 20);
  EXPECT_GE(store.spill(), image_bytes);
  EXPECT_EQ(store.spill(), 0);
  EXPECT_EQ(store.load(0).step, 30);

  store.save(pin_snapshot(40));
  EXPECT_EQ(store.load(0).step, 40);
  EXPECT_EQ(store.load(1).step, 30);
  EXPECT_EQ(store.image_copy(0), legacy_serialize(pin_snapshot(40)));
  std::filesystem::remove_all(dir);
}

// ---- recovery: solvers under injected faults ----------------------------

TEST(Resilience, ZeroFaultsStaysBitIdenticalWithZeroOverhead) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  serial.run(12);

  MultiGpuSolver plain(s, phys(), 2);
  plain.run(12);

  MultiGpuSolver guarded(s, phys(), 2);
  guarded.enable_resilience(ResilienceOptions{});  // no injector: guards only
  guarded.run(12);

  expect_bitwise_equal(serial.intensity(), guarded.gather_intensity());
  expect_bitwise_equal(serial.temperature(), guarded.temperature());
  // Modeled (deterministic) phase times are unchanged by the armed guards.
  EXPECT_EQ(plain.phases().communication, guarded.phases().communication);
  EXPECT_EQ(guarded.phases().recovery, 0.0);
  EXPECT_EQ(guarded.resilience_stats().rollbacks, 0);
  EXPECT_EQ(guarded.resilience_stats().retries, 0);
  EXPECT_GT(guarded.resilience_stats().checkpoints, 0);
  EXPECT_EQ(guarded.resilience_stats().validations, 12);
}

TEST(Resilience, MultiGpuRetriesLaunchFailuresAndMatches) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  serial.run(12);

  rt::FaultInjector inj(1234);
  rt::FaultPolicy p;
  p.probability = 0.15;
  inj.set_policy(rt::FaultKind::KernelLaunchFailure, p);

  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  multi.enable_resilience(opt);
  multi.run(12);

  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::KernelLaunchFailure)], 0);
  EXPECT_GT(multi.resilience_stats().retries, 0);
  EXPECT_GT(multi.phases().recovery, 0.0);
  expect_bitwise_equal(serial.intensity(), multi.gather_intensity());
  expect_bitwise_equal(serial.temperature(), multi.temperature());
}

TEST(Resilience, MultiGpuTransferCorruptionRollsBackAndMatches) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  serial.run(12);

  rt::FaultInjector inj(77);
  rt::FaultPolicy p;
  p.probability = 0.08;
  inj.set_policy(rt::FaultKind::TransferCorruption, p);

  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.max_retries = 0;  // no transfer re-drive: force the rollback path
  opt.checkpoint.interval = 4;
  multi.enable_resilience(opt);
  multi.run(12);

  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::TransferCorruption)], 0);
  EXPECT_GT(multi.resilience_stats().rollbacks, 0);
  EXPECT_GT(multi.resilience_stats().replayed_steps, 0);
  expect_bitwise_equal(serial.intensity(), multi.gather_intensity());
  expect_bitwise_equal(serial.temperature(), multi.temperature());
}

TEST(Resilience, CellPartitionedRecoversFromDropsAndCorruption) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  serial.run(12);

  rt::FaultInjector inj(99);
  rt::FaultPolicy drops;
  drops.probability = 0.10;
  inj.set_policy(rt::FaultKind::DroppedMessage, drops);
  rt::FaultPolicy corrupt;
  corrupt.probability = 0.04;
  inj.set_policy(rt::FaultKind::TransferCorruption, corrupt);

  CellPartitionedSolver part(s, phys(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  part.enable_resilience(opt);
  part.run(12);

  EXPECT_GT(inj.stats().total_injected(), 0);
  const auto& rs = part.resilience_stats();
  EXPECT_GT(rs.retries + rs.rollbacks, 0);
  expect_bitwise_equal(serial.intensity(), part.gather_intensity());
  expect_bitwise_equal(serial.temperature(), part.gather_temperature());
  // Recovery cost landed in the virtual phase breakdown as fault stall.
  if (rs.retries > 0) {
    EXPECT_GT(part.phases().fault_stall, 0.0);
  }
}

TEST(Resilience, BandPartitionedRecoversFromGatherCorruption) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  serial.run(12);

  rt::FaultInjector inj(2024);
  rt::FaultPolicy p;
  p.every = 7;  // deterministic: every 7th gather contribution is corrupted
  p.first_event = 3;
  p.max_injections = 3;
  inj.set_policy(rt::FaultKind::TransferCorruption, p);

  BandPartitionedSolver part(s, phys(), 3);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  part.enable_resilience(opt);
  part.run(12);

  EXPECT_EQ(inj.stats().injected[static_cast<int>(rt::FaultKind::TransferCorruption)], 3);
  EXPECT_GT(part.resilience_stats().rollbacks, 0);
  EXPECT_GT(part.resilience_stats().replayed_steps, 0);
  expect_bitwise_equal(serial.intensity(), part.gather_intensity());
  expect_bitwise_equal(serial.temperature(), part.temperature());
}

TEST(Resilience, ExhaustedRollbackBudgetThrows) {
  BteScenario s = scen();
  rt::FaultInjector inj(5);
  rt::FaultPolicy p;
  p.every = 1;  // every gather contribution corrupted: unrecoverable
  inj.set_policy(rt::FaultKind::TransferCorruption, p);

  BandPartitionedSolver part(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.max_rollbacks = 3;
  part.enable_resilience(opt);
  EXPECT_THROW(part.run(6), ResilienceError);
}
