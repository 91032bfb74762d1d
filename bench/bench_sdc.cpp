// SDC-defense bench: detection latency, audit overhead vs ABFT block size,
// and the cost of localized block repair vs checkpoint rollback.
//
// Three experiments over the distributed solvers with silent bit flips
// injected at their natural sites (device arrays, halo messages, reduction
// contributions):
//   1. audit overhead vs block size, injection off — the price of the defense
//      alone, charged to the dedicated `audit` phase — next to the modeled
//      recovery cost of repairing one seeded device-array flip at that size;
//   2. detection + repair under flips, per solver — every flip must be caught
//      within one step, localized, healed in place, and the final fields must
//      match the fault-free serial run bit-for-bit;
//   3. repair vs rollback — the same fault sequence once with working
//      localized repair and once with the repair path sabotaged (the "same
//      block fails twice" escalation), comparing replayed work.
#include <memory>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "fig_common.hpp"
#include "runtime/fault.hpp"

using namespace finch;
using namespace finch::bte;
using bench::bitwise_equal;
using bench::small_scenario;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("SDC", "silent-corruption defense: detection, audit cost, repair vs rollback");
  bench::JsonBench json = bench::bench_json("bench_sdc", args);

  const BteScenario s = small_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 24;

  DirectSolver serial(s, phys);
  serial.run(nsteps);
  const auto& truth_T = serial.temperature();
  const auto truth_I = serial.intensity();

  // ---- 1. audit overhead vs block size (injection off) ----------------------
  // The audit folds the same bytes whatever the block size, so its cost is
  // flat; what the block size buys is the repair. The last column reruns the
  // row with one seeded BitFlipDeviceArray (the same flip in every row) and
  // reports its modeled recovery: the flipped block's recompute and re-audit.
  std::printf("\naudit overhead vs ABFT block size (multi-GPU, no injection; one flip for repair)\n");
  std::printf("%-12s %12s %12s %10s %10s %12s\n", "block-cells", "audit(ms)", "total(ms)", "audit-%",
              "exact", "repair(us)");
  bool off_exact = true;
  double audit_off = -1.0;
  {
    MultiGpuSolver plain(s, phys, 2);
    ResilienceOptions opt;  // sdc disabled: the defense must cost nothing
    plain.enable_resilience(opt);
    plain.run(nsteps);
    audit_off = plain.phases().audit;
    off_exact = off_exact && bitwise_equal(plain.temperature(), truth_T);
    std::printf("%-12s %12.4f %12.4f %9.1f%% %10s %12s\n", "off", audit_off * 1e3,
                plain.phases().total() * 1e3, 0.0, off_exact ? "yes" : "NO", "-");
  }
  bool repair_exact = true, repair_grows = true;
  double prev_repair = 0.0;
  for (const int block_cells : {4, 16, 64}) {
    MultiGpuSolver multi(s, phys, 2);
    ResilienceOptions opt;
    opt.sdc.enabled = true;
    opt.sdc.block_cells = block_cells;
    multi.enable_resilience(opt);
    multi.run(nsteps);
    const double audit = multi.phases().audit;
    const double total = multi.phases().total();
    const bool exact = bitwise_equal(multi.temperature(), truth_T) &&
                       bitwise_equal(multi.gather_intensity(), truth_I);
    off_exact = off_exact && exact;

    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy flip;
    flip.every = 1;
    flip.first_event = 6;
    flip.max_injections = 1;
    inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", flip);
    MultiGpuSolver flipped(s, phys, 2);
    opt.injector = &inj;
    flipped.enable_resilience(opt);
    flipped.run(nsteps);
    const ResilienceStats& rs = flipped.resilience_stats();
    const double repair = rs.recovery_seconds;
    repair_exact = repair_exact && rs.block_repairs == 1 && rs.rollbacks == 0 &&
                   bitwise_equal(flipped.temperature(), truth_T) &&
                   bitwise_equal(flipped.gather_intensity(), truth_I);
    repair_grows = repair_grows && repair > prev_repair;
    prev_repair = repair;

    std::printf("%-12d %12.4f %12.4f %9.1f%% %10s %12.2f\n", block_cells, audit * 1e3, total * 1e3,
                100.0 * audit / total, exact ? "yes" : "NO", repair * 1e6);
    json.begin_row();
    json.cell("experiment", 1);
    json.cell("block_cells", block_cells);
    json.cell("audit_s", audit);
    json.cell("total_s", total);
    json.cell("bit_exact", exact ? 1.0 : 0.0);
    json.cell("repair_s", repair);
  }

  // ---- 2. detection + localized repair under flips, per solver --------------
  std::printf("\ndetection and localized repair under silent flips\n");
  std::printf("%-12s %8s %10s %8s %9s %11s %8s\n", "solver", "flips", "detected", "repairs",
              "rollbacks", "latency(st)", "exact");
  bool flip_exact = true, latency_bounded = true, no_rollbacks = true;

  auto report = [&](const char* name, int64_t flips, const ResilienceStats& rs, bool exact,
                    int experiment) {
    flip_exact = flip_exact && exact && rs.sdc_detections > 0;
    latency_bounded = latency_bounded && rs.max_detection_latency_steps <= 1;
    no_rollbacks = no_rollbacks && rs.rollbacks == 0;
    std::printf("%-12s %8lld %10lld %8lld %9lld %11lld %8s\n", name,
                static_cast<long long>(flips), static_cast<long long>(rs.sdc_detections),
                static_cast<long long>(rs.block_repairs), static_cast<long long>(rs.rollbacks),
                static_cast<long long>(rs.max_detection_latency_steps), exact ? "yes" : "NO");
    json.begin_row();
    json.cell("experiment", experiment);
    json.cell("solver", name == std::string("multi-gpu") ? 0 : (name == std::string("cell") ? 1 : 2));
    json.cell("flips", static_cast<double>(flips));
    json.cell("detections", static_cast<double>(rs.sdc_detections));
    json.cell("repairs", static_cast<double>(rs.block_repairs));
    json.cell("rollbacks", static_cast<double>(rs.rollbacks));
    json.cell("replayed_steps", static_cast<double>(rs.replayed_steps));
    json.cell("max_latency_steps", static_cast<double>(rs.max_detection_latency_steps));
    json.cell("audit_s", rs.audit_seconds);
    json.cell("recovery_s", rs.recovery_seconds);
    json.cell("bit_exact", exact ? 1.0 : 0.0);
  };

  {
    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy p;
    p.every = 5;
    inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", p);
    MultiGpuSolver multi(s, phys, 2);
    ResilienceOptions opt;
    opt.injector = &inj;
    opt.sdc.enabled = true;
    multi.enable_resilience(opt);
    multi.run(nsteps);
    report("multi-gpu",
           inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipDeviceArray)],
           multi.resilience_stats(),
           bitwise_equal(multi.temperature(), truth_T) &&
               bitwise_equal(multi.gather_intensity(), truth_I),
           2);
  }
  {
    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy p;
    p.every = 7;
    inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo", p);
    CellPartitionedSolver part(s, phys, 4);
    ResilienceOptions opt;
    opt.injector = &inj;
    opt.sdc.enabled = true;
    part.enable_resilience(opt);
    part.run(nsteps);
    report("cell", inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipMessage)],
           part.resilience_stats(),
           bitwise_equal(part.gather_temperature(), truth_T) &&
               bitwise_equal(part.gather_intensity(), truth_I),
           2);
  }
  {
    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy p;
    p.every = 5;
    inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather", p);
    BandPartitionedSolver band(s, phys, 4);
    ResilienceOptions opt;
    opt.injector = &inj;
    opt.sdc.enabled = true;
    band.enable_resilience(opt);
    band.run(nsteps);
    report("band", inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipReduction)],
           band.resilience_stats(),
           bitwise_equal(band.temperature(), truth_T) &&
               bitwise_equal(band.gather_intensity(), truth_I),
           2);
  }

  // ---- 3. localized repair vs checkpoint rollback ---------------------------
  // Same flip schedule twice: (a) repair works; (b) the repair path itself is
  // hit (the "same block fails twice" case), forcing checkpoint rollback.
  std::printf("\nlocalized repair vs rollback fallback (multi-GPU, same flip schedule)\n");
  std::printf("%-10s %10s %9s %9s %10s\n", "mode", "repairs", "rollbacks", "replayed", "exact");
  int64_t replay_repair = -1, replay_rollback = -1;
  bool esc_exact = true;
  for (const bool sabotage : {false, true}) {
    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy flip;
    flip.every = 1;
    flip.first_event = 6;
    flip.max_injections = 2;
    inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", flip);
    if (sabotage) {
      rt::FaultPolicy again;
      again.every = 1;
      again.max_injections = 2;
      inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "repair", again);
    }
    MultiGpuSolver multi(s, phys, 2);
    ResilienceOptions opt;
    opt.injector = &inj;
    opt.checkpoint.interval = 6;
    opt.sdc.enabled = true;
    multi.enable_resilience(opt);
    multi.run(nsteps);
    const ResilienceStats& rs = multi.resilience_stats();
    const bool exact = bitwise_equal(multi.temperature(), truth_T) &&
                       bitwise_equal(multi.gather_intensity(), truth_I);
    esc_exact = esc_exact && exact;
    (sabotage ? replay_rollback : replay_repair) = rs.replayed_steps;
    std::printf("%-10s %10lld %9lld %9lld %10s\n", sabotage ? "rollback" : "repair",
                static_cast<long long>(rs.block_repairs), static_cast<long long>(rs.rollbacks),
                static_cast<long long>(rs.replayed_steps), exact ? "yes" : "NO");
    json.begin_row();
    json.cell("experiment", 3);
    json.cell("sabotaged", sabotage ? 1.0 : 0.0);
    json.cell("repairs", static_cast<double>(rs.block_repairs));
    json.cell("repair_failures", static_cast<double>(rs.repair_failures));
    json.cell("rollbacks", static_cast<double>(rs.rollbacks));
    json.cell("replayed_steps", static_cast<double>(rs.replayed_steps));
    json.cell("bit_exact", exact ? 1.0 : 0.0);
  }

  std::printf("\n");
  bench::check(audit_off == 0.0 && off_exact,
               "defense off: zero audit time; on: still bit-exact with audit charged to its own phase");
  bench::check(repair_exact && repair_grows,
               "one seeded flip is repaired in place and exactly, at a modeled cost that grows "
               "with the block size");
  bench::check(flip_exact, "every flipped run is detected and lands on the fault-free answer bit-for-bit");
  bench::check(latency_bounded, "detection latency is bounded by one step at every solver");
  bench::check(no_rollbacks, "localized repair heals flips without any checkpoint rollback");
  bench::check(replay_repair == 0 && replay_rollback > 0 && esc_exact,
               "repair replays nothing; the twice-failed-block fallback replays steps — and both stay exact");

  return bench::finish_bench(json, args);
}
