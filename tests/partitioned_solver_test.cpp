// Distributed-execution tests: the cell-partitioned and band-partitioned
// solvers (real per-rank storage, real halo exchange / band gather) must be
// bit-identical to the serial hand-written solver for any partition count —
// the executable counterpart of Fig. 3's two communication patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <ostream>
#include <random>
#include <vector>

#include "bte/direct_solver.hpp"
#include "bte/distributed_solver.hpp"
#include "bte/partitioned_solver.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

std::shared_ptr<const BtePhysics> phys() {
  static auto p = std::make_shared<const BtePhysics>(6, 8);
  return p;
}

BteScenario scen() {
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

// One bit-identity input: `parts` partitions of an nx x ny grid, where
// nx = 0 means scen()'s grid. The default grid prints as the bare part count;
// a strip grid, on which one cell is both walls of an axis, as
// "<nx>x<ny>_<parts>".
struct Case {
  int parts;
  int nx = 0, ny = 0;
};

void PrintTo(const Case& c, std::ostream* os) {
  if (c.nx > 0) *os << c.nx << "x" << c.ny << "_";
  *os << c.parts;
}

BteScenario scen(const Case& c) {
  BteScenario s = scen();
  if (c.nx > 0) {
    s.nx = c.nx;
    s.ny = c.ny;
  }
  return s;
}

}  // namespace

class CellParts : public ::testing::TestWithParam<Case> {};

TEST_P(CellParts, BitIdenticalToSerial) {
  const int nparts = GetParam().parts;
  BteScenario s = scen(GetParam());
  DirectSolver serial(s, phys());
  CellPartitionedSolver dist(s, phys(), nparts);
  const int steps = 15;
  serial.run(steps);
  dist.run(steps);

  const auto& a = serial.intensity();
  const auto b = dist.gather_intensity();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "dof " << i;

  const auto& Ta = serial.temperature();
  const auto Tb = dist.gather_temperature();
  for (size_t i = 0; i < Ta.size(); ++i) ASSERT_EQ(Ta[i], Tb[i]) << "cell " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, CellParts,
                         ::testing::Values(Case{1}, Case{2}, Case{3}, Case{4}, Case{6}));
INSTANTIATE_TEST_SUITE_P(StripGrids, CellParts,
                         ::testing::Values(Case{2, 1, 6}, Case{3, 6, 1}, Case{3, 2, 5}));

class BandParts : public ::testing::TestWithParam<Case> {};

TEST_P(BandParts, BitIdenticalToSerial) {
  const int nparts = GetParam().parts;
  BteScenario s = scen(GetParam());
  DirectSolver serial(s, phys());
  BandPartitionedSolver dist(s, phys(), nparts);
  const int steps = 15;
  serial.run(steps);
  dist.run(steps);

  const auto& a = serial.intensity();
  const auto b = dist.gather_intensity();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "dof " << i;
  for (size_t i = 0; i < serial.temperature().size(); ++i)
    ASSERT_EQ(serial.temperature()[i], dist.temperature()[i]) << "cell " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, BandParts,
                         ::testing::Values(Case{1}, Case{2}, Case{4}, Case{8}));
INSTANTIATE_TEST_SUITE_P(StripGrids, BandParts,
                         ::testing::Values(Case{2, 1, 6}, Case{3, 6, 1}, Case{4, 2, 5}));

TEST(PartitionedComm, CellCommVolumeMatchesHalo) {
  BteScenario s = scen();
  CellPartitionedSolver dist(s, phys(), 4);
  // Per step every rank receives its full halo: bytes = sum over ranks of
  // ghosts * dofs * 8. Run a few steps and check the accounting.
  const int steps = 5;
  dist.run(steps);
  EXPECT_GT(dist.comm().bytes_per_step, 0);
  EXPECT_EQ(dist.comm().total_bytes, dist.comm().bytes_per_step * steps);
  EXPECT_GE(dist.comm().messages_per_step, 4);  // each rank has >= 1 neighbor
}

TEST(PartitionedComm, BandCommIsIndependentOfPartCount) {
  // "When partitioning among the bands the boundary communication can be
  // avoided": only the temperature-update gather moves data, whose volume is
  // a function of cells x bands, not of the partition count.
  BteScenario s = scen();
  BandPartitionedSolver d2(s, phys(), 2), d4(s, phys(), 4);
  EXPECT_EQ(d2.comm().bytes_per_step, d4.comm().bytes_per_step);
}

TEST(PartitionedComm, CellCommGrowsWithParts_BandStaysFlat) {
  // Fig. 3: cell partitioning needs neighbor exchange that grows with the
  // number of interfaces; equation partitioning does not.
  BteScenario s = scen();
  CellPartitionedSolver c2(s, phys(), 2), c6(s, phys(), 6);
  EXPECT_GT(c6.comm().bytes_per_step, c2.comm().bytes_per_step);
  BandPartitionedSolver b2(s, phys(), 2), b6(s, phys(), 6);
  EXPECT_EQ(b2.comm().bytes_per_step, b6.comm().bytes_per_step);
}

TEST(PartitionedErrors, RejectsBadPartCounts) {
  BteScenario s = scen();
  EXPECT_THROW(CellPartitionedSolver(s, phys(), 0), std::invalid_argument);
  EXPECT_THROW(BandPartitionedSolver(s, phys(), 0), std::invalid_argument);
  EXPECT_THROW(BandPartitionedSolver(s, phys(), 1000), std::invalid_argument);
}

TEST(PartitionedComm, GreedyGraphMethodAlsoExact) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  CellPartitionedSolver dist(s, phys(), 3, mesh::PartitionMethod::GreedyGraph);
  serial.run(8);
  dist.run(8);
  const auto& a = serial.intensity();
  const auto b = dist.gather_intensity();
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// The shared upwind kernel's subset contract, which the SDC sentinels and the
// block repair rely on: sweeping any subset of cells, in any order, writes
// exactly the full sweep's bits for those cells and leaves every other
// output entry untouched. Checked on the default grid and the strip grids,
// over a band sub-range and non-equilibrium sources.
TEST(UpwindSweep, SubsetWritesExactlyTheFullSweepBitsOfItsCells) {
  const int b_lo = 1, b_hi = 4;
  const size_t nd = static_cast<size_t>(phys()->num_dirs());
  const size_t row = static_cast<size_t>(b_hi - b_lo) * nd;  // DOFs per cell
  const double fill = -3.25;
  const auto identity = [](int32_t c) { return c; };
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> u(0.5, 1.5);
  for (const Case grid : {Case{0}, Case{0, 1, 6}, Case{0, 6, 1}, Case{0, 2, 5}}) {
    const BteScenario s = scen(grid);
    const size_t ncell = static_cast<size_t>(s.nx * s.ny);
    std::vector<double> I(ncell * row), Io(ncell * row / nd), beta(Io.size());
    for (double& x : I) x = 1e-3 * u(rng);
    for (double& x : Io) x = 1e-3 * u(rng);
    for (double& x : beta) x = 1e10 * u(rng);
    std::vector<int32_t> all(ncell);
    std::iota(all.begin(), all.end(), 0);
    std::vector<double> full(I.size(), fill);
    upwind_sweep(s, *phys(), b_lo, b_hi, all, identity, I, Io, beta, full);
    for (double x : full) ASSERT_NE(x, fill) << "the full sweep writes every entry";

    for (int trial = 0; trial < 6; ++trial) {
      std::vector<int32_t> subset;
      for (int32_t c : all)
        if (rng() % 3 == 0) subset.push_back(c);
      std::shuffle(subset.begin(), subset.end(), rng);
      std::vector<bool> swept(ncell, false);
      for (int32_t c : subset) swept[static_cast<size_t>(c)] = true;
      std::vector<double> out(I.size(), fill);
      upwind_sweep(s, *phys(), b_lo, b_hi, subset, identity, I, Io, beta, out);
      for (size_t k = 0; k < out.size(); ++k) {
        const double& want = swept[k / row] ? full[k] : fill;
        ASSERT_EQ(std::memcmp(&out[k], &want, sizeof(double)), 0)
            << s.nx << "x" << s.ny << " cell " << k / row << (swept[k / row] ? " swept" : "");
      }
    }
  }
}

// The cell map only relabels storage: a rank-local layout (here a reversed
// cell order) sweeps to the same bits as the identity layout, cell by cell.
TEST(UpwindSweep, LocalIndexMapOnlyRelabelsStorage) {
  const BteScenario s = scen();
  const int nb = phys()->num_bands();
  const size_t row = static_cast<size_t>(nb * phys()->num_dirs());
  const size_t ncell = static_cast<size_t>(s.nx * s.ny);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.5, 1.5);
  std::vector<double> I(ncell * row), Io(ncell * static_cast<size_t>(nb)), beta(Io.size());
  for (double& x : I) x = 1e-3 * u(rng);
  for (double& x : Io) x = 1e-3 * u(rng);
  for (double& x : beta) x = 1e10 * u(rng);
  std::vector<int32_t> all(ncell);
  std::iota(all.begin(), all.end(), 0);
  std::vector<double> full(I.size());
  upwind_sweep(s, *phys(), 0, nb, all, [](int32_t c) { return c; }, I, Io, beta, full);

  const auto local = [ncell](int32_t c) { return static_cast<int32_t>(ncell) - 1 - c; };
  auto relabel = [&](const std::vector<double>& v) {
    const size_t n = v.size() / ncell;
    std::vector<double> r(v.size());
    for (int32_t c : all)
      std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(static_cast<size_t>(c) * n), n,
                  r.begin() + static_cast<std::ptrdiff_t>(static_cast<size_t>(local(c)) * n));
    return r;
  };
  std::vector<double> out(I.size());
  upwind_sweep(s, *phys(), 0, nb, all, local, relabel(I), relabel(Io), relabel(beta), out);
  const std::vector<double> want = relabel(full);
  ASSERT_EQ(std::memcmp(out.data(), want.data(), out.size() * sizeof(double)), 0);
}
