#pragma once
// The modeled compute costs behind the distributed strategies' virtual clocks.
//
// The cell, band and multi-GPU strategies charge every compute segment to
// their virtual clocks (the BSP simulator, the multi-GPU phase ledger) as
// counted work times a fixed per-unit cost: DOFs swept, DOFs reduced into
// band sums, cells Newton-solved, cell-bands whose Io/beta are refreshed,
// and bytes folded into ABFT checksums. The PAPER.md substitution table
// allows SimMpi compute segments to be "measured-or-modeled"; modeling them
// makes the virtual clock a function of the work alone, so two runs of one
// seeded solve charge the same virtual seconds whatever the host load and
// however many threads run the ranks. Wall time stays in the trace spans and
// the performance ledger.
//
// The costs below are model inputs. Each was measured once, on the
// perfledger's partitioned-resilient scenario (48x48 cells, 20 directions,
// 55 bands = 1100 DOF/cell) on a 4-core Xeon (GCC 12, Release), as the best
// of 7 single-thread passes of the named routine, except where a ledger
// metric is named. No option or environment variable sets them, and no run
// measures them.

#include <cstdint>

namespace finch::bte::cost {

// One DOF of upwind_sweep (relaxation plus the four upwind faces): 6.1 ns
// per DOF, over one band slice of every cell.
inline constexpr double kSweepPerDof = 6.1e-9;
// One DOF folded into a band sum G_b = sum_d w_d I_db (BandSlices::reduce):
// 1.07 ns per DOF.
inline constexpr double kBandSumPerDof = 1.07e-9;
// One safeguarded Newton temperature solve: the ledger's
// bte.newton_us_per_call, 0.54 us (seed 7).
inline constexpr double kNewtonPerCell = 0.54e-6;
// One band's Io and beta table lookups at a cell's new temperature: 6.1 ns.
inline constexpr double kMomentsPerCellBand = 6.1e-9;
// One byte folded into an ABFT signature (rt::BlockLedger update or
// verify, four blocks in lockstep): 0.12 ns per byte.
inline constexpr double kAuditPerByte = 0.12e-9;

inline double sweep_seconds(int64_t dofs) { return static_cast<double>(dofs) * kSweepPerDof; }

inline double band_sum_seconds(int64_t dofs) {
  return static_cast<double>(dofs) * kBandSumPerDof;
}

// Temperature update of `cells` cells: `summed_dofs` DOFs folded into band
// sums, one Newton solve per cell, and `cell_bands` Io/beta refreshes.
inline double temperature_seconds(int64_t cells, int64_t cell_bands, int64_t summed_dofs) {
  return static_cast<double>(cells) * kNewtonPerCell +
         static_cast<double>(cell_bands) * kMomentsPerCellBand + band_sum_seconds(summed_dofs);
}

inline double audit_seconds(int64_t bytes) { return static_cast<double>(bytes) * kAuditPerByte; }

}  // namespace finch::bte::cost
