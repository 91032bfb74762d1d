#include "partitioned_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>

#include "cost_model.hpp"
#include "runtime/trace.hpp"

namespace finch::bte {

// ---- CellPartitionedSolver ---------------------------------------------------

CellPartitionedSolver::CellPartitionedSolver(const BteScenario& scenario,
                                             std::shared_ptr<const BtePhysics> physics, int nparts,
                                             mesh::PartitionMethod method)
    : DistributedSolver(scenario, std::move(physics), nparts,
                        {"cell", rt::FaultKind::RankFailure, "cell-rank", "rank"}),
      mesh_(mesh::Mesh::structured_quad(scenario.nx, scenario.ny, scenario.lx, scenario.ly)),
      method_(method) {
  if (nparts < 1) throw std::invalid_argument("CellPartitionedSolver: nparts >= 1");
  dofs_ = nd_ * nb_;
  rebuild(nparts);
}

// Used by the constructor and again — with fewer parts — when a rank is
// evicted or drained; the driver then restores a snapshot over this state.
void CellPartitionedSolver::rebuild(int nparts) {
  nparts_ = nparts;
  part_ = mesh::partition(mesh_, nparts, method_);
  ranks_.assign(static_cast<size_t>(nparts), Rank{});
  halo_messages_.clear();
  comm_.bytes_per_step = 0;
  comm_.messages_per_step = 0;

  for (int32_t p = 0; p < nparts; ++p) {
    Rank& r = ranks_[static_cast<size_t>(p)];
    r.global_to_local.assign(static_cast<size_t>(mesh_.num_cells()), -1);
    for (int32_t c = 0; c < mesh_.num_cells(); ++c)
      if (part_[static_cast<size_t>(c)] == p) {
        r.global_to_local[static_cast<size_t>(c)] = static_cast<int32_t>(r.owned.size());
        r.owned.push_back(c);
      }
    r.halo = mesh::build_halo(mesh_, part_, p);
    for (const auto& recv : r.halo.recvs)
      for (int32_t c : recv.cells) {
        r.global_to_local[static_cast<size_t>(c)] =
            static_cast<int32_t>(r.owned.size() + r.ghosts.size());
        r.ghosts.push_back(c);
      }
    const size_t nloc = r.owned.size() + r.ghosts.size();
    r.I.resize(nloc * static_cast<size_t>(dofs_));
    r.I_new.resize(r.owned.size() * static_cast<size_t>(dofs_));
    r.Io.resize(r.owned.size() * static_cast<size_t>(nb_));
    r.beta.resize(r.owned.size() * static_cast<size_t>(nb_));
    r.T.assign(r.owned.size(), scen_.T_init);

    for (int b = 0; b < nb_; ++b) {
      const double i0 = phys_->table.I0(b, scen_.T_init);
      const double be = phys_->table.beta(b, scen_.T_init);
      for (size_t lc = 0; lc < nloc; ++lc)
        for (int d = 0; d < nd_; ++d) r.I[lc * static_cast<size_t>(dofs_) + static_cast<size_t>(d + nd_ * b)] = i0;
      for (size_t lc = 0; lc < r.owned.size(); ++lc) {
        r.Io[lc * static_cast<size_t>(nb_) + static_cast<size_t>(b)] = i0;
        r.beta[lc * static_cast<size_t>(nb_) + static_cast<size_t>(b)] = be;
      }
    }
  }
  // Per-step communication volume: every halo cell's full DOF vector.
  for (int32_t p = 0; p < nparts; ++p) {
    const Rank& r = ranks_[static_cast<size_t>(p)];
    comm_.bytes_per_step += static_cast<int64_t>(r.ghosts.size()) * dofs_ * 8;
    comm_.messages_per_step += static_cast<int64_t>(r.halo.recvs.size());
    for (const auto& recv : r.halo.recvs)
      halo_messages_.push_back({recv.peer, p, static_cast<int64_t>(recv.cells.size()) * dofs_ * 8});
  }
}

void CellPartitionedSolver::relayout_away(int32_t victim) {
  bsp_.retire_rank(victim);
  rebuild(nparts_ - 1);
}

void CellPartitionedSolver::copy_ghosts(Rank& r, const Rank& peer,
                                        const std::vector<int32_t>& cells) {
  for (int32_t gc : cells) {
    const int32_t src = peer.global_to_local[static_cast<size_t>(gc)];
    const int32_t dst = r.global_to_local[static_cast<size_t>(gc)];
    for (int k = 0; k < dofs_; ++k)
      r.I[static_cast<size_t>(dst) * dofs_ + static_cast<size_t>(k)] =
          peer.I[static_cast<size_t>(src) * dofs_ + static_cast<size_t>(k)];
  }
}

void CellPartitionedSolver::exchange_halos() {
  // Pull model: each rank copies the owned values it needs from the peer
  // ranks (in a real MPI code this is the send/recv pair of the halo plan).
  rt::FaultInjector* fi = resilient_ ? res_.injector : nullptr;
  for (Rank& r : ranks_) {
    for (const auto& recv : r.halo.recvs) {
      const Rank& peer = ranks_[static_cast<size_t>(recv.peer)];
      // An undelivered message leaves stale ghosts that would silently
      // poison the sweep; deliver() has marked the step unhealthy, so run()
      // rolls back and replays.
      if (fi != nullptr && !deliver(*fi, "halo", "halo message")) continue;
      copy_ghosts(r, peer, recv.cells);
      if (sdc_armed() && !recv.cells.empty()) {
        // ABFT sidecar: the sender checksums the payload before it goes on
        // the wire; the receiver verifies on receipt. The ghost cells of one
        // recv are contiguous local indices (appended in recv order by
        // rebuild), so the delivered message is one span of r.I.
        const size_t base =
            static_cast<size_t>(r.global_to_local[static_cast<size_t>(recv.cells[0])]) *
            static_cast<size_t>(dofs_);
        const size_t len = recv.cells.size() * static_cast<size_t>(dofs_);
        std::span<double> ghost(r.I.data() + base, len);
        const rt::BlockChecksum sidecar = rt::block_checksum(ghost);
        if (fi != nullptr && fi->should_fault(rt::FaultKind::BitFlipMessage, "halo"))
          fi->flip_bit(ghost, rt::FaultKind::BitFlipMessage, "halo");
        // Sidecar plus verification on receipt; a repair verifies once more.
        int64_t folded = 2 * static_cast<int64_t>(len) * 8;
        if (!rt::block_checksum(ghost).matches(sidecar)) {
          folded += static_cast<int64_t>(len) * 8;
          note_sdc_detection();
          // Localized repair: re-pull just this message from the peer's
          // (intact) owned values, priced as one extra message.
          recover(bsp_.comm_model().per_message(static_cast<int64_t>(len) * 8));
          copy_ghosts(r, peer, recv.cells);
          // A repair that fails too (the retransmission is hit as well)
          // exhausts the localized path: fall back to rollback + replay.
          if (fi != nullptr && fi->should_fault(rt::FaultKind::BitFlipMessage, "halo-repair"))
            fi->flip_bit(ghost, rt::FaultKind::BitFlipMessage, "halo-repair");
          if (rt::block_checksum(ghost).matches(sidecar)) {
            rstats_.block_repairs += 1;
          } else {
            rstats_.repair_failures += 1;
            health_.sdc_ok = false;
            health_.detail = "halo message checksum failed twice; falling back to rollback";
          }
        }
        charge_audit(cost::audit_seconds(folded));
      }
      if (fi != nullptr && !recv.cells.empty() &&
          fi->should_fault(rt::FaultKind::TransferCorruption, "halo")) {
        // In-flight corruption of this message's payload: lands in the ghost
        // region, where the next sweep drags it into owned state. The per-step
        // NaN/Inf validation catches it and triggers rollback + replay.
        const size_t base =
            static_cast<size_t>(r.global_to_local[static_cast<size_t>(recv.cells[0])]) *
            static_cast<size_t>(dofs_);
        fi->corrupt(std::span<double>(r.I).subspan(base, static_cast<size_t>(dofs_)), "halo");
      }
    }
  }
  comm_.total_bytes += comm_.bytes_per_step;
  bsp_.exchange(halo_messages_);
}

void CellPartitionedSolver::temperature_rank(Rank& r) {
  r.g.resize(static_cast<size_t>(nb_));
  for (size_t lo = 0; lo < r.owned.size(); ++lo) {
    for (int b = 0; b < nb_; ++b)
      r.g[static_cast<size_t>(b)] =
          BandSlices::band_sum(*phys_, r.I, lo * static_cast<size_t>(nb_) + static_cast<size_t>(b));
    const double Tc = phys_->table.solve_temperature(r.g, r.T[lo]);
    r.T[lo] = Tc;
    for (int b = 0; b < nb_; ++b) {
      r.Io[lo * static_cast<size_t>(nb_) + static_cast<size_t>(b)] = phys_->table.I0(b, Tc);
      r.beta[lo * static_cast<size_t>(nb_) + static_cast<size_t>(b)] = phys_->table.beta(b, Tc);
    }
  }
}

void CellPartitionedSolver::step() {
  // Wall-clock span (pid 0); the virtual-time phase spans (pid 1) are emitted
  // by bsp_ as each superstep is charged.
  rt::SpanAttrs attrs;
  attrs.step = step_index_;
  rt::TraceSpan step_span("cell.step", attrs);
  exchange_halos();
  std::vector<double> rank_seconds(static_cast<size_t>(nparts_));
  {
    rt::TraceSpan sweep_span("cell.sweep", attrs);
    for_each_rank(ranks_.size(), [this](size_t p) {
      Rank& r = ranks_[p];
      upwind_sweep(scen_, *phys_, 0, nb_, r.owned, r.local(), r.I, r.Io, r.beta, r.I_new);
    });
  }
  for (size_t p = 0; p < ranks_.size(); ++p)
    rank_seconds[p] = cost::sweep_seconds(static_cast<int64_t>(ranks_[p].owned.size()) * dofs_);
  arm_speculation_if_chronic([&](int32_t v) { return rank_seconds[static_cast<size_t>(v)]; });
  bsp_.compute_step(rank_seconds, rt::BspSimulator::Phase::Compute);
  if (sdc_armed()) audit_sentinels();
  {
    rt::TraceSpan temp_span("cell.temperature", attrs);
    for_each_rank(ranks_.size(), [this](size_t p) {
      // Commit owned values, the leading [owned * dofs] of I; ghosts refresh
      // at the next exchange.
      Rank& r = ranks_[p];
      std::copy(r.I_new.begin(), r.I_new.end(), r.I.begin());
      temperature_rank(r);
    });
  }
  for (size_t p = 0; p < ranks_.size(); ++p) {
    const auto owned = static_cast<int64_t>(ranks_[p].owned.size());
    rank_seconds[p] = cost::temperature_seconds(owned, owned * nb_, owned * dofs_);
  }
  bsp_.compute_step(rank_seconds, rt::BspSimulator::Phase::PostProcess);
}

// Only rebuildable scratch: the sentinel recompute target is resized before
// every audit.
int64_t CellPartitionedSolver::shrink_scratch() {
  const int64_t freed = static_cast<int64_t>(sentinel_scratch_.capacity() * sizeof(double));
  sentinel_scratch_.clear();
  sentinel_scratch_.shrink_to_fit();
  return freed;
}

// ---- silent-data-corruption defense (cell partitioning) ---------------------

// Redundant recomputation of a few spread-out cells: each sentinel's sweep
// result is recomputed from the same sources and compared bit-for-bit against
// I_new before the commit, catching corruption that lands in freshly computed
// state — an audit channel independent of the message checksums.
void CellPartitionedSolver::audit_sentinels() {
  int64_t recomputed = 0;
  const std::vector<int32_t>& sentinels = sentinel_cells();
  for (Rank& r : ranks_) {
    sentinel_subset_.clear();
    for (int32_t gc : sentinels) {
      const int32_t lo = r.global_to_local[static_cast<size_t>(gc)];
      if (lo >= 0 && static_cast<size_t>(lo) < r.owned.size()) sentinel_subset_.push_back(gc);
    }
    if (sentinel_subset_.empty()) continue;
    sentinel_scratch_.resize(r.I_new.size());
    upwind_sweep(scen_, *phys_, 0, nb_, sentinel_subset_, r.local(), r.I, r.Io, r.beta,
                 sentinel_scratch_);
    recomputed += static_cast<int64_t>(sentinel_subset_.size()) * dofs_;
    for (int32_t gc : sentinel_subset_) {
      rstats_.sentinel_checks += 1;
      const size_t off = static_cast<size_t>(r.global_to_local[static_cast<size_t>(gc)]) *
                         static_cast<size_t>(dofs_);
      if (std::memcmp(sentinel_scratch_.data() + off, r.I_new.data() + off,
                      static_cast<size_t>(dofs_) * sizeof(double)) != 0) {
        note_sdc_detection();
        // The redundant recompute is itself the repair: adopt its result.
        std::copy_n(sentinel_scratch_.data() + off, static_cast<size_t>(dofs_),
                    r.I_new.data() + off);
        rstats_.block_repairs += 1;
      }
    }
  }
  charge_audit(cost::sweep_seconds(recomputed));
}

void CellPartitionedSolver::validate() {
  rstats_.validations += 1;
  // With SDC armed, each rank's energy pass doubles as its owned cells'
  // finiteness scan: a NaN or Inf element makes a Kahan sum non-finite for
  // good, so a finite energy proves every owned value finite and only the
  // ghosts are left to scan. Otherwise (or on a non-finite energy) the full
  // scans run, and they name the offending entry.
  std::vector<double> energy(ranks_.size(), std::nan(""));
  if (sdc_armed()) {
    for_each_rank(ranks_.size(), [&](size_t p) {
      rt::KahanSum e;
      const size_t owned_len = ranks_[p].owned.size() * static_cast<size_t>(dofs_);
      for (size_t i = 0; i < owned_len; ++i) e.add(ranks_[p].I[i]);
      energy[p] = e.sum;
    });
    rt::KahanSum e;
    for (double ep : energy) e.add(ep);
    check_energy_drift(e.sum);
  }
  std::vector<FieldScan> scans;
  for (size_t p = 0; p < ranks_.size(); ++p) {
    const Rank& r = ranks_[p];
    const int rank = static_cast<int>(p);
    const size_t skip = std::isfinite(energy[p]) ? r.owned.size() * static_cast<size_t>(dofs_) : 0;
    scans.push_back({std::span<const double>(r.I).subspan(skip), skip, rank, "I"});
    scans.push_back({r.T, 0, rank, "T"});
  }
  scan_finite(scans);
}

void CellPartitionedSolver::gather_moments(std::vector<double>& Io,
                                           std::vector<double>& beta) const {
  for (const Rank& r : ranks_)
    for (size_t lo = 0; lo < r.owned.size(); ++lo) {
      const size_t gc = static_cast<size_t>(r.owned[lo]);
      for (int b = 0; b < nb_; ++b) {
        Io[gc * static_cast<size_t>(nb_) + static_cast<size_t>(b)] =
            r.Io[lo * static_cast<size_t>(nb_) + static_cast<size_t>(b)];
        beta[gc * static_cast<size_t>(nb_) + static_cast<size_t>(b)] =
            r.beta[lo * static_cast<size_t>(nb_) + static_cast<size_t>(b)];
      }
    }
}

void CellPartitionedSolver::scatter(const std::vector<double>& I, const std::vector<double>& T,
                                    const std::vector<double>& Io,
                                    const std::vector<double>& beta) {
  for (Rank& r : ranks_) {
    // Owned cells take state from the global image; ghosts take the owner's
    // values too (the first exchange of the next step would refresh them to
    // exactly these values anyway).
    auto scatter_cell = [&](size_t lc, size_t gc) {
      for (int k = 0; k < dofs_; ++k)
        r.I[lc * static_cast<size_t>(dofs_) + static_cast<size_t>(k)] =
            I[gc * static_cast<size_t>(dofs_) + static_cast<size_t>(k)];
    };
    for (size_t lo = 0; lo < r.owned.size(); ++lo) {
      const size_t gc = static_cast<size_t>(r.owned[lo]);
      scatter_cell(lo, gc);
      r.T[lo] = T[gc];
      for (int b = 0; b < nb_; ++b) {
        r.Io[lo * static_cast<size_t>(nb_) + static_cast<size_t>(b)] =
            Io[gc * static_cast<size_t>(nb_) + static_cast<size_t>(b)];
        r.beta[lo * static_cast<size_t>(nb_) + static_cast<size_t>(b)] =
            beta[gc * static_cast<size_t>(nb_) + static_cast<size_t>(b)];
      }
    }
    for (size_t gi = 0; gi < r.ghosts.size(); ++gi)
      scatter_cell(r.owned.size() + gi, static_cast<size_t>(r.ghosts[gi]));
  }
}

std::vector<int32_t> CellPartitionedSolver::owner_counts() const {
  std::vector<int32_t> counts(static_cast<size_t>(mesh_.num_cells()), 0);
  for (const Rank& r : ranks_)
    for (int32_t c : r.owned) counts[static_cast<size_t>(c)] += 1;
  return counts;
}

void CellPartitionedSolver::gather_intensity_into(std::vector<double>& I) const {
  const size_t dofs = static_cast<size_t>(dofs_);
  for (const Rank& r : ranks_)
    for (size_t lo = 0; lo < r.owned.size(); ++lo)
      std::copy_n(r.I.begin() + static_cast<std::ptrdiff_t>(lo * dofs), dofs,
                  I.begin() + static_cast<std::ptrdiff_t>(static_cast<size_t>(r.owned[lo]) * dofs));
}

std::vector<double> CellPartitionedSolver::gather_temperature() const {
  std::vector<double> out(static_cast<size_t>(mesh_.num_cells()));
  for (const Rank& r : ranks_)
    for (size_t lo = 0; lo < r.owned.size(); ++lo) out[static_cast<size_t>(r.owned[lo])] = r.T[lo];
  return out;
}

// ---- BandPartitionedSolver -----------------------------------------------------

BandPartitionedSolver::BandPartitionedSolver(const BteScenario& scenario,
                                             std::shared_ptr<const BtePhysics> physics, int nparts)
    : DistributedSolver(scenario, std::move(physics), nparts,
                        {"band", rt::FaultKind::RankFailure, "band-rank", "rank"}),
      slices_(*phys_, scenario.nx * scenario.ny) {
  if (nparts < 1) throw std::invalid_argument("BandPartitionedSolver: nparts >= 1");
  if (nparts > nb_) throw std::invalid_argument("BandPartitionedSolver: more parts than bands");
  const int ncell = scen_.nx * scen_.ny;
  cells_.resize(static_cast<size_t>(ncell));
  std::iota(cells_.begin(), cells_.end(), 0);
  T_.assign(static_cast<size_t>(ncell), scen_.T_init);
  G_global_.resize(static_cast<size_t>(ncell) * nb_);
  rebuild(nparts);
}

// Rebuilds per-rank storage for explicit contiguous band ranges; rebuild
// applies the equal split, the weighted rebalance a derated one. The driver
// restores state afterwards.
void BandPartitionedSolver::relayout(const BandSlices::Ranges& ranges) {
  nparts_ = static_cast<int>(ranges.size());
  slices_.assign(ranges, scen_.T_init);
  wire_.assign(ranges.size(), Wire{});
  // Per step: each rank contributes its slice of the per-cell, per-band sums
  // (allgather over ranks) before the temperature solve.
  comm_.bytes_per_step = static_cast<int64_t>(cells_.size()) * nb_ * 8;
  comm_.messages_per_step = nparts_;
}

void BandPartitionedSolver::relayout_away(int32_t victim) {
  relayout(slices_.weighted_split(nparts_, victim, bsp_.straggler().slowdown(victim)));
  // Old per-rank timing history does not describe the new shares.
  bsp_.straggler().resize(nparts_);
}

void BandPartitionedSolver::pack_rank(size_t p) {
  // One rank's contribution to the allgather of per-cell band sums (the only
  // cross-rank coupling): pack the slice into a contiguous payload — what a
  // real MPI_Allgatherv would put on the wire.
  const BandSlices::Slice& r = slices_[p];
  Wire& w = wire_[p];
  const size_t bl = static_cast<size_t>(r.bands());
  w.payload.resize(cells_.size() * bl);
  slices_.reduce(r, 0, w.payload.size(), w.payload);
  if (sdc_armed()) {
    // Checksum the contribution before it goes on the wire; blocks align to
    // whole cells (cell-major payload) so a bad block maps to a cell range.
    const size_t block = static_cast<size_t>(std::max(1, res_.sdc.block_cells)) * bl;
    if (w.gledger.size() != w.payload.size() || w.gledger.block_size() != block)
      w.gledger = rt::BlockLedger(w.payload.size(), block);
    w.gledger.update(w.payload);
  }
}

void BandPartitionedSolver::deliver_rank(size_t p) {
  const BandSlices::Slice& r = slices_[p];
  Wire& w = wire_[p];
  std::vector<double>& payload = w.payload;
  const auto payload_bytes = static_cast<int64_t>(payload.size()) * 8;
  const bool sdc = sdc_armed();
  if (sdc) charge_audit(cost::audit_seconds(payload_bytes));  // pack_rank's ledger update

  rt::FaultInjector* fi = resilient_ ? res_.injector : nullptr;
  if (fi != nullptr) {
    // An undelivered contribution leaves last step's (stale, finite) sums in
    // G_global_ — invisible to the NaN scan, hence deliver()'s health flag.
    if (!deliver(*fi, "gather", "gather contribution")) return;
    if (fi->should_fault(rt::FaultKind::TransferCorruption, "gather"))
      fi->corrupt(payload, "gather");
    if (sdc && fi->should_fault(rt::FaultKind::BitFlipReduction, "gather"))
      fi->flip_bit(payload, rt::FaultKind::BitFlipReduction, "gather");
  }

  if (sdc) {
    // Verify the in-flight contribution against the sender's ledger; a bad
    // block is re-reduced from the slice (the reduction's intact inputs, with
    // the same weights in the same order, so the repair is bit-identical to
    // an uncorrupted pack) instead of rolling the whole run back.
    double audit = cost::audit_seconds(payload_bytes);
    for (size_t blk : w.gledger.verify(payload)) {
      note_sdc_detection();
      const auto range = w.gledger.range(blk);
      slices_.reduce(r, range.begin, range.end, payload);
      const auto len = static_cast<int64_t>(range.end - range.begin);
      audit += cost::band_sum_seconds(len * nd_) + cost::audit_seconds(len * 8);
      if (fi != nullptr && fi->should_fault(rt::FaultKind::BitFlipReduction, "gather-repair"))
        fi->flip_bit(std::span<double>(payload).subspan(range.begin, range.end - range.begin),
                     rt::FaultKind::BitFlipReduction, "gather-repair");
      if (rt::block_checksum(std::span<const double>(payload)
                                 .subspan(range.begin, range.end - range.begin))
              .matches(w.gledger.checksum(blk))) {
        rstats_.block_repairs += 1;
      } else {
        rstats_.repair_failures += 1;
        health_.sdc_ok = false;
        health_.detail = "gather block " + std::to_string(blk) +
                         " checksum failed twice; falling back to rollback";
      }
    }
    charge_audit(audit);
  }

  slices_.scatter_sums(r, payload, G_global_);
}

void BandPartitionedSolver::step() {
  // Wall-clock span (pid 0); the virtual-time phase spans (pid 1) are emitted
  // by bsp_ as each superstep is charged.
  rt::SpanAttrs attrs;
  attrs.step = step_index_;
  rt::TraceSpan step_span("band.step", attrs);
  std::vector<double> rank_seconds(static_cast<size_t>(nparts_));
  {
    rt::TraceSpan sweep_span("band.sweep", attrs);
    for_each_rank(slices_.size(), [this](size_t p) {
      BandSlices::Slice& r = slices_[p];
      upwind_sweep(scen_, *phys_, r.b_lo, r.b_hi, cells_, std::identity{}, r.I, r.Io, r.beta,
                   r.I_new);
      r.I.swap(r.I_new);
    });
  }
  for (size_t p = 0; p < slices_.size(); ++p)
    rank_seconds[p] = cost::sweep_seconds(static_cast<int64_t>(cells_.size()) *
                                          slices_[p].bands() * nd_);
  arm_speculation_if_chronic([&](int32_t v) { return rank_seconds[static_cast<size_t>(v)]; });
  bsp_.compute_step(rank_seconds, rt::BspSimulator::Phase::Compute);

  {
    rt::TraceSpan gather_span("band.gather", attrs);
    for_each_rank(slices_.size(), [this](size_t p) { pack_rank(p); });
    for (size_t p = 0; p < slices_.size(); ++p) deliver_rank(p);
  }
  comm_.total_bytes += comm_.bytes_per_step;
  bsp_.gather(comm_.bytes_per_step / (nparts_ > 0 ? nparts_ : 1));
  if (sdc_armed()) audit_sentinels();

  // Every rank solves the (replicated) temperature and refreshes its own
  // bands' Io/beta — executed once here, over cell chunks, since the result
  // is identical.
  rt::TraceSpan temp_span("band.temperature", attrs);
  for_each_chunk(cells_.size(), [this](size_t begin, size_t end) {
    slices_.update_temperature(G_global_, T_, begin, end);
  });
  const auto ncell = static_cast<int64_t>(cells_.size());
  bsp_.uniform_compute(cost::temperature_seconds(ncell, ncell * nb_, 0),
                       rt::BspSimulator::Phase::PostProcess);
}

// Only rebuildable scratch: the gather payload buffers are resized before
// every gather.
int64_t BandPartitionedSolver::shrink_scratch() {
  int64_t freed = 0;
  for (Wire& w : wire_) {
    freed += static_cast<int64_t>(w.payload.capacity() * sizeof(double));
    w.payload.clear();
    w.payload.shrink_to_fit();
  }
  return freed;
}

// ---- silent-data-corruption defense (band partitioning) ---------------------

// Cross-rank redundancy on the gathered sums: a few spread-out cells' full G
// rows are re-reduced from every owner rank's intensities and compared
// bit-for-bit against G_global_ before the temperature solve — this audits
// the scatter as well as the wire, independently of the per-rank ledgers.
void BandPartitionedSolver::audit_sentinels() {
  int64_t reduced = 0;
  for (int32_t c : sentinel_cells()) {
    rstats_.sentinel_checks += 1;
    reduced += static_cast<int64_t>(nb_) * nd_;
    for (const BandSlices::Slice& r : slices_) {
      const size_t bl = static_cast<size_t>(r.bands());
      for (int b = r.b_lo; b < r.b_hi; ++b) {
        const double g =
            slices_.band_sum(r, static_cast<size_t>(c) * bl + static_cast<size_t>(b - r.b_lo));
        double& dst = G_global_[static_cast<size_t>(c) * nb_ + static_cast<size_t>(b)];
        if (std::memcmp(&g, &dst, sizeof(double)) != 0) {
          note_sdc_detection();
          // The re-reduction is the repair: adopt the redundant result.
          dst = g;
          rstats_.block_repairs += 1;
        }
      }
    }
  }
  charge_audit(cost::band_sum_seconds(reduced));
}

void BandPartitionedSolver::validate() {
  rstats_.validations += 1;
  if (sdc_armed()) {
    // Energy-balance tripwire over the gathered band sums.
    rt::KahanSum e;
    for (double g : G_global_) e.add(g);
    check_energy_drift(e.sum);
  }
  std::vector<FieldScan> scans;
  for (size_t p = 0; p < slices_.size(); ++p)
    scans.push_back({slices_[p].I, 0, static_cast<int>(p), "I"});
  // solve_temperature's bisection fallback returns a finite T even for NaN
  // band sums, so the gathered sums must be scanned directly.
  scans.push_back({G_global_, 0, -1, "G"});
  scans.push_back({T_, 0, -1, "T"});
  scan_finite(scans);
}

void BandPartitionedSolver::scatter(const std::vector<double>& I, const std::vector<double>& T,
                                    const std::vector<double>& Io,
                                    const std::vector<double>& beta) {
  T_ = T;
  slices_.scatter(I, Io, beta);
}

}  // namespace finch::bte
