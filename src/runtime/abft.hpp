#pragma once
// Algorithm-based fault tolerance (ABFT) checksums for silent-data-corruption
// defense.
//
// A bit flip that lands in a device-resident field or an in-flight message
// produces a *finite*, plausible, wrong value — invisible to the NaN/Inf
// guards that catch loud transfer corruption. The defense here is classic
// ABFT: every guarded array is covered by per-block checksums that are cheap
// to maintain incrementally and cheap to verify, so a flip is (a) detected
// within one step and (b) localized to one block, which the solver can then
// recompute from the previous state instead of rolling the whole run back.
//
// Two independent signatures are kept per block:
//   * a Fletcher-64-style position-sensitive checksum over the raw bit
//     patterns (two 32-bit lanes per double), which catches any single-bit
//     flip and almost all multi-bit ones, and
//   * a Kahan-compensated sum of the values, the classic ABFT "column sum"
//     that doubles as the input to physics invariants (energy balance).
// Equality of both — the Fletcher lanes bitwise and the sum by bit pattern —
// defines "clean". Everything is integer or bit-pattern based, so verification
// is exact: no tolerance tuning, no false accepts.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace finch::rt {

// Kahan (compensated) summation: the running sum stays deterministic and
// far more accurate than naive accumulation, so the ABFT sum can double as
// an energy-balance invariant without drowning in roundoff.
struct KahanSum {
  double sum = 0.0;
  double comp = 0.0;

  void add(double x) {
    const double y = x - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
};

// Signature of one block: Fletcher-64 lanes over the doubles' bit patterns
// plus the Kahan value-sum. Comparison is exact (bit patterns, not values),
// so -0.0 vs 0.0 or a quiet flip in a low mantissa bit cannot slip through.
// fold() is the incremental, per-element definition; block_checksum and
// BlockLedger compute the same fields bit for bit, faster (see abft.cpp).
// One exception: once two different NaN payloads meet in the Kahan sum, IEEE
// 754 leaves open which one the sum carries, so a NaN sum's bits are only
// reproducible along one code path. The Fletcher lanes see every bit.
struct BlockChecksum {
  uint64_t lo = 0;  // Fletcher lane: running sum of 32-bit words
  uint64_t hi = 0;  // Fletcher lane: running sum of running sums
  double sum = 0.0;
  double comp = 0.0;
  uint64_t count = 0;

  void fold(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    lo = (lo + (bits & 0xffffffffULL)) % 0xffffffffULL;
    hi = (hi + lo) % 0xffffffffULL;
    lo = (lo + (bits >> 32)) % 0xffffffffULL;
    hi = (hi + lo) % 0xffffffffULL;
    const double y = v - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
    ++count;
  }

  bool matches(const BlockChecksum& other) const {
    if (lo != other.lo || hi != other.hi || count != other.count) return false;
    uint64_t a, b;
    std::memcpy(&a, &sum, sizeof(a));
    std::memcpy(&b, &other.sum, sizeof(b));
    return a == b;
  }
};

// Checksum of a whole span in one pass — the sidecar attached to a message
// or transfer, verified on receipt. Equal, field for field, to folding every
// element in order; the Fletcher modulo is deferred to once per 4096
// elements, which is congruent and cannot overflow.
BlockChecksum block_checksum(std::span<const double> data);

// Per-block checksum ledger over a flat array of n doubles, split into
// fixed-size blocks (the last one ragged). The owner refreshes blocks after
// writing them (update / update_block) and verifies the stored signatures
// against the array's current contents; a mismatch localizes corruption to a
// block index whose [begin, end) range the solver can recompute. update and
// verify fold four blocks in lockstep, so their serial Kahan chains overlap.
class BlockLedger {
 public:
  BlockLedger() = default;
  BlockLedger(size_t n, size_t block_size);

  size_t size() const { return n_; }
  size_t block_size() const { return block_; }
  size_t num_blocks() const { return sums_.size(); }

  struct Range {
    size_t begin = 0;
    size_t end = 0;
  };
  Range range(size_t block_index) const;
  size_t block_of(size_t element_index) const {
    return block_ == 0 ? 0 : element_index / block_;
  }

  // Recompute the stored signature of every block / one block from `data`
  // (which must view the full n-element array).
  void update(std::span<const double> data);
  void update_block(size_t block_index, std::span<const double> data);

  // Compare `data` against the stored signatures; returns the indices of the
  // blocks that no longer match (empty == clean).
  std::vector<size_t> verify(std::span<const double> data) const;

  const BlockChecksum& checksum(size_t block_index) const { return sums_[block_index]; }

 private:
  void checksum_all(std::span<const double> data, BlockChecksum* out) const;

  size_t n_ = 0;
  size_t block_ = 0;
  std::vector<BlockChecksum> sums_;
};

}  // namespace finch::rt
