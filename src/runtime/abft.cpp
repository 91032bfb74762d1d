#include "abft.hpp"

#include <algorithm>
#include <array>

namespace finch::rt {

namespace {

constexpr uint64_t kFletcherMod = 0xffffffffULL;

// The fast fold defers BlockChecksum::fold's per-word `% 0xffffffff` to once
// per kReduceEvery doubles. From reduced lanes (lo, hi < 2^32), n doubles
// (2n 32-bit words) raise lo to at most (2n + 1)·2^32 and hi to at most
// (2n² + 3n + 1)·2^32 < 2^58 at n = 4096, so the unreduced sums never wrap
// and one reduction per chunk is congruent to the per-word one: both leave
// the same residue in [0, 2^32 - 1).
constexpr size_t kReduceEvery = 4096;

// Folds n doubles of each of the L sources into out[j]: bit for bit what n
// calls of out[j].fold(src[j][k]) produce, in the same element order. The L
// Kahan chains are independent, so folding them in lockstep overlaps their
// latencies instead of serialising them.
template <size_t L>
void fold_lockstep(BlockChecksum* out, const std::array<const double*, L>& src, size_t n) {
  for (size_t k0 = 0; k0 < n; k0 += kReduceEvery) {
    const size_t k1 = std::min(n, k0 + kReduceEvery);
    uint64_t lo[L], hi[L];
    double sum[L], comp[L];
    for (size_t j = 0; j < L; ++j) {
      lo[j] = out[j].lo;
      hi[j] = out[j].hi;
      sum[j] = out[j].sum;
      comp[j] = out[j].comp;
    }
    for (size_t k = k0; k < k1; ++k)
      for (size_t j = 0; j < L; ++j) {
        const double v = src[j][k];
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        lo[j] += bits & 0xffffffffULL;
        hi[j] += lo[j];
        lo[j] += bits >> 32;
        hi[j] += lo[j];
        const double y = v - comp[j];
        const double t = sum[j] + y;
        comp[j] = (t - sum[j]) - y;
        sum[j] = t;
      }
    for (size_t j = 0; j < L; ++j) {
      out[j].lo = lo[j] % kFletcherMod;
      out[j].hi = hi[j] % kFletcherMod;
      out[j].sum = sum[j];
      out[j].comp = comp[j];
    }
  }
  for (size_t j = 0; j < L; ++j) out[j].count += n;
}

}  // namespace

BlockChecksum block_checksum(std::span<const double> data) {
  BlockChecksum c;
  fold_lockstep<1>(&c, {data.data()}, data.size());
  return c;
}

BlockLedger::BlockLedger(size_t n, size_t block_size)
    : n_(n), block_(block_size == 0 ? (n == 0 ? 1 : n) : block_size) {
  sums_.resize(n_ == 0 ? 0 : (n_ + block_ - 1) / block_);
}

BlockLedger::Range BlockLedger::range(size_t block_index) const {
  Range r;
  r.begin = block_index * block_;
  r.end = r.begin + block_ < n_ ? r.begin + block_ : n_;
  return r;
}

// Signatures of every block into `out`: four full blocks at a time in
// lockstep, the rest (fewer than four full blocks and the ragged last one)
// one by one.
void BlockLedger::checksum_all(std::span<const double> data, BlockChecksum* out) const {
  constexpr size_t kLanes = 4;
  const size_t full = n_ / block_;
  size_t b = 0;
  for (; b + kLanes <= full; b += kLanes) {
    const double* p = data.data() + b * block_;
    for (size_t j = 0; j < kLanes; ++j) out[b + j] = BlockChecksum{};
    fold_lockstep<kLanes>(out + b, {p, p + block_, p + 2 * block_, p + 3 * block_}, block_);
  }
  for (; b < sums_.size(); ++b) {
    const Range r = range(b);
    out[b] = block_checksum(data.subspan(r.begin, r.end - r.begin));
  }
}

void BlockLedger::update(std::span<const double> data) { checksum_all(data, sums_.data()); }

void BlockLedger::update_block(size_t block_index, std::span<const double> data) {
  const Range r = range(block_index);
  sums_[block_index] = block_checksum(data.subspan(r.begin, r.end - r.begin));
}

std::vector<size_t> BlockLedger::verify(std::span<const double> data) const {
  std::vector<BlockChecksum> now(sums_.size());
  checksum_all(data, now.data());
  std::vector<size_t> bad;
  for (size_t b = 0; b < sums_.size(); ++b)
    if (!now[b].matches(sums_[b])) bad.push_back(b);
  return bad;
}

}  // namespace finch::rt
