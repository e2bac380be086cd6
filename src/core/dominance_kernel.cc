#include "core/dominance_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/query_distance_table.h"
#include "sim/similarity_space.h"

// The AVX2 lane evaluators are compiled whenever the toolchain supports
// per-function ISA targeting and NMRS_NO_SIMD was not requested; whether
// they *run* is a runtime cpuid decision (ActiveKernelDispatch), mirroring
// the crc32c.cc hardware path.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(NMRS_NO_SIMD)
#define NMRS_KERNEL_AVX2 1
#include <immintrin.h>
#endif

namespace nmrs {

namespace {

/// Lane evaluators: fill `viol` / `strict` bitmasks for rows [0, n),
/// n <= DominanceKernel::kBlockRows — bit w reports lhs_w > q / lhs_w < q.
struct LaneFns {
  // Categorical: lhs_w = col[vals[w]] (col is the matrix column d(., x)).
  // `active` marks the rows still undecided: lanes of dead 4-row groups
  // may be skipped entirely (their viol/strict bits are never read — the
  // caller masks them out), which saves most gathers on late attributes.
  void (*cat)(const double* col, const ValueId* vals, size_t n,
              uint32_t active, double q, uint32_t* viol, uint32_t* strict);
  // Numeric: lhs_w = scale * |y[w] - x|.
  void (*num)(const double* y, size_t n, uint32_t active, double x,
              double scale, double q, uint32_t* viol, uint32_t* strict);
  // The first w < n with ids[w] == id (a row a scan must skip), or n.
  size_t (*find)(const RowId* ids, size_t n, RowId id);
};

void CatLanesScalar(const double* col, const ValueId* vals, size_t n,
                    uint32_t active, double q, uint32_t* viol,
                    uint32_t* strict) {
  uint32_t v = 0, s = 0;
  for (size_t w = 0; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = col[vals[w]];
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

void NumLanesScalar(const double* y, size_t n, uint32_t active, double x,
                    double scale, double q, uint32_t* viol,
                    uint32_t* strict) {
  uint32_t v = 0, s = 0;
  for (size_t w = 0; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = scale * std::fabs(y[w] - x);
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

size_t FindIdScalar(const RowId* ids, size_t n, RowId id) {
  size_t w = 0;
  while (w < n && ids[w] != id) ++w;
  return w;
}

constexpr LaneFns kScalarFns = {CatLanesScalar, NumLanesScalar,
                                FindIdScalar};

#ifdef NMRS_KERNEL_AVX2

__attribute__((target("avx2"))) void CatLanesAvx2(const double* col,
                                                  const ValueId* vals,
                                                  size_t n, uint32_t active,
                                                  double q, uint32_t* viol,
                                                  uint32_t* strict) {
  uint32_t v = 0, s = 0;
  const __m256d qv = _mm256_set1_pd(q);
  // Full-mask gather with a zeroed source: identical to the plain
  // _mm256_i32gather_pd, but avoids GCC's maybe-uninitialized warning on
  // the unmasked intrinsic's implicit pass-through operand.
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ones =
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t w = 0;
  // Two independent gathers per iteration: vgatherdpd has a long latency,
  // so a single-gather loop serializes on it — the pair keeps the load
  // ports busy while the first gather is still in flight.
  for (; w + 8 <= n; w += 8) {
    if (!((active >> w) & 0xFFu)) continue;
    const __m128i idx0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w));
    const __m128i idx1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w + 4));
    const __m256d lhs0 = _mm256_mask_i32gather_pd(zero, col, idx0, ones, 8);
    const __m256d lhs1 = _mm256_mask_i32gather_pd(zero, col, idx1, ones, 8);
    const uint32_t v0 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs0, qv, _CMP_GT_OQ)));
    const uint32_t v1 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs1, qv, _CMP_GT_OQ)));
    const uint32_t s0 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs0, qv, _CMP_LT_OQ)));
    const uint32_t s1 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs1, qv, _CMP_LT_OQ)));
    v |= (v0 | (v1 << 4)) << w;
    s |= (s0 | (s1 << 4)) << w;
  }
  for (; w + 4 <= n; w += 4) {
    if (!((active >> w) & 0xFu)) continue;
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w));
    const __m256d lhs = _mm256_mask_i32gather_pd(zero, col, idx, ones, 8);
    v |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_GT_OQ)))
         << w;
    s |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_LT_OQ)))
         << w;
  }
  for (; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = col[vals[w]];
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

__attribute__((target("avx2"))) void NumLanesAvx2(const double* y, size_t n,
                                                  uint32_t active, double x,
                                                  double scale, double q,
                                                  uint32_t* viol,
                                                  uint32_t* strict) {
  uint32_t v = 0, s = 0;
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d qv = _mm256_set1_pd(q);
  // fabs via clearing the sign bit — identical to std::fabs on finite
  // doubles, so the product matches the scalar NumDist bit for bit.
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    if (!((active >> w) & 0xFu)) continue;
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(y + w), xv);
    const __m256d lhs = _mm256_mul_pd(sc, _mm256_and_pd(diff, absmask));
    v |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_GT_OQ)))
         << w;
    s |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_LT_OQ)))
         << w;
  }
  for (; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = scale * std::fabs(y[w] - x);
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

__attribute__((target("avx2"))) size_t FindIdAvx2(const RowId* ids, size_t n,
                                                  RowId id) {
  const __m256i idv = _mm256_set1_epi64x(static_cast<long long>(id));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + w));
    const int m = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, idv)));
    if (m != 0) return w + static_cast<size_t>(__builtin_ctz(m));
  }
  while (w < n && ids[w] != id) ++w;
  return w;
}

constexpr LaneFns kAvx2Fns = {CatLanesAvx2, NumLanesAvx2, FindIdAvx2};

bool DetectAvx2() { return __builtin_cpu_supports("avx2"); }

#endif  // NMRS_KERNEL_AVX2

std::atomic<bool> g_force_scalar{false};

const LaneFns& FnsFor(KernelDispatch d) {
#ifdef NMRS_KERNEL_AVX2
  if (d == KernelDispatch::kAvx2) return kAvx2Fns;
#endif
  (void)d;
  return kScalarFns;
}

}  // namespace

KernelDispatch ActiveKernelDispatch() {
#ifdef NMRS_KERNEL_AVX2
  static const bool kAvx2 = DetectAvx2();
  if (kAvx2 && !g_force_scalar.load(std::memory_order_relaxed)) {
    return KernelDispatch::kAvx2;
  }
#endif
  return KernelDispatch::kScalar;
}

const char* KernelDispatchName(KernelDispatch d) {
  return d == KernelDispatch::kAvx2 ? "avx2" : "scalar";
}

void ForceScalarKernelDispatchForTest(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

namespace {

// Bits [lo, hi] of a window mask, clipped to the word; empty when lo > hi.
inline uint32_t BitRange(int64_t lo, int64_t hi) {
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, 31);
  if (lo > hi) return 0;
  const uint32_t upto = hi == 31 ? ~0u : ((1u << (hi + 1)) - 1u);
  return upto & ~((1u << lo) - 1u);
}

// Set bits of a lane mask. Without -mpopcnt __builtin_popcount is a libgcc
// call; this SWAR sum stays inline.
inline uint32_t LaneCount(uint32_t x) {
  x = x - ((x >> 1) & 0x55555555u);
  x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
  x = (x + (x >> 4)) & 0x0F0F0F0Fu;
  return (x * 0x01010101u) >> 24;
}

}  // namespace

DominanceKernel::DominanceKernel(const PruneContext& ctx,
                                 const ColumnarBatch& cols,
                                 uint32_t promote_rows)
    : ctx_(&ctx),
      cols_(&cols),
      rows_(cols.source()),
      dispatch_(ActiveKernelDispatch()),
      promote_rows_(promote_rows),
      num_selected_(ctx.num_selected()) {
  NMRS_CHECK(ctx.table() != nullptr)
      << "DominanceKernel needs a table-backed PruneContext";
  for (AttrId a : ctx.selected()) {
    NMRS_CHECK(a < cols.num_attrs())
        << "ColumnarBatch narrower than the context's selection";
  }
  promoted_ = promote_rows_ == 0;
  windows_.resize((cols.num_runs() + kBlockRows - 1) / kBlockRows);
  head_active_.assign(windows_.size() * num_selected_, 0);
}

void DominanceKernel::BeginCandidate() {
  ++epoch_;
  survived_ = 0;
  promoted_ = promote_rows_ == 0;
}

bool DominanceKernel::ProbeColumns(size_t j, uint64_t* checks) const {
  // Mirrors PruneContext::Prunes on the memoized (table-backed) path: the
  // same column loads, the same scale * |y - x| product, the same compare
  // order and early abort — so the probe's verdict and check count are the
  // scalar loop's, bit for bit.
  const size_t m = ctx_->num_selected();
  bool strict = false;
  for (size_t k = 0; k < m; ++k) {
    const AttrId a = ctx_->selected()[k];
    const double q = ctx_->QueryDist(k);
    double lhs;
    if (ctx_->SelectedIsNumeric(k)) {
      lhs = ctx_->space().numeric(a).scale() *
            std::fabs(cols_->numerics(a)[j] - ctx_->candidate_numerics()[a]);
    } else {
      lhs = ctx_->CandidateColumn(k)[cols_->values(a)[j]];
    }
    ++*checks;
    if (lhs > q) return false;
    if (lhs < q) strict = true;
  }
  return strict;
}

inline bool DominanceKernel::ProbeRow(size_t j, uint64_t* checks) const {
  if (rows_ == nullptr) return ProbeColumns(j, checks);
  return ctx_->Prunes(rows_->row_values(j), rows_->row_numerics(j), checks);
}

inline bool DominanceKernel::ProbeStep(size_t j, uint64_t* pair_tests,
                                       uint64_t* checks) {
  ++*pair_tests;
  ++scalar_rows_;
  if (ProbeRow(j, checks)) return true;
  if (++survived_ >= promote_rows_) {
    promoted_ = true;
    ++promotions_;
  }
  return false;
}

void DominanceKernel::EvalHeadWindow(size_t r) {
  const size_t b = r / kBlockRows;
  const size_t begin = b * kBlockRows;
  const size_t n = std::min(kBlockRows, cols_->num_runs() - begin);
  const LaneFns& fns = FnsFor(dispatch_);
  uint32_t* level_active = active(b);
  uint32_t alive = BitRange(0, static_cast<int64_t>(n) - 1);
  uint32_t strict_any = 0;
  size_t k = 0;
  for (; k < num_selected_ && alive != 0; ++k) {
    level_active[k] = alive;
    const AttrId a = ctx_->selected()[k];
    uint32_t viol = 0, strict = 0;
    if (ctx_->SelectedIsNumeric(k)) {
      fns.num(cols_->head_numerics(a) + begin, n, alive,
              ctx_->candidate_numerics()[a], ctx_->space().numeric(a).scale(),
              ctx_->QueryDist(k), &viol, &strict);
    } else {
      fns.cat(ctx_->CandidateColumn(k), cols_->head_values(a) + begin, n,
              alive, ctx_->QueryDist(k), &viol, &strict);
    }
    kernel_checks_ += LaneCount(alive);
    strict_any |= strict;
    alive &= ~viol;
  }
  HeadWindow& w = windows_[b];
  if (!w.shaped) {
    // Bit planes of the run lengths - 1, once per window.
    const uint32_t* rs = cols_->run_starts();
    uint32_t planes[32] = {};
    uint32_t used = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t t = 0;
      for (uint32_t extra = rs[begin + i + 1] - rs[begin + i] - 1; extra != 0;
           extra >>= 1) {
        planes[t++] |= (extra & 1u) << i;
      }
      used = std::max(used, t);
    }
    w.shaped = true;
    w.first_plane = static_cast<uint32_t>(planes_.size());
    w.num_planes = used;
    planes_.insert(planes_.end(), planes, planes + used);
  }
  w.epoch = epoch_;
  // Heads that survived every attribute prune iff some attribute was
  // strictly closer (the scalar loop's `strict` flag — strict bits of
  // violated heads are irrelevant).
  w.pruners = alive & strict_any;
  w.levels = static_cast<uint32_t>(k);
  block_rows_ += n;
}

inline uint64_t DominanceKernel::RowsIn(size_t b, uint32_t lanes) const {
  const HeadWindow& w = windows_[b];
  const uint32_t* planes = planes_.data() + w.first_plane;
  uint64_t rows = LaneCount(lanes);
  for (uint32_t t = 0; t < w.num_planes; ++t) {
    rows += static_cast<uint64_t>(LaneCount(lanes & planes[t])) << t;
  }
  return rows;
}

uint32_t DominanceKernel::RunChecks(size_t r) {
  const size_t b = r / kBlockRows;
  const uint32_t* level_active = active(b);
  uint32_t nch = 0;
  for (size_t l = 0; l < windows_[b].levels; ++l) {
    nch += (level_active[l] >> (r % kBlockRows)) & 1u;
  }
  return nch;
}

void DominanceKernel::AccountRuns(size_t lo, size_t hi, RowId skip_id,
                                  uint64_t* pair_tests, uint64_t* checks) {
  if (lo >= hi) return;
  const uint32_t* rs = cols_->run_starts();
  const size_t first = cols_->run_of(lo);
  const size_t last = cols_->run_of(hi - 1);
  // Whole runs [first, last], window by window: a run alive at attribute
  // k adds its rows there.
  uint64_t nch = 0;
  for (size_t r = first; r <= last; r = (r | (kBlockRows - 1)) + 1) {
    const size_t b = r / kBlockRows;
    const size_t base = b * kBlockRows;
    const uint32_t lanes = BitRange(static_cast<int64_t>(r - base),
                                    static_cast<int64_t>(last - base));
    const uint32_t* level_active = active(b);
    const uint32_t levels = windows_[b].levels;
    for (size_t l = 0; l < levels; ++l) {
      nch += RowsIn(b, level_active[l] & lanes);
    }
  }
  // The range may cut its first and last runs.
  if (lo != rs[first]) nch -= (lo - rs[first]) * RunChecks(first);
  if (hi != rs[last + 1]) nch -= (rs[last + 1] - hi) * RunChecks(last);
  uint64_t rows = hi - lo;
  if (skip_id != kInvalidRowId) {
    const RowId* ids = cols_->ids();
    const LaneFns& fns = FnsFor(dispatch_);
    for (size_t s = lo + fns.find(ids + lo, hi - lo, skip_id); s < hi;
         s += 1 + fns.find(ids + s + 1, hi - s - 1, skip_id)) {
      --rows;
      nch -= RunChecks(cols_->run_of(s));
    }
  }
  *pair_tests += rows;
  *checks += nch;
}

uint64_t DominanceKernel::CountPruners(size_t begin, size_t end,
                                       uint64_t* checks) {
  if (begin >= end) return 0;
  const uint32_t* rs = cols_->run_starts();
  const size_t first = cols_->run_of(begin);
  const size_t last = cols_->run_of(end - 1);
  uint64_t pruners = 0;
  for (size_t r = first; r <= last; r = (r | (kBlockRows - 1)) + 1) {
    EnsureHead(r);
    const size_t b = r / kBlockRows;
    const size_t base = b * kBlockRows;
    pruners += RowsIn(b, windows_[b].pruners &
                             BitRange(static_cast<int64_t>(r - base),
                                      static_cast<int64_t>(last - base)));
  }
  if (RowPrunes(begin)) pruners -= begin - rs[first];
  if (RowPrunes(end - 1)) pruners -= rs[last + 1] - end;
  uint64_t pair_tests = 0;
  AccountRuns(begin, end, kInvalidRowId, &pair_tests, checks);
  return pruners;
}

bool DominanceKernel::RowPrunes(size_t j) {
  const size_t r = cols_->run_of(j);
  EnsureHead(r);
  return (windows_[r / kBlockRows].pruners >> (r % kBlockRows)) & 1u;
}

uint32_t DominanceKernel::RowChecks(size_t j) {
  const size_t r = cols_->run_of(j);
  EnsureHead(r);
  return RunChecks(r);
}

bool DominanceKernel::FindPrunerForward(size_t begin, size_t end,
                                        RowId skip_id, uint64_t* pair_tests,
                                        uint64_t* checks) {
  // Every visited row of a run has the head's verdict and check count, so
  // the scalar loop's accounting is (visited rows) x (head checks) per run
  // that does not prune, plus the first visited row of the first run that
  // does.
  const uint32_t* rs = cols_->run_starts();
  const RowId* ids = cols_->ids();
  size_t j = begin;
  size_t r = begin < end ? cols_->run_of(begin) : 0;
  // Pre-promotion: probe one head per run.
  for (; j < end && !promoted_; ++r) {
    const size_t hi = std::min<size_t>(rs[r + 1], end);
    uint32_t rows = 0;
    for (size_t i = j; i < hi; ++i) rows += ids[i] != skip_id;
    j = hi;
    if (rows == 0) continue;
    ++scalar_rows_;
    uint64_t nch = 0;
    if (ProbeRow(rs[r], &nch)) {
      ++*pair_tests;
      *checks += nch;
      return true;
    }
    *pair_tests += rows;
    *checks += rows * nch;
    if ((survived_ += rows) >= promote_rows_) {
      promoted_ = true;
      ++promotions_;
    }
  }
  // Promoted: one 32-head window at a time up to the first pruning run
  // with a visited row, which ends the scan at that row; then the rows up
  // to the stop are accounted at once.
  const size_t from = j;
  size_t stop = end;
  bool found = false;
  const size_t last_run = j < end ? cols_->run_of(end - 1) : 0;
  while (j < end && !found) {
    const size_t base = r & ~(kBlockRows - 1);
    const size_t last = std::min(base + kBlockRows - 1, last_run);
    EnsureHead(r);
    for (uint32_t m = windows_[base / kBlockRows].pruners &
                      BitRange(static_cast<int64_t>(r - base),
                               static_cast<int64_t>(last - base));
         m != 0; m &= m - 1) {
      const size_t p = base + __builtin_ctz(m);
      const size_t p_end = std::min<size_t>(rs[p + 1], end);
      size_t first = std::max<size_t>(rs[p], j);
      while (first < p_end && ids[first] == skip_id) ++first;
      if (first < p_end) {
        stop = first + 1;
        found = true;
        break;
      }
    }
    j = std::min<size_t>(rs[last + 1], end);
    r = last + 1;
  }
  AccountRuns(from, stop, skip_id, pair_tests, checks);
  return found;
}

DominanceKernel::ProbeResult DominanceKernel::ProbeForward(
    size_t begin, size_t end, RowId skip_id, uint64_t* pair_tests,
    uint64_t* checks) {
  if (promoted_) return ProbeResult::kPromoted;
  const RowId* ids = cols_->ids();
  for (size_t j = begin; j < end; ++j) {
    if (ids[j] == skip_id) continue;
    if (ProbeStep(j, pair_tests, checks)) return ProbeResult::kPruner;
    if (promoted_) return ProbeResult::kPromoted;
  }
  return ProbeResult::kExhausted;
}

bool DominanceKernel::FindPrunerRing(size_t center, RowId skip_id,
                                     uint64_t* pair_tests,
                                     uint64_t* checks) {
  const size_t n = cols_->size();
  const RowId* ids = cols_->ids();
  // Pre-promotion: the scalar ring itself.
  size_t off = 1;
  for (; off < n && !promoted_; ++off) {
    if (off <= center && ids[center - off] != skip_id &&
        ProbeStep(center - off, pair_tests, checks)) {
      return true;
    }
    if (promoted_) {
      // Promoted between L(off) and R(off): the walk resumes at R(off).
      return RingRuns(center, skip_id, off + 1, off, pair_tests, checks);
    }
    if (center + off < n && ids[center + off] != skip_id &&
        ProbeStep(center + off, pair_tests, checks)) {
      return true;
    }
  }
  if (!promoted_) return false;
  return RingRuns(center, skip_id, off, off, pair_tests, checks);
}

bool DominanceKernel::RingRuns(size_t center, RowId skip_id,
                               size_t left_off, size_t right_off,
                               uint64_t* pair_tests, uint64_t* checks) {
  // The unvisited rows are [0, c - left_off] on the left, walked down, and
  // [c + right_off, n) on the right, walked up; each run part has its
  // run's verdict and check count. Pass 1 takes one 32-head window at a
  // time from the side whose next run starts at the smaller offset — the
  // left on a tie — and keeps the nearest pruner found: the first visited
  // row of a side's first pruning run. It stops once no unvisited run can
  // start before that pruner, or at it on the left (the left row of an
  // offset is tested first). Pass 2 accounts the left rows up to the stop
  // offset and the right rows up to it (a right pruner) or one before it
  // (a left pruner).
  const uint32_t* rs = cols_->run_starts();
  const RowId* ids = cols_->ids();
  const int64_t c = static_cast<int64_t>(center);
  const int64_t n = static_cast<int64_t>(cols_->size());
  const int64_t num_runs = static_cast<int64_t>(cols_->num_runs());
  constexpr int64_t kNone = std::numeric_limits<int64_t>::max();
  constexpr int64_t kBlock = static_cast<int64_t>(kBlockRows);
  const int64_t left_top = c - static_cast<int64_t>(left_off);
  const int64_t right_bottom = c + static_cast<int64_t>(right_off);
  auto run_of = [&](int64_t row) {
    return static_cast<int64_t>(cols_->run_of(static_cast<size_t>(row)));
  };

  int64_t best = kNone;
  bool best_left = false;
  int64_t lr = left_top >= 0 ? run_of(left_top) : -1;
  int64_t rr = right_bottom < n ? run_of(right_bottom) : num_runs;
  while (true) {
    const int64_t nl =
        lr >= 0 ? c - std::min<int64_t>(rs[lr + 1] - 1, left_top) : kNone;
    const int64_t nr =
        rr < num_runs ? std::max<int64_t>(rs[rr], right_bottom) - c : kNone;
    const bool left_ok =
        nl != kNone && (nl < best || (nl == best && !best_left));
    const bool right_ok = nr != kNone && nr < best;
    if (!left_ok && !right_ok) break;
    if (left_ok && (!right_ok || nl <= nr)) {
      // Runs [base, lr], nearest first: the highest pruner bit.
      const int64_t base = lr & ~(kBlock - 1);
      EnsureHead(static_cast<size_t>(lr));
      for (uint32_t m = windows_[static_cast<size_t>(lr / kBlock)].pruners &
                        BitRange(0, lr - base);
           m != 0;) {
        const int bit = 31 - __builtin_clz(m);
        const int64_t p = base + bit;
        int64_t j = std::min<int64_t>(rs[p + 1] - 1, left_top);
        while (j >= rs[p] && ids[j] == skip_id) --j;
        if (j >= rs[p]) {
          if (c - j < best || (c - j == best && !best_left)) {
            best = c - j;
            best_left = true;
          }
          break;
        }
        m &= ~(1u << bit);
      }
      lr = base - 1;
    } else {
      // Runs [rr, top], nearest first: the lowest pruner bit.
      const int64_t base = rr & ~(kBlock - 1);
      const int64_t top = std::min(base + kBlock - 1, num_runs - 1);
      EnsureHead(static_cast<size_t>(rr));
      for (uint32_t m = windows_[static_cast<size_t>(rr / kBlock)].pruners &
                        BitRange(rr - base, top - base);
           m != 0; m &= m - 1) {
        const int64_t p = base + __builtin_ctz(m);
        int64_t j = std::max<int64_t>(rs[p], right_bottom);
        while (j < rs[p + 1] && ids[j] == skip_id) ++j;
        if (j < rs[p + 1]) {
          if (j - c < best) {
            best = j - c;
            best_left = false;
          }
          break;
        }
      }
      rr = top + 1;
    }
  }

  // Every run these ranges touch lies in a window pass 1 evaluated.
  const int64_t left_lo = best == kNone ? 0 : std::max<int64_t>(0, c - best);
  if (left_lo <= left_top) {
    AccountRuns(static_cast<size_t>(left_lo),
                static_cast<size_t>(left_top + 1), skip_id, pair_tests,
                checks);
  }
  const int64_t right_hi =
      best == kNone ? n : std::min(n, c + best + (best_left ? 0 : 1));
  if (right_bottom < right_hi) {
    AccountRuns(static_cast<size_t>(right_bottom),
                static_cast<size_t>(right_hi), skip_id, pair_tests, checks);
  }
  return best != kNone;
}

}  // namespace nmrs
