#include "core/dominance_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
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
/// The *_fill evaluators materialize the lhs array itself (for the
/// SharedCandidateCache), and `cmp` compares a materialized lhs array —
/// the same doubles and the same IEEE compares, so fused and cached
/// evaluation produce identical masks.
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
  // Compare-only pass over a materialized lhs array.
  void (*cmp)(const double* lhs, size_t n, uint32_t active, double q,
              uint32_t* viol, uint32_t* strict);
  // lhs materialization (all n rows — the array is shared by queries
  // whose active masks differ).
  void (*cat_fill)(const double* col, const ValueId* vals, size_t n,
                   double* lhs);
  void (*num_fill)(const double* y, size_t n, double x, double scale,
                   double* lhs);
  // Bit w set iff ids[w] == id (the rows a scan must skip).
  uint32_t (*eq)(const RowId* ids, size_t n, RowId id);
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

void CmpLanesScalar(const double* lhs, size_t n, uint32_t active, double q,
                    uint32_t* viol, uint32_t* strict) {
  uint32_t v = 0, s = 0;
  for (size_t w = 0; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double l = lhs[w];
    if (l > q) v |= 1u << w;
    if (l < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

void CatFillScalar(const double* col, const ValueId* vals, size_t n,
                   double* lhs) {
  for (size_t w = 0; w < n; ++w) lhs[w] = col[vals[w]];
}

void NumFillScalar(const double* y, size_t n, double x, double scale,
                   double* lhs) {
  for (size_t w = 0; w < n; ++w) lhs[w] = scale * std::fabs(y[w] - x);
}

uint32_t EqLanesScalar(const RowId* ids, size_t n, RowId id) {
  uint32_t m = 0;
  for (size_t w = 0; w < n; ++w) {
    m |= static_cast<uint32_t>(ids[w] == id) << w;
  }
  return m;
}

constexpr LaneFns kScalarFns = {CatLanesScalar, NumLanesScalar,
                                CmpLanesScalar, CatFillScalar,
                                NumFillScalar, EqLanesScalar};

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

__attribute__((target("avx2"))) void CmpLanesAvx2(const double* lhs,
                                                  size_t n, uint32_t active,
                                                  double q, uint32_t* viol,
                                                  uint32_t* strict) {
  uint32_t v = 0, s = 0;
  const __m256d qv = _mm256_set1_pd(q);
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    if (!((active >> w) & 0xFu)) continue;
    const __m256d l = _mm256_loadu_pd(lhs + w);
    v |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(l, qv, _CMP_GT_OQ)))
         << w;
    s |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(l, qv, _CMP_LT_OQ)))
         << w;
  }
  for (; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double l = lhs[w];
    if (l > q) v |= 1u << w;
    if (l < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

__attribute__((target("avx2"))) void CatFillAvx2(const double* col,
                                                 const ValueId* vals,
                                                 size_t n, double* lhs) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w));
    _mm256_storeu_pd(lhs + w,
                     _mm256_mask_i32gather_pd(zero, col, idx, ones, 8));
  }
  for (; w < n; ++w) lhs[w] = col[vals[w]];
}

__attribute__((target("avx2"))) void NumFillAvx2(const double* y, size_t n,
                                                 double x, double scale,
                                                 double* lhs) {
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(y + w), xv);
    _mm256_storeu_pd(lhs + w, _mm256_mul_pd(sc, _mm256_and_pd(diff, absmask)));
  }
  for (; w < n; ++w) lhs[w] = scale * std::fabs(y[w] - x);
}

__attribute__((target("avx2"))) uint32_t EqLanesAvx2(const RowId* ids,
                                                     size_t n, RowId id) {
  const __m256i idv = _mm256_set1_epi64x(static_cast<long long>(id));
  uint32_t m = 0;
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + w));
    m |= static_cast<uint32_t>(_mm256_movemask_pd(
             _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, idv))))
         << w;
  }
  for (; w < n; ++w) m |= static_cast<uint32_t>(ids[w] == id) << w;
  return m;
}

constexpr LaneFns kAvx2Fns = {CatLanesAvx2, NumLanesAvx2, CmpLanesAvx2,
                              CatFillAvx2, NumFillAvx2, EqLanesAvx2};

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

void SharedCandidateCache::Attach(const PruneContext& ctx,
                                  const ColumnarBatch& cols) {
  NMRS_CHECK(ctx.table() != nullptr)
      << "SharedCandidateCache needs a table-backed PruneContext";
  cols_ = &cols;
  dispatch_ = ActiveKernelDispatch();
  const size_t m = ctx.num_selected();
  attrs_.assign(ctx.selected().begin(), ctx.selected().end());
  is_numeric_.assign(m, 0);
  num_scale_.assign(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    if (ctx.SelectedIsNumeric(k)) {
      is_numeric_[k] = 1;
      num_scale_[k] = ctx.space().numeric(attrs_[k]).scale();
    }
  }
  xcol_.assign(m, nullptr);
  xnum_.assign(m, 0.0);
  rows_.Reset(cols.size(), m);
  heads_.Reset(cols.collapses() ? cols.num_runs() : 0, m);
  blocks_filled_ = 0;
}

void SharedCandidateCache::Plane::Reset(size_t num_rows, size_t m) {
  rows = num_rows;
  constexpr size_t kBlock = DominanceKernel::kBlockRows;
  num_blocks = (num_rows + kBlock - 1) / kBlock;
  padded_rows = num_blocks * kBlock;
  lhs.assign(m * padded_rows, 0.0);
  ready.assign(m * num_blocks, 0);
}

void SharedCandidateCache::SetCandidate(const PruneContext& ctx) {
  const size_t m = attrs_.size();
  for (size_t k = 0; k < m; ++k) {
    if (is_numeric_[k]) {
      xnum_[k] = ctx.candidate_numerics()[attrs_[k]];
    } else {
      // The cached matrix column d(., x) — a pointer into the
      // SimilaritySpace, identical for every query's context.
      xcol_[k] = ctx.CandidateColumn(k);
    }
  }
  std::fill(rows_.ready.begin(), rows_.ready.end(), 0);
  std::fill(heads_.ready.begin(), heads_.ready.end(), 0);
}

const double* SharedCandidateCache::EnsureLhs(size_t k, size_t block,
                                              bool heads) {
  Plane& p = heads ? heads_ : rows_;
  double* base =
      p.lhs.data() + k * p.padded_rows + block * DominanceKernel::kBlockRows;
  uint8_t& r = p.ready[k * p.num_blocks + block];
  if (!r) {
    r = 1;
    ++blocks_filled_;
    const size_t begin = block * DominanceKernel::kBlockRows;
    const size_t n = std::min(DominanceKernel::kBlockRows, p.rows - begin);
    const LaneFns& fns = FnsFor(dispatch_);
    const AttrId a = attrs_[k];
    if (is_numeric_[k]) {
      const double* y =
          heads ? cols_->head_numerics(a) : cols_->numerics(a);
      fns.num_fill(y + begin, n, xnum_[k], num_scale_[k], base);
    } else {
      const ValueId* v = heads ? cols_->head_values(a) : cols_->values(a);
      fns.cat_fill(xcol_[k], v + begin, n, base);
    }
  }
  return base;
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

// Scalar-equivalent checks of the rows in `rows`: the sum of their
// per-attribute alive bits (see DominanceKernel::EvalMasks).
inline uint64_t MaskChecks(const uint32_t* level_active, size_t levels,
                           uint32_t rows) {
  uint64_t nch = 0;
  for (size_t l = 0; l < levels; ++l) {
    nch += static_cast<uint64_t>(__builtin_popcount(level_active[l] & rows));
  }
  return nch;
}

}  // namespace

DominanceKernel::DominanceKernel(const PruneContext& ctx,
                                 const ColumnarBatch& cols,
                                 uint32_t promote_rows,
                                 SharedCandidateCache* shared)
    : ctx_(&ctx),
      cols_(&cols),
      rows_(cols.source()),
      shared_(shared),
      dispatch_(ActiveKernelDispatch()),
      promote_rows_(promote_rows) {
  NMRS_CHECK(ctx.table() != nullptr)
      << "DominanceKernel needs a table-backed PruneContext";
  for (AttrId a : ctx.selected()) {
    NMRS_CHECK(a < cols.num_attrs())
        << "ColumnarBatch narrower than the context's selection";
  }
  if (shared_ != nullptr) {
    NMRS_CHECK(shared_->attached() && shared_->batch() == &cols)
        << "SharedCandidateCache bound to a different batch";
    NMRS_CHECK(shared_->num_selected() == ctx.num_selected())
        << "sharing queries must agree on the attribute selection";
  }
  block_epoch_.assign((cols.size() + kBlockRows - 1) / kBlockRows, 0);
  prunes_.assign(cols.size(), 0);
  nchecks_.assign(cols.size(), 0);
  level_active_.assign(ctx.num_selected(), 0);
  ring_left_.active.assign(ctx.num_selected(), 0);
  ring_right_.active.assign(ctx.num_selected(), 0);
  promoted_ = promote_rows_ == 0;
  runs_ = cols.collapses();
  if (runs_) {
    head_epoch_.assign((cols.num_runs() + kBlockRows - 1) / kBlockRows, 0);
    head_prunes_.assign(head_epoch_.size(), 0);
    head_checks_.assign(cols.num_runs(), 0);
  }
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

DominanceKernel::WindowMasks DominanceKernel::EvalMasks(
    size_t begin, size_t n, uint32_t rows, uint32_t* level_active,
    bool heads) {
  const size_t m = ctx_->num_selected();
  const LaneFns& fns = FnsFor(dispatch_);
  const size_t block = begin / kBlockRows;
  uint32_t active = rows;
  uint32_t strict_any = 0;
  size_t k = 0;
  for (; k < m && active != 0; ++k) {
    level_active[k] = active;
    const AttrId a = ctx_->selected()[k];
    uint32_t viol = 0, strict = 0;
    if (shared_ != nullptr) {
      fns.cmp(shared_->EnsureLhs(k, block, heads), n, active,
              ctx_->QueryDist(k), &viol, &strict);
    } else if (ctx_->SelectedIsNumeric(k)) {
      const double* y = heads ? cols_->head_numerics(a) : cols_->numerics(a);
      fns.num(y + begin, n, active, ctx_->candidate_numerics()[a],
              ctx_->space().numeric(a).scale(), ctx_->QueryDist(k), &viol,
              &strict);
    } else {
      const ValueId* v = heads ? cols_->head_values(a) : cols_->values(a);
      fns.cat(ctx_->CandidateColumn(k), v + begin, n, active,
              ctx_->QueryDist(k), &viol, &strict);
    }
    kernel_checks_ += static_cast<uint64_t>(__builtin_popcount(active));
    strict_any |= strict;
    active &= ~viol;
  }
  // Rows that survived every attribute prune iff some attribute was
  // strictly closer (the scalar loop's `strict` flag — strict bits of
  // violated rows are irrelevant).
  return {k, active & strict_any};
}

void DominanceKernel::EvalWindow(size_t row) {
  const size_t begin = row & ~(kBlockRows - 1);
  const size_t n = std::min(kBlockRows, cols_->size() - begin);
  const uint32_t all = BitRange(0, static_cast<int64_t>(n) - 1);
  const WindowMasks w = EvalMasks(begin, n, all, level_active_.data());
  block_epoch_[begin / kBlockRows] = epoch_;
  block_rows_ += n;
  uint8_t* pr = prunes_.data() + begin;
  uint16_t* nch = nchecks_.data() + begin;
  for (size_t r = 0; r < n; ++r) {
    pr[r] = static_cast<uint8_t>((w.pruners >> r) & 1u);
    uint16_t c = 0;
    for (size_t l = 0; l < w.levels; ++l) c += (level_active_[l] >> r) & 1u;
    nch[r] = c;
  }
}

uint64_t DominanceKernel::CountPruners(size_t begin, size_t end,
                                       uint64_t* checks) {
  uint64_t pruners = 0;
  uint64_t nch = 0;
  size_t j = begin;
  // Partial blocks at the edges go through the cached per-row path.
  while (j < end && j % kBlockRows != 0) {
    EnsureRow(j);
    pruners += prunes_[j];
    nch += nchecks_[j];
    ++j;
  }
  // Full blocks need no per-row artifacts at all: the scalar accounting is
  // one popcount per attribute and the pruner count one popcount of the
  // pruner mask. Skipping the prunes_/nchecks_ writes (and their later
  // re-reads) is what makes bulk counting memory-lean on batches that
  // outgrow L1.
  for (; j + kBlockRows <= end; j += kBlockRows) {
    const WindowMasks w = EvalMasks(j, kBlockRows, ~0u, level_active_.data());
    nch += MaskChecks(level_active_.data(), w.levels, ~0u);
    pruners += static_cast<uint64_t>(__builtin_popcount(w.pruners));
  }
  for (; j < end; ++j) {
    EnsureRow(j);
    pruners += prunes_[j];
    nch += nchecks_[j];
  }
  *checks += nch;
  return pruners;
}

bool DominanceKernel::RowPrunes(size_t j) {
  EnsureRow(j);
  return prunes_[j] != 0;
}

uint32_t DominanceKernel::RowChecks(size_t j) {
  EnsureRow(j);
  return nchecks_[j];
}

bool DominanceKernel::BulkWindow(size_t begin, size_t n,
                                 uint64_t* pair_tests, uint64_t* checks) {
  // Masks only — no prunes_/nchecks_ writes, no later re-reads.
  // Restricting the accounting to the lanes at or before the first pruner
  // reproduces the early-aborting loop's stop exactly.
  const uint32_t all = BitRange(0, static_cast<int64_t>(n) - 1);
  const WindowMasks w = EvalMasks(begin, n, all, level_active_.data());
  block_rows_ += n;
  const uint32_t counted =
      w.pruners == 0 ? all : BitRange(0, __builtin_ctz(w.pruners));
  *pair_tests += static_cast<uint64_t>(__builtin_popcount(counted));
  *checks += MaskChecks(level_active_.data(), w.levels, counted);
  return w.pruners != 0;
}

bool DominanceKernel::FindPrunerForward(size_t begin, size_t end,
                                        RowId skip_id, uint64_t* pair_tests,
                                        uint64_t* checks) {
  if (runs_) return ForwardRuns(begin, end, skip_id, pair_tests, checks);
  const RowId* ids = cols_->ids();
  size_t j = begin;
  // Pre-promotion: the exact scalar early-abort loop.
  for (; j < end && !promoted_; ++j) {
    if (ids[j] != skip_id && ProbeStep(j, pair_tests, checks)) return true;
  }
  // Post-promotion: window at a time. Windows fully inside the range with
  // no prior evaluation and no skipped row take the bulk path; the rest
  // (range edges, blocks already evaluated for this candidate, the window
  // holding skip_id) go through the per-row artifacts so reuse stays
  // coherent.
  while (j < end) {
    const size_t wb = j & ~(kBlockRows - 1);
    const size_t wn = std::min(kBlockRows, cols_->size() - wb);
    const size_t we = std::min(end, wb + wn);
    const bool per_row = j != wb || we != wb + wn ||
                         BlockReady(wb / kBlockRows) ||
                         FnsFor(dispatch_).eq(ids + wb, wn, skip_id) != 0;
    if (per_row) {
      for (; j < we; ++j) {
        if (ids[j] == skip_id) continue;
        ++*pair_tests;
        EnsureRow(j);
        *checks += nchecks_[j];
        if (prunes_[j]) return true;
      }
      continue;
    }
    if (BulkWindow(wb, wn, pair_tests, checks)) return true;
    j = wb + wn;
  }
  return false;
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
      return runs_ ? RingRuns(center, skip_id, off + 1, off, pair_tests,
                              checks)
                   : RingWalk(center, skip_id, off + 1, off, pair_tests,
                              checks);
    }
    if (center + off < n && ids[center + off] != skip_id &&
        ProbeStep(center + off, pair_tests, checks)) {
      return true;
    }
  }
  if (!promoted_) return false;
  return runs_ ? RingRuns(center, skip_id, off, off, pair_tests, checks)
               : RingWalk(center, skip_id, off, off, pair_tests, checks);
}

void DominanceKernel::EvalRingWindow(size_t first, size_t last,
                                     RowId skip_id, RingWindow* w) {
  w->begin = first & ~(kBlockRows - 1);
  const size_t n = std::min(kBlockRows, cols_->size() - w->begin);
  const uint32_t rows = BitRange(static_cast<int64_t>(first - w->begin),
                                 static_cast<int64_t>(last - w->begin));
  w->rows =
      rows & ~FnsFor(dispatch_).eq(cols_->ids() + w->begin, n, skip_id);
  w->masks = EvalMasks(w->begin, n, w->rows, w->active.data());
  block_rows_ += static_cast<uint64_t>(__builtin_popcount(w->rows));
}

bool DominanceKernel::RingWalk(size_t center, RowId skip_id,
                               size_t left_off, size_t right_off,
                               uint64_t* pair_tests, uint64_t* checks) {
  // Each side holds one window: the block containing its next unvisited
  // row, evaluated over that side's unvisited rows only. Offsets up to the
  // nearer window edge (`last`) are covered on both sides, so the step
  // resolves them all at once: with no pruner among them their rows are
  // accounted in bulk; otherwise the nearest pruner — the left one on a
  // tie, as the left row at an offset is tested first — ends the scan, and
  // exactly the rows the scalar ring visits before and including it are
  // accounted. A window is re-evaluated only once its block is consumed,
  // so the walk visits each absolute 32-row block at most once per side.
  const int64_t c = static_cast<int64_t>(center);
  const int64_t n = static_cast<int64_t>(cols_->size());
  RingWindow& lw = ring_left_;
  RingWindow& rw = ring_right_;
  bool left_ready = false, right_ready = false;
  auto account = [&](const RingWindow& w, uint32_t mask) {
    *pair_tests += static_cast<uint64_t>(__builtin_popcount(w.rows & mask));
    *checks += MaskChecks(w.active.data(), w.masks.levels, mask);
  };
  int64_t lo = static_cast<int64_t>(left_off);
  int64_t ro = static_cast<int64_t>(right_off);
  constexpr int64_t kNone = std::numeric_limits<int64_t>::max();
  while (true) {
    const bool left_live = lo <= c;
    const bool right_live = c + ro < n;
    if (!left_live && !right_live) return false;
    int64_t left_last = kNone, right_last = kNone;
    if (left_live) {
      if (!left_ready) {
        const size_t top = static_cast<size_t>(c - lo);
        EvalRingWindow(top & ~(kBlockRows - 1), top, skip_id, &lw);
        left_ready = true;
      }
      left_last = c - static_cast<int64_t>(lw.begin);
    }
    if (right_live) {
      if (!right_ready) {
        const size_t bottom = static_cast<size_t>(c + ro);
        const size_t block_end =
            std::min((bottom | (kBlockRows - 1)) + 1, cols_->size());
        EvalRingWindow(bottom, block_end - 1, skip_id, &rw);
        right_ready = true;
      }
      right_last =
          std::min(static_cast<int64_t>(rw.begin + kBlockRows), n) - 1 - c;
    }
    const int64_t last = std::min(left_last, right_last);
    const int64_t lb = static_cast<int64_t>(lw.begin);
    const int64_t rb = static_cast<int64_t>(rw.begin);
    // This step's rows: offsets [lo, last] left, [ro, last] right.
    uint32_t lmask = left_live ? BitRange(c - last - lb, c - lo - lb) : 0;
    uint32_t rmask = right_live ? BitRange(c + ro - rb, c + last - rb) : 0;
    const uint32_t lp = lw.masks.pruners & lmask;
    const uint32_t rp = rw.masks.pruners & rmask;
    if ((lp | rp) != 0) {
      // The nearest left pruner is the highest left bit, the nearest right
      // one the lowest right bit.
      const int64_t left_hit = lp != 0 ? c - (lb + 31 - __builtin_clz(lp))
                                       : kNone;
      const int64_t right_hit = rp != 0 ? rb + __builtin_ctz(rp) - c : kNone;
      const int64_t stop = std::min(left_hit, right_hit);
      lmask &= BitRange(c - stop - lb, 31);
      rmask &= BitRange(0, c + (left_hit <= right_hit ? stop - 1 : stop) - rb);
      if (left_live) account(lw, lmask);
      if (right_live) account(rw, rmask);
      return true;
    }
    if (left_live) account(lw, lmask);
    if (right_live) account(rw, rmask);
    lo = ro = last + 1;
    if (last == left_last) left_ready = false;
    if (last == right_last) right_ready = false;
  }
}

void DominanceKernel::EvalHeadWindow(size_t r) {
  const size_t begin = r & ~(kBlockRows - 1);
  const size_t n = std::min(kBlockRows, cols_->num_runs() - begin);
  const uint32_t all = BitRange(0, static_cast<int64_t>(n) - 1);
  const WindowMasks w =
      EvalMasks(begin, n, all, level_active_.data(), /*heads=*/true);
  head_epoch_[begin / kBlockRows] = epoch_;
  head_prunes_[begin / kBlockRows] = w.pruners;
  block_rows_ += n;
  // A head first violated at attribute k is alive at exactly k+1 levels.
  uint16_t* nch = head_checks_.data() + begin;
  std::fill(nch, nch + n, uint16_t{0});
  for (size_t l = 0; l < w.levels; ++l) {
    for (uint32_t m = level_active_[l]; m != 0; m &= m - 1) {
      ++nch[__builtin_ctz(m)];
    }
  }
}

void DominanceKernel::AccountRuns(size_t lo, size_t hi, RowId skip_id,
                                  uint64_t* pair_tests, uint64_t* checks) {
  const uint32_t* rs = cols_->run_starts();
  const size_t r0 = cols_->run_of(lo);
  const size_t r1 = cols_->run_of(hi - 1);
  uint64_t nch = 0;
  for (size_t r = r0; r <= r1; ++r) {
    nch += static_cast<uint64_t>(rs[r + 1] - rs[r]) * head_checks_[r];
  }
  nch -= static_cast<uint64_t>(lo - rs[r0]) * head_checks_[r0];
  nch -= static_cast<uint64_t>(rs[r1 + 1] - hi) * head_checks_[r1];
  uint64_t rows = hi - lo;
  const LaneFns& fns = FnsFor(dispatch_);
  for (size_t b = lo; b < hi; b += kBlockRows) {
    for (uint32_t m = fns.eq(cols_->ids() + b, std::min(kBlockRows, hi - b),
                             skip_id);
         m != 0; m &= m - 1) {
      --rows;
      nch -= head_checks_[cols_->run_of(b + __builtin_ctz(m))];
    }
  }
  *pair_tests += rows;
  *checks += nch;
}

bool DominanceKernel::ForwardRuns(size_t begin, size_t end, RowId skip_id,
                                  uint64_t* pair_tests, uint64_t* checks) {
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
  // Promoted: one 32-head window at a time; the first pruning run with a
  // visited row ends the scan at that row.
  const size_t last_run = j < end ? cols_->run_of(end - 1) : 0;
  while (j < end) {
    const size_t base = r & ~(kBlockRows - 1);
    const size_t last = std::min(base + kBlockRows - 1, last_run);
    EnsureHead(r);
    const size_t stop = std::min<size_t>(rs[last + 1], end);
    for (uint32_t m = head_prunes_[base / kBlockRows] &
                      BitRange(static_cast<int64_t>(r - base),
                               static_cast<int64_t>(last - base));
         m != 0; m &= m - 1) {
      const size_t p = base + __builtin_ctz(m);
      const size_t p_end = std::min<size_t>(rs[p + 1], end);
      size_t first = std::max<size_t>(rs[p], j);
      while (first < p_end && ids[first] == skip_id) ++first;
      if (first < p_end) {
        AccountRuns(j, first + 1, skip_id, pair_tests, checks);
        return true;
      }
    }
    AccountRuns(j, stop, skip_id, pair_tests, checks);
    j = stop;
    r = last + 1;
  }
  return false;
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
      for (uint32_t m = head_prunes_[static_cast<size_t>(lr / kBlock)] &
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
      for (uint32_t m = head_prunes_[static_cast<size_t>(rr / kBlock)] &
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
