#ifndef NMRS_CORE_DOMINANCE_KERNEL_H_
#define NMRS_CORE_DOMINANCE_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/dominance.h"
#include "data/columnar_batch.h"

namespace nmrs {

/// Which lane-evaluator implementation the kernels run on. Selected once
/// per process by runtime CPU detection (like the crc32c hardware path):
/// kAvx2 uses vgatherdpd-style gathers + vectorized compares, kScalar is
/// the portable blocked fallback with identical semantics. Compiling with
/// -DNMRS_NO_SIMD (CMake option NMRS_NO_SIMD, exercised by ci.sh) removes
/// the SIMD path entirely, so the fallback stays continuously tested.
enum class KernelDispatch { kScalar, kAvx2 };

/// The dispatch the next-constructed kernel will use.
KernelDispatch ActiveKernelDispatch();
const char* KernelDispatchName(KernelDispatch d);

/// Test hook: force the portable scalar lane evaluators even when AVX2 is
/// available, so both paths can be compared in one process. Affects kernels
/// constructed after the call; not for production use.
void ForceScalarKernelDispatchForTest(bool force);

/// Block-at-a-time evaluator of the pruning condition of Definition 1: for
/// a fixed candidate X (set via the PruneContext), decide for a block of
/// rows Y at once whether forall k: d_k(y_k, x_k) <= d_k(q_k, x_k), with
/// strict inequality somewhere.
///
/// Because X is fixed, each categorical attribute's left-hand side is a
/// read from one contiguous DissimilarityMatrix column d_k(., x_k)
/// (PruneContext::CandidateColumn), indexed by the attribute's contiguous
/// value-id column of the ColumnarBatch — a gather -> compare -> movemask
/// shape. Per attribute the kernel ANDs survivor masks across the block and
/// early-exits the attribute loop as soon as no lane in the block can still
/// be a pruner.
///
/// ## Runs
///
/// The lanes are the batch's run heads (ColumnarBatch run index): every
/// row of a run of identical rows has its head's verdict and check count,
/// so a block window evaluates 32 runs, and a batch without adjacent
/// duplicates is simply one whose runs all have length 1. Each evaluated
/// window keeps its per-attribute alive masks, and the scalar accounting
/// of a row range is rebuilt from them: every visited row adds its run's
/// check count, so per attribute the range adds the rows of the runs
/// still alive there. That is one popcount in a window of length-1 runs,
/// plus one per bit plane of the run lengths elsewhere (RowsIn). A pruning
/// run stops a scan at its first visited row, rows with id == skip_id are
/// left out, and the ring treats the candidate's own run as a left and a
/// right part.
///
/// ## Adaptive dispatch (promote_rows)
///
/// Bulk evaluation only wins when the candidate's pruner scan is long; a
/// candidate pruned by one of its first few neighbours is cheapest on the
/// plain scalar loop. The Find* adapters therefore start every candidate
/// on an exact replica of the scalar early-aborting loop — over the
/// row-major source batch when the ColumnarBatch has one — and promote it
/// to 32-head block windows only after it survives `promote_rows` tests
/// (0 promotes immediately). The forward scan probes one head per run, and
/// the probe answers all of the run's visited rows, which count toward
/// promote_rows. The promotion decision depends only on verdicts, which
/// are dispatch-invariant — so promotions, scalar/block splits and
/// kernel_checks all agree between the AVX2 and portable paths.
///
/// ## Equivalence contract (docs/KERNELS.md)
///
/// Verdicts are bit-identical to the scalar PruneContext::Prunes loop: the
/// lane evaluators load the very same doubles (matrix columns / numeric
/// scaled |y-x|) and compare them against the same cached thresholds
/// d_k(q_k, x_k), in the same IEEE operations. The Find* adapters also
/// reproduce the scalar loops' accounting *exactly*, in both regimes: per
/// visited row they add the number of attribute checks the early-aborting
/// scalar loop would have made (first violated attribute + 1, or
/// num_selected() if none) — probed rows natively, block rows from the
/// per-attribute survivor masks — and they stop at the first pruner in the
/// same search order. The block path's own work is reported separately as
/// kernel_checks(): per attribute processed it adds the number of lanes
/// (run heads) still alive in the window, a dispatch-independent count.
///
/// The context must be table-backed (QueryDistanceTable) — all wired
/// algorithms build one — and both `ctx` and `cols` (and its source batch)
/// are borrowed and must outlive the kernel. Not thread-safe; parallel
/// chunks build one kernel per chunk over the shared ColumnarBatch.
class DominanceKernel {
 public:
  /// Lanes (run heads) evaluated per block window (one bitmask word).
  /// Windows are aligned to absolute multiples of kBlockRows.
  static constexpr size_t kBlockRows = 32;

  DominanceKernel(const PruneContext& ctx, const ColumnarBatch& cols,
                  uint32_t promote_rows = 0);

  /// Invalidates cached block results and restarts the adaptive probe;
  /// call after ctx.SetCandidate().
  void BeginCandidate();

  /// Forward scan of rows [begin, end): returns true iff a row with
  /// id != skip_id prunes the current candidate, stopping there. Adds the
  /// scalar-equivalent pair/check counts (rows with id == skip_id are
  /// skipped without counting, like the scalar loops). Once the candidate
  /// is promoted, the scan walks 32-head windows, with the scalar
  /// accounting rebuilt from the per-attribute survivor masks.
  bool FindPrunerForward(size_t begin, size_t end, RowId skip_id,
                         uint64_t* pair_tests, uint64_t* checks);

  /// Outcome of a probe-only scan (ProbeForward).
  enum class ProbeResult {
    kPruner,     // a pruner was found; the scan stopped there
    kExhausted,  // all rows probed, none prunes the candidate
    kPromoted,   // the candidate survived promote_rows tests; the caller
                 // should switch to its bulk strategy for the remainder
  };

  /// The pre-promotion half of FindPrunerForward on its own: probes rows
  /// [begin, end) with the exact scalar loop and returns kPromoted as soon
  /// as the candidate graduates (immediately when promote_rows == 0),
  /// instead of falling through to block evaluation. Callers with a
  /// better-than-flat strategy for stubborn candidates — TRS escapes to
  /// the pruned ALTree traversal — use this to keep the cheap early-abort
  /// probe without committing to a flat block scan. Accounting matches
  /// the scalar loop for every row actually probed.
  ProbeResult ProbeForward(size_t begin, size_t end, RowId skip_id,
                           uint64_t* pair_tests, uint64_t* checks);

  /// Expanding-ring scan around `center` (offsets +-1, +-2, ..., the left
  /// row first at each offset: the SRS phase-1 order), same contract as
  /// FindPrunerForward. Before promotion the ring is probed row by row;
  /// after it, RingRuns finds the nearest pruning run window by window and
  /// accounts exactly the rows the scalar ring visits before stopping.
  bool FindPrunerRing(size_t center, RowId skip_id, uint64_t* pair_tests,
                      uint64_t* checks);

  /// Bulk evaluation of rows [begin, end) with no early exit: computes
  /// every window, adds the scalar-equivalent check count of every row to
  /// *checks, and returns how many rows prune the candidate. Entry point
  /// for the throughput benchmarks (bench_kernels), where the per-row
  /// adapter call overhead would drown the lane work being measured.
  /// Always block-evaluates (the adaptive policy governs the Find*
  /// adapters only).
  uint64_t CountPruners(size_t begin, size_t end, uint64_t* checks);

  /// Per-row outcome of the current candidate, read off the row's run,
  /// whose window is computed on first touch. Exposed for tests.
  bool RowPrunes(size_t j);
  /// Scalar-equivalent attribute-check count for row j (first violated
  /// attribute + 1, or num_selected() when none is violated).
  uint32_t RowChecks(size_t j);

  /// Alive attribute lanes (run heads) evaluated by the block path since
  /// construction (see class comment). Dispatch-independent.
  uint64_t kernel_checks() const { return kernel_checks_; }

  /// Adaptive-policy telemetry since construction, dispatch-independent:
  /// candidates promoted to block evaluation, scalar probes (of a row or
  /// of a run head), and lanes (run heads) evaluated by block windows.
  uint64_t promotions() const { return promotions_; }
  uint64_t scalar_rows() const { return scalar_rows_; }
  uint64_t block_rows() const { return block_rows_; }

  /// Dispatch this kernel instance is bound to.
  KernelDispatch dispatch() const { return dispatch_; }

 private:
  // The current candidate's outcome on one 32-head window.
  struct HeadWindow {
    uint64_t epoch = 0;     // candidate epoch of the evaluation
    uint32_t pruners = 0;   // heads that prune the candidate
    uint32_t levels = 0;    // attributes evaluated before the heads died out
    // Candidate-independent, set on the first evaluation: bit t of each
    // head's run length - 1 is in planes_[first_plane + t]; windows of
    // length-1 runs have no planes.
    bool shaped = false;
    uint32_t first_plane = 0;
    uint32_t num_planes = 0;
  };

  // Evaluates the 32-head window holding run r for the current candidate:
  // its pruner mask and, per attribute k < levels, the heads still alive
  // at k in active(b) — a head first violated at attribute k is alive at
  // exactly its k+1 scalar checks, so summing the rows of the alive runs
  // over levels (RowsIn) yields the scalar accounting of any run subset.
  // Adds the alive lanes to kernel_checks_.
  void EvalHeadWindow(size_t r);
  // Window artifacts are valid iff evaluated for the current candidate.
  // Epochs make BeginCandidate O(1) — with one kernel check per candidate
  // over thousands of candidates per batch, clearing a per-window array
  // each time would cost O(rows^2) per batch.
  void EnsureHead(size_t r) {
    if (windows_[r / kBlockRows].epoch != epoch_) EvalHeadWindow(r);
  }
  uint32_t* active(size_t b) { return head_active_.data() + b * num_selected_; }
  // Rows of the runs in `lanes` of window b: one popcount, plus one per
  // bit plane of the window's run lengths.
  uint64_t RowsIn(size_t b, uint32_t lanes) const;
  // Scalar-equivalent checks of run r, whose window is evaluated.
  uint32_t RunChecks(size_t r);
  // Exact scalar probe of row j: PruneContext::Prunes on the source
  // batch's row, or ProbeColumns when there is none. Adds the row's checks
  // to *checks.
  bool ProbeRow(size_t j, uint64_t* checks) const;
  // The same loads, compares and early abort as PruneContext::Prunes, over
  // the columns.
  bool ProbeColumns(size_t j, uint64_t* checks) const;
  // One pre-promotion test of row j (id != skip_id): counts the pair and
  // checks, returns whether j prunes, and promotes the candidate once it
  // has survived promote_rows tests.
  bool ProbeStep(size_t j, uint64_t* pair_tests, uint64_t* checks);
  // Adds the scalar accounting of rows [lo, hi) minus those with id
  // skip_id: one pair test and the run's checks each. Every run the range
  // touches must be evaluated for the current candidate.
  void AccountRuns(size_t lo, size_t hi, RowId skip_id, uint64_t* pair_tests,
                   uint64_t* checks);
  // The promoted half of FindPrunerRing: continues the ring at offset
  // `left_off` on the left and `right_off` on the right (left_off is
  // right_off or right_off + 1).
  bool RingRuns(size_t center, RowId skip_id, size_t left_off,
                size_t right_off, uint64_t* pair_tests, uint64_t* checks);

  const PruneContext* ctx_;
  const ColumnarBatch* cols_;
  const RowBatch* rows_;                // cols_->source(); may be null
  KernelDispatch dispatch_;
  uint32_t promote_rows_;
  size_t num_selected_;
  uint64_t epoch_ = 1;                  // current candidate's epoch
  std::vector<HeadWindow> windows_;     // per 32-head window
  std::vector<uint32_t> head_active_;   // [window * m + k], see EvalHeadWindow
  std::vector<uint32_t> planes_;        // run-length bit planes, see HeadWindow
  // Adaptive per-candidate state.
  uint32_t survived_ = 0;
  bool promoted_ = true;
  uint64_t kernel_checks_ = 0;
  uint64_t promotions_ = 0;
  uint64_t scalar_rows_ = 0;
  uint64_t block_rows_ = 0;
};

}  // namespace nmrs

#endif  // NMRS_CORE_DOMINANCE_KERNEL_H_
