#ifndef NMRS_STORAGE_PAGED_READER_H_
#define NMRS_STORAGE_PAGED_READER_H_

#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/fault_injection.h"

namespace nmrs {

/// Per-query read policy for PagedReader. Default-constructed == seed
/// behavior: no verification, retries configured but inert (a clean disk
/// never returns kUnavailable, so the loop exits on the first attempt),
/// no failover replicas.
struct PagedReaderOptions {
  /// All file ids are failover-eligible (standalone use over frozen disks).
  static constexpr FileId kNoFailoverLimit = ~FileId{0};

  /// Verify the CRC-32C footer (Page::VerifySeal) on every page read. Only
  /// valid for datasets written with checksums enabled
  /// (RSOptions::resilience / PrepareOptions::checksum_pages).
  bool verify_checksums = false;

  /// Transient-failure retry budget and modeled backoff, applied per
  /// replica: each replica gets the full budget before the reader fails
  /// over.
  RetryPolicy retry;

  /// Optional shared sink for pages this reader gives up on. Purely
  /// observational (never read back), so sharing one log across queries
  /// does not couple their behavior. With failover replicas attached, only
  /// pages *every* replica failed are reported — a page one replica lost
  /// but another served is not gone.
  QuarantineLog* quarantine = nullptr;

  /// Additional storage replicas of the same frozen base files, in replica
  /// order: replica 0 is the primary disk the reader was constructed over,
  /// failover[r-1] is replica r. Borrowed; must outlive the reader. Empty
  /// == no failover, byte-identical to the single-disk code path.
  std::vector<SimulatedDisk*> failover;

  /// Only files with id < failover_limit fail over; reads of files at or
  /// above it (per-query scratch spills, which exist only on the primary
  /// view) always take the single-disk path. The batch engine passes the
  /// frozen base disk's next_file_id().
  FileId failover_limit = kNoFailoverLimit;
};

/// The per-query facade the algorithms read pages through — and, as of the
/// robustness layer, the single place where storage faults are absorbed or
/// surfaced (docs/ROBUSTNESS.md).
///
/// With default options and no pool attached, every read goes straight to
/// the disk — bit-identical to the seed behavior. With a pool, reads of
/// cacheable (frozen base) files are served through the shared BufferPool
/// while scratch-file reads bypass it; either way the disk passed here —
/// typically a worker's DiskView, possibly wrapped in a FaultyDisk — is
/// what gets charged for real IO.
///
/// ## Fault handling
///
/// - kUnavailable (transient) results are retried up to
///   RetryPolicy::max_attempts total attempts; each retry charges modeled
///   backoff to modeled_backoff_millis() (never wall time) and counts one
///   transient_retries. Exhausting the budget converts the failure to
///   kDataLoss.
/// - With verify_checksums on, every page that arrives is checked against
///   its CRC footer. A failure counts one checksum_failures and triggers a
///   single refetch — evicting the possibly-poisoned frame from the pool
///   first, so the shared cache heals instead of serving the same bad
///   bytes forever. A second failure surfaces as kCorruption.
/// - With failover replicas attached, a page read that exhausted its
///   retry/verify policy on one replica (kDataLoss, kCorruption, or
///   persistent kUnavailable) is retried on replica (r+1) % N for that
///   page only, counting one `failovers`; the replica that served the page
///   becomes the preferred replica for subsequent reads. The pool frame is
///   evicted before each failover hop, so the shared cache heals from
///   whichever replica has good bytes.
/// - Pages this reader gives up on — all replicas failed, or the single
///   disk failed with no replicas attached — count one quarantined_pages
///   each and are reported to the QuarantineLog, if any.
///
/// Not thread-safe: one PagedReader per worker/query, like the DiskView it
/// wraps. The shared BufferPool behind it is what synchronizes.
class PagedReader {
 public:
  explicit PagedReader(SimulatedDisk* disk, BufferPool* pool = nullptr,
                       PagedReaderOptions opts = {})
      : disk_(disk), pool_(pool), opts_(std::move(opts)) {}

  /// Reads one page, applying the retry / verify / failover / quarantine
  /// policy.
  Status ReadPage(FileId file, PageId page, Page* out);

  SimulatedDisk* disk() const { return disk_; }
  BufferPool* pool() const { return pool_; }
  bool caching() const { return pool_ != nullptr; }
  const PagedReaderOptions& options() const { return opts_; }

  /// Cache traffic routed through *this reader* (per-query attribution;
  /// the pool's own stats() aggregate across all readers).
  const CacheStats& cache_stats() const { return stats_; }

  /// Modeled milliseconds spent in retry backoff by this reader. The
  /// algorithms add it to QueryStats::modeled_backoff_millis so retry
  /// storms show up in ResponseMillis without any wall-clock dependence.
  double modeled_backoff_millis() const { return modeled_backoff_millis_; }

  /// Page reads this reader served from a replica other than the one it
  /// started on (0 without failover replicas).
  uint64_t failovers() const { return failovers_; }

  /// Replica this reader currently prefers (0 = the primary disk).
  int current_replica() const { return current_replica_; }

  /// Folds this reader's cache, fault and failover counters into `io`. The
  /// primary disk's charged reads are already there (the algorithms delta
  /// its stats); reads this reader routed to failover replicas are not —
  /// they landed on the replicas' own disks — so their IO is captured here
  /// too.
  void FoldStatsInto(IoStats* io) const {
    io->cache_hits += stats_.hits;
    io->cache_misses += stats_.misses;
    io->cache_evictions += stats_.evictions;
    io->transient_retries += transient_retries_;
    io->checksum_failures += checksum_failures_;
    io->quarantined_pages += quarantined_pages_;
    io->failovers += failovers_;
    for (size_t r = 0; r < IoStats::kMaxReplicas; ++r) {
      io->replica_reads[r] += replica_reads_[r];
    }
    *io += failover_io_;
  }

  /// A page-sized buffer owned by this reader for decoders to read into, so
  /// a page read allocates and zeroes nothing. Reused by every call.
  Page* scratch_page() {
    if (scratch_.size() != disk_->page_size()) {
      scratch_ = Page(disk_->page_size());
    }
    return &scratch_;
  }

 private:
  // One read through the pool-or-disk route, no fault policy applied.
  Status RawRead(SimulatedDisk* d, FileId file, PageId page, Page* out);

  // RawRead plus replica accounting. `replica` < 0 == single-disk mode (no
  // counting — keeps replicas=1 accounting bit-identical); replica 0 is the
  // primary (already charged by the caller's stats delta); replicas > 0
  // additionally capture the replica disk's IO delta into failover_io_.
  // `bypass_pool` skips the buffer pool: used after a verification failure
  // to get the authoritative bytes of THIS replica, immune to other
  // threads re-poisoning the shared frame between our evict and refetch.
  Status ReplicaRead(SimulatedDisk* d, int replica, FileId file, PageId page,
                     Page* out, bool bypass_pool = false);

  // The full retry + verify policy against one disk. Returns OK, or the
  // terminal failure for this replica (kDataLoss / kCorruption); never
  // quarantines — that is the caller's call, which knows whether other
  // replicas remain.
  Status ReadWithPolicy(SimulatedDisk* d, int replica, FileId file,
                        PageId page, Page* out);

  SimulatedDisk* disk_;
  BufferPool* pool_;
  PagedReaderOptions opts_;
  CacheStats stats_;
  uint64_t transient_retries_ = 0;
  uint64_t checksum_failures_ = 0;
  uint64_t quarantined_pages_ = 0;
  uint64_t failovers_ = 0;
  uint64_t replica_reads_[IoStats::kMaxReplicas] = {};
  IoStats failover_io_;
  int current_replica_ = 0;
  double modeled_backoff_millis_ = 0.0;
  Page scratch_{0};
};

}  // namespace nmrs

#endif  // NMRS_STORAGE_PAGED_READER_H_
