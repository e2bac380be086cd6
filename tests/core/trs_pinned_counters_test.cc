// Pins TRS's counters, IO and result rows on fixed seeded data: one phase-1
// batch, several batches under 2-4 page budgets, a numeric schema, and a
// 2-shard engine that answers TRS resident from the shards' AL-Tree
// indexes, whose verify round searches the same trees.
// Every phase-1 leaf check is covered: the kernel probe with its traversal
// escape, the plain all-categorical search (use_kernels = false), and the
// general search under categorical and numeric attribute subsets, each at
// 1 and 3 phase-1 threads. The probe-futility trial is decided per chunk,
// so the kernel path's 3-thread counters are pinned separately.
// The bichromatic tree (BichromaticTreeRS, paper Alg. 5 over the
// candidates' AL-Tree) is pinned on all attributes, a categorical subset
// and a mixed numeric schema, each at two budgets of several batches;
// those values were captured while the prune still had a separate
// interval-call traversal for subsets and numerics beside the column loop.
// The TRS values were captured with the per-node-vector AL-Tree layout that the
// one-pass bulk load (path cursor + leaf arenas) replaced. Node ids, child
// order and leaf entry order do not depend on the memory layout, so every
// number here must survive any change to it; a change that moves one on
// purpose must say why.
// Re-pinned when the pruner search gained its own-path probe (a candidate's
// own leaf, when it holds a duplicate, is tested before the DFS): only
// checks and phase1_checks moved. Rows, IO, survivors, pair tests, batches
// and the kernel counters held, and the phase-2 and bichromatic counters,
// which search no tree with a self leaf, did not move.
// Re-pinned again when the pruner search gained its memo (the leaves that
// pruned the previous candidates of the chunk are tested first, and the DFS
// skips the leaves a probe decided): again only checks and phase1_checks
// moved, and each value stayed equal at 1 and 3 threads.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/bichromatic.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "shard/shard_plan.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

// Every QueryStats counter (IO included), summed over a case's queries.
struct Counters {
  uint64_t checks, phase1_checks, phase2_checks, pair_tests;
  uint64_t kernel_checks, kernel_promotions, kernel_scalar_rows,
      kernel_block_rows;
  uint64_t phase1_batches, phase1_survivors, phase2_batches, result_size;
  uint64_t seq_reads, rand_reads, seq_writes, rand_writes;
  uint64_t cache_hits, cache_misses, cache_evictions;
  uint64_t transient_retries, checksum_failures, quarantined_pages, failovers;

  bool operator==(const Counters&) const = default;

  void Add(const QueryStats& s) {
    checks += s.checks;
    phase1_checks += s.phase1_checks;
    phase2_checks += s.phase2_checks;
    pair_tests += s.pair_tests;
    kernel_checks += s.kernel_checks;
    kernel_promotions += s.kernel_promotions;
    kernel_scalar_rows += s.kernel_scalar_rows;
    kernel_block_rows += s.kernel_block_rows;
    phase1_batches += s.phase1_batches;
    phase1_survivors += s.phase1_survivors;
    phase2_batches += s.phase2_batches;
    result_size += s.result_size;
    seq_reads += s.io.seq_reads;
    rand_reads += s.io.rand_reads;
    seq_writes += s.io.seq_writes;
    rand_writes += s.io.rand_writes;
    cache_hits += s.io.cache_hits;
    cache_misses += s.io.cache_misses;
    cache_evictions += s.io.cache_evictions;
    transient_retries += s.io.transient_retries;
    checksum_failures += s.io.checksum_failures;
    quarantined_pages += s.io.quarantined_pages;
    failovers += s.io.failovers;
  }
};

// Prints as a brace initializer, so a deliberate re-pin is a paste.
void PrintTo(const Counters& c, std::ostream* os) {
  *os << "{" << c.checks << ", " << c.phase1_checks << ", " << c.phase2_checks
      << ", " << c.pair_tests << ", " << c.kernel_checks << ", "
      << c.kernel_promotions << ", " << c.kernel_scalar_rows << ", "
      << c.kernel_block_rows << ", " << c.phase1_batches << ", "
      << c.phase1_survivors << ", " << c.phase2_batches << ", "
      << c.result_size << ", " << c.seq_reads << ", " << c.rand_reads << ", "
      << c.seq_writes << ", " << c.rand_writes << ", " << c.cache_hits << ", "
      << c.cache_misses << ", " << c.cache_evictions << ", "
      << c.transient_retries << ", " << c.checksum_failures << ", "
      << c.quarantined_pages << ", " << c.failovers << "}";
}

std::vector<Object> Queries(const Dataset& data, uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Object> queries;
  for (int i = 0; i < n; ++i) queries.push_back(SampleUniformQuery(data, rng));
  return queries;
}

struct Observed {
  Counters counters{};
  std::string rows;  // each query's result rows, "{1 5 9} {2} ..."

  void Add(const ReverseSkylineResult& r) {
    counters.Add(r.stats);
    if (!rows.empty()) rows += ' ';
    rows += '{';
    for (size_t i = 0; i < r.rows.size(); ++i) {
      if (i > 0) rows += ' ';
      rows += std::to_string(r.rows[i]);
    }
    rows += '}';
  }
};

// Runs each query through TRS under `base` (single-threaded by default)
// with `pages` of memory on a disk of `page_size`-byte pages.
Observed RunTrs(const Dataset& data, const SimilaritySpace& space,
                const std::vector<Object>& queries, size_t page_size,
                uint64_t pages, const RSOptions& base = {}) {
  SimulatedDisk disk(page_size);
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  RSOptions opts = base;
  opts.memory.pages = pages;
  Observed out;
  for (const Object& q : queries) {
    auto r = RunReverseSkyline(*prepared, space, q, Algorithm::kTRS, opts);
    NMRS_CHECK(r.ok()) << r.status();
    out.Add(*r);
  }
  return out;
}

TEST(TrsPinnedCountersTest, OnePhase1Batch) {
  const testing::RandomInstance inst(401, 2000, {6, 7, 8});
  const Observed got =
      RunTrs(inst.data, inst.space, Queries(inst.data, 402, 3),
             kDefaultPageSize, 1000);
  EXPECT_EQ(got.counters.phase1_batches, 3u);
  EXPECT_EQ(got.counters,
            (Counters{7291, 124, 7167, 870, 0, 9, 2755, 0, 3, 29, 3, 29, 6, 9,
                      0, 6, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(got.rows,
            "{28 153 350 1415 1629 1982 1986} {32 202 256 470 707 907 975 1006 "
            "1107 1124 1240 1241 1514 1543 1606 1923} "
            "{289 332 656 938 1221 1945}");
}

TEST(TrsPinnedCountersTest, SeveralBatchesUnderSmallBudgets) {
  const testing::RandomInstance inst(403, 3000, {6, 7, 8, 5});
  const std::vector<Object> queries = Queries(inst.data, 404, 3);
  const struct {
    uint64_t pages;
    Counters want;
  } budgets[] = {
      {2, {50610, 2544, 48066, 3309, 0, 156, 10519, 0, 18, 32, 3, 12, 411, 24,
           0, 21, 0, 0, 0, 0, 0, 0, 0}},
      {3, {40215, 1655, 38560, 3303, 0, 156, 12971, 0, 12, 24, 3, 12, 418, 17,
           0, 14, 0, 0, 0, 0, 0, 0, 0}},
      {4, {40382, 889, 39493, 3303, 0, 40, 9528, 0, 9, 17, 3, 12, 420, 15, 0,
           12, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const auto& b : budgets) {
    SCOPED_TRACE(b.pages);
    const Observed got = RunTrs(inst.data, inst.space, queries, 1024, b.pages);
    EXPECT_EQ(got.counters, b.want);
    EXPECT_EQ(got.rows,
              "{307 1232 1573 1575 1973} {1153 1502 2044 2635} {669 1342 1569}");
  }
}

RSOptions Threads(int num_threads) {
  RSOptions opts;
  opts.num_threads = num_threads;
  return opts;
}

// The kernel probe at 3 phase-1 threads: each chunk runs its own
// probe-futility trial, so checks and kernel counters differ from the
// single-threaded pins above while rows and IO do not.
TEST(TrsPinnedCountersTest, KernelProbeAtThreeThreads) {
  {
    const testing::RandomInstance inst(401, 2000, {6, 7, 8});
    const Observed got =
        RunTrs(inst.data, inst.space, Queries(inst.data, 402, 3),
               kDefaultPageSize, 1000, Threads(3));
    EXPECT_EQ(got.counters,
              (Counters{7291, 124, 7167, 870, 0, 9, 2755, 0, 3, 29, 3, 29, 6,
                        9, 0, 6, 0, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(got.rows,
              "{28 153 350 1415 1629 1982 1986} {32 202 256 470 707 907 975 "
              "1006 1107 1124 1240 1241 1514 1543 1606 1923} "
              "{289 332 656 938 1221 1945}");
  }
  const testing::RandomInstance inst(403, 3000, {6, 7, 8, 5});
  const Observed got = RunTrs(inst.data, inst.space, Queries(inst.data, 404, 3),
                              1024, 2, Threads(3));
  EXPECT_EQ(got.counters,
            (Counters{49775, 1709, 48066, 3309, 0, 158, 11112, 0, 18, 32, 3, 12,
                      411, 24, 0, 21, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(got.rows,
            "{307 1232 1573 1575 1973} {1153 1502 2044 2635} {669 1342 1569}");
}

// The all-categorical search without the kernel probe: every leaf takes
// the plain traversal, so 1 and 3 threads count the same checks.
TEST(TrsPinnedCountersTest, FastPathWithoutKernels) {
  const testing::RandomInstance inst(403, 3000, {6, 7, 8, 5});
  const std::vector<Object> queries = Queries(inst.data, 404, 3);
  const struct {
    int threads;
    Counters want;
  } runs[] = {
      {1, {57700, 19140, 38560, 3303, 0, 0, 0, 0, 12, 24, 3, 12, 418, 17, 0, 14,
           0, 0, 0, 0, 0, 0, 0}},
      {3, {57700, 19140, 38560, 3303, 0, 0, 0, 0, 12, 24, 3, 12, 418, 17, 0, 14,
           0, 0, 0, 0, 0, 0, 0}},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.threads);
    RSOptions opts = Threads(run.threads);
    opts.use_kernels = false;
    const Observed got = RunTrs(inst.data, inst.space, queries, 1024, 3, opts);
    EXPECT_EQ(got.counters, run.want);
    EXPECT_EQ(got.rows,
              "{307 1232 1573 1575 1973} {1153 1502 2044 2635} {669 1342 1569}");
  }
}

// A categorical attribute subset (paper §5.6): the general search passes
// the unselected level through.
TEST(TrsPinnedCountersTest, CategoricalSubset) {
  const testing::RandomInstance inst(409, 3000, {6, 7, 8});
  const std::vector<Object> queries = Queries(inst.data, 410, 3);
  const struct {
    int threads;
    Counters want;
  } runs[] = {
      {1, {20494, 3174, 17320, 936, 0, 0, 0, 0, 3, 157, 3, 157, 350, 9, 2, 6,
           0, 0, 0, 0, 0, 0, 0}},
      {3, {20494, 3174, 17320, 936, 0, 0, 0, 0, 3, 157, 3, 157, 350, 9, 2, 6,
           0, 0, 0, 0, 0, 0, 0}},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.threads);
    RSOptions opts = Threads(run.threads);
    opts.selected_attrs = {0, 2};
    const Observed got = RunTrs(inst.data, inst.space, queries, 1024, 3, opts);
    EXPECT_EQ(got.counters, run.want);
    EXPECT_EQ(got.rows,
              "{7 51 255 273 556 728 772 857 979 1104 1138 1337 1575 1762 "
              "1802 1841 1972 2130 2189 2283 2535 2739 2765 2770 2848} {11 "
              "129 340 515 587 1116 1144 1366 2707} {4 44 56 79 82 92 93 132 "
              "136 142 144 242 251 257 277 294 323 328 396 406 425 439 453 "
              "620 622 623 626 631 639 697 733 752 817 826 853 866 876 891 "
              "916 931 941 948 949 971 984 1001 1047 1053 1078 1079 1131 1161 "
              "1172 1186 1241 1248 1258 1259 1267 1282 1334 1363 1443 1508 "
              "1536 1564 1609 1625 1643 1677 1689 1743 1788 1815 1820 1832 "
              "1851 1857 1863 1878 1890 1906 1929 1951 1975 1998 2084 2125 "
              "2147 2181 2219 2220 2257 2296 2339 2344 2382 2388 2442 2498 "
              "2503 2507 2508 2517 2536 2589 2638 2650 2667 2688 2700 2717 "
              "2790 2806 2813 2821 2828 2845 2880 2896 2903 2941 2950}");
  }
}

Dataset MixedData(Rng& rng) {
  return GenerateMixed(600, {5, 4}, 2, 4, rng);
}

SimilaritySpace MixedSpace(Rng& rng) {
  SimilaritySpace space;
  for (size_t card : {5, 4}) space.AddCategorical(MakeRandomMatrix(card, rng));
  for (int i = 0; i < 2; ++i) space.AddNumeric(NumericDissimilarity());
  return space;
}

// A numeric schema under a subset of one categorical and one numeric
// attribute: phase 1 compares bucket bounds on the selected numeric level
// and passes the other two levels through.
TEST(TrsPinnedCountersTest, NumericSubset) {
  Rng rng(405);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const Dataset data = MixedData(data_rng);
  const SimilaritySpace space = MixedSpace(space_rng);
  const std::vector<Object> queries = Queries(data, 411, 3);
  const struct {
    int threads;
    Counters want;
  } runs[] = {
      {1, {27715, 7063, 20652, 813, 0, 0, 0, 0, 21, 983, 18, 7, 713, 57, 52, 24,
           0, 0, 0, 0, 0, 0, 0}},
      {3, {27715, 7063, 20652, 813, 0, 0, 0, 0, 21, 983, 18, 7, 713, 57, 52, 24,
           0, 0, 0, 0, 0, 0, 0}},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.threads);
    RSOptions opts = Threads(run.threads);
    opts.selected_attrs = {0, 3};
    const Observed got = RunTrs(data, space, queries, 1024, 3, opts);
    EXPECT_EQ(got.counters, run.want);
    EXPECT_EQ(got.rows, "{83 240} {351 380 425} {241 575}");
  }
}

TEST(TrsPinnedCountersTest, NumericSchema) {
  Rng rng(405);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const Dataset data = MixedData(data_rng);
  const SimilaritySpace space = MixedSpace(space_rng);
  const Observed got = RunTrs(data, space, Queries(data, 406, 3), 1024, 3);
  EXPECT_EQ(got.counters,
            (Counters{134871, 5479, 129392, 813, 0, 0, 0, 0, 21, 1657, 26, 75,
                      1006, 73, 87, 23, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(got.rows,
            "{4 7 38 63 81 84 86 121 127 143 144 162 199 201 207 249 306 308 "
            "328 362 368 387 401 410 433 469 487 493} "
            "{31 63 75 84 87 134 202 216 232 234 244 249 293 315 360 362 384 "
            "394 401 432 433 507 512 514 571} "
            "{20 26 73 74 103 106 162 181 212 237 242 316 339 353 400 412 431 "
            "483 493 507 514 557}");
}

// Runs each query through BichromaticTreeRS: `candidates` are stored in
// TRS order and `competitors` as generated, on one disk of 1 KiB pages,
// with `pages` of memory.
Observed RunBichromaticTree(const Dataset& candidates,
                            const Dataset& competitors,
                            const SimilaritySpace& space,
                            const std::vector<Object>& queries, uint64_t pages,
                            const RSOptions& base = {}) {
  SimulatedDisk disk(1024);
  auto prepared = PrepareDataset(&disk, candidates, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  auto stored = StoredDataset::Create(&disk, competitors, "competitors");
  NMRS_CHECK(stored.ok()) << stored.status();
  RSOptions opts = base;
  opts.memory.pages = pages;
  opts.attr_order = prepared->attr_order;
  Observed out;
  for (const Object& q : queries) {
    auto r = BichromaticTreeRS(prepared->stored, *stored, space, q, opts);
    NMRS_CHECK(r.ok()) << r.status();
    out.Add(*r);
  }
  return out;
}

// The bichromatic tree (paper Alg. 5 over a candidate AL-Tree, streaming
// the competitors) on all attributes, at two budgets that load the
// candidates in several batches.
TEST(TrsPinnedCountersTest, BichromaticAllAttributes) {
  const testing::RandomInstance inst(413, 3000, {6, 7, 8});
  Rng rng(414);
  const Dataset competitors = GenerateUniform(700, {6, 7, 8}, rng);
  const std::vector<Object> queries = Queries(inst.data, 418, 3);
  const struct {
    uint64_t pages;
    Counters want;
  } runs[] = {
      {2, {11318, 11318, 0, 0, 0, 0, 0, 0, 9, 0, 0, 54, 285, 18, 0, 0, 0, 0, 0,
           0, 0, 0, 0}},
      {3, {10823, 10823, 0, 0, 0, 0, 0, 0, 6, 0, 0, 54, 249, 12, 0, 0, 0, 0, 0,
           0, 0, 0, 0}},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.pages);
    const Observed got = RunBichromaticTree(inst.data, competitors, inst.space,
                                            queries, run.pages);
    EXPECT_EQ(got.counters, run.want);
    EXPECT_EQ(got.rows,
              "{208 397 647 883 1053 1086 1089 1119 1280 1318 1356 1570 1680 "
              "1706 1825 1902 2157 2332 2409 2538 2647 2658 2854 2908} {7 34 "
              "522 542 605 617 688 1175 1200 1211 1250 1267 1288 1427 1518 "
              "1845 1924 1996 2448 2580 2620 2677} {34 522 542 1267 1924 1996 "
              "2448 2677}");
  }
}

// The bichromatic tree under a categorical subset (paper §5.6): the
// unselected level passes every child through.
TEST(TrsPinnedCountersTest, BichromaticCategoricalSubset) {
  const testing::RandomInstance inst(413, 3000, {6, 7, 8});
  Rng rng(414);
  const Dataset competitors = GenerateUniform(700, {6, 7, 8}, rng);
  const std::vector<Object> queries = Queries(inst.data, 418, 3);
  const struct {
    uint64_t pages;
    Counters want;
  } runs[] = {
      {2, {9532, 9532, 0, 0, 0, 0, 0, 0, 9, 0, 0, 311, 285, 18, 0, 0, 0, 0, 0,
           0, 0, 0, 0}},
      {3, {8819, 8819, 0, 0, 0, 0, 0, 0, 6, 0, 0, 311, 249, 12, 0, 0, 0, 0, 0,
           0, 0, 0, 0}},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.pages);
    RSOptions opts;
    opts.selected_attrs = {0, 2};
    const Observed got = RunBichromaticTree(inst.data, competitors, inst.space,
                                            queries, run.pages, opts);
    EXPECT_EQ(got.counters, run.want);
    EXPECT_EQ(got.rows,
              "{5 8 28 63 65 79 96 119 141 186 187 195 198 199 208 210 217 221 "
              "241 247 255 303 319 327 369 376 383 394 397 408 409 438 456 458 "
              "467 519 572 582 585 589 597 623 628 647 653 691 713 720 721 723 "
              "734 754 756 788 795 804 809 812 823 841 856 860 862 863 908 915 "
              "920 939 966 1030 1047 1077 1086 1092 1095 1105 1110 1112 1147 "
              "1205 1230 1234 1298 1309 1316 1331 1346 1356 1359 1363 1377 "
              "1384 1391 1395 1450 1462 1570 1601 1602 1633 1647 1650 1680 "
              "1694 1731 1768 1773 1810 1817 1823 1825 1848 1857 1902 1908 "
              "1945 1955 2010 2019 2057 2078 2079 2080 2121 2129 2142 2143 "
              "2144 2157 2182 2223 2237 2238 2283 2314 2317 2351 2363 2373 "
              "2395 2409 2446 2467 2470 2478 2487 2510 2514 2534 2629 2667 "
              "2671 2674 2692 2735 2746 2766 2770 2778 2792 2852 2853 2854 "
              "2884 2908 2923 2946 2968 2983} {7 34 81 127 148 180 284 294 474 "
              "522 542 545 605 617 631 664 688 704 738 740 742 799 857 859 980 "
              "1022 1175 1200 1211 1250 1267 1288 1370 1427 1493 1511 1518 "
              "1744 1767 1845 1855 1924 1996 2007 2075 2198 2253 2266 2276 "
              "2286 2345 2352 2427 2430 2448 2458 2494 2547 2564 2580 2601 "
              "2620 2634 2677 2727 2736 2748 2785 2861 2893 2925} {7 34 81 127 "
              "148 180 284 294 474 522 542 545 605 617 631 664 688 704 738 740 "
              "742 799 857 859 980 1022 1175 1200 1211 1250 1267 1288 1370 "
              "1427 1493 1511 1518 1744 1767 1845 1855 1924 1996 2007 2075 "
              "2198 2253 2266 2276 2286 2345 2352 2427 2430 2448 2458 2494 "
              "2547 2564 2580 2601 2620 2634 2677 2727 2736 2748 2785 2861 "
              "2893 2925}");
  }
}

// The bichromatic tree over a mixed schema: bucket bounds on the numeric
// levels and an exact test of each admitted leaf entry.
TEST(TrsPinnedCountersTest, BichromaticNumericSchema) {
  Rng rng(416);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const Dataset candidates = MixedData(data_rng);
  const Dataset competitors = GenerateMixed(300, {5, 4}, 2, 4, data_rng);
  const SimilaritySpace space = MixedSpace(space_rng);
  const std::vector<Object> queries = Queries(candidates, 417, 3);
  const struct {
    uint64_t pages;
    Counters want;
  } runs[] = {
      {2, {60795, 60795, 0, 0, 0, 0, 0, 0, 51, 0, 0, 127, 867, 102, 0, 0, 0, 0,
           0, 0, 0, 0, 0}},
      {4, {52276, 52276, 0, 0, 0, 0, 0, 0, 21, 0, 0, 127, 417, 42, 0, 0, 0, 0,
           0, 0, 0, 0, 0}},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.pages);
    const Observed got = RunBichromaticTree(candidates, competitors, space,
                                            queries, run.pages);
    EXPECT_EQ(got.counters, run.want);
    EXPECT_EQ(got.rows,
              "{10 11 40 52 53 69 72 79 103 112 116 120 128 133 142 144 154 "
              "169 193 196 201 207 231 254 256 267 276 284 309 312 313 316 323 "
              "324 330 349 354 376 378 380 394 419 423 430 441 445 447 456 459 "
              "463 483 501 502 537 549 556 568 589} {11 20 21 24 35 77 89 114 "
              "118 155 159 187 248 252 256 284 301 317 328 332 336 349 352 377 "
              "431 437 463 468 489 490 515 517 518 551 579 584 585} {25 28 58 "
              "119 120 132 135 183 184 188 203 206 218 251 252 290 305 343 350 "
              "356 357 375 387 417 444 461 466 499 504 544 573 580}");
  }
}

// Two shards, all-categorical: each shard's AL-Tree index fits the default
// budget, so the engine answers TRS resident from it, and the verify round
// answers foreign candidates from the same trees. Re-pinned when the
// scatter became resident (the rows did not move):
//  * checks 13893 -> 20245 and phase1_checks 109 -> 19079: every leaf now
//    gets a full tree search (one pair test each, so pair_tests stay 1356);
//    the kernel probe that resolved most leaves in 3323 scalar rows and 6
//    promotions does not run (kernel_promotions and kernel_scalar_rows 0);
//  * phase2_checks 13784 -> 1166: only the exchange verify's checks are
//    left; TRS phase 2 over the shard's pages is gone (phase2_batches
//    4 -> 0); phase1_batches (8), phase1_survivors and result_size (68) hold;
//  * per-query IO 12/20/0/8 (seq/rand reads, seq/rand writes) -> 0: no
//    phase-1 load, phase-2 scan, survivor spill or export scan;
//  * total_io 14/22/0/8 -> 2/2/0/0: only the two one-time tree builds, one
//    random and one sequential read of each 2-page shard.
TEST(TrsPinnedCountersTest, TwoShardsWithVerifyIndex) {
  const testing::RandomInstance inst(407, 4000, {6, 7, 8});
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ShardPlanOptions plan;
  plan.num_shards = 2;
  auto sharded = ShardedDataset::Partition(*prepared, plan);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  QueryEngine engine(*sharded, inst.space, Algorithm::kTRS, EngineOptions{});
  auto batch = engine.RunBatch(Queries(inst.data, 408, 4));
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(batch->ok()) << batch->first_error();
  EXPECT_GT(engine.shard_index_bytes(0), 0u);
  EXPECT_GT(engine.shard_index_bytes(1), 0u);

  Observed got;
  for (const ReverseSkylineResult& r : batch->results) got.Add(r);
  QueryStats total;
  total.io = batch->total_io;
  Counters total_io{};
  total_io.Add(total);
  EXPECT_EQ(got.counters,
            (Counters{6110, 4944, 1166, 1356, 0, 0, 0, 0, 8, 68, 0, 68, 0, 0,
                      0, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(total_io, (Counters{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0,
                                0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(got.rows,
            "{3751} {0 96 97 191 290 325 461 510 549 703 780 812 817 840 876 "
            "950 1117 1177 1250 1258 1376 1500 1648 1720 1747 1792 1908 2030 "
            "2111 2230 2434 2508 2541 2606 2683 2860 3194 3198 3225 3393 3570 "
            "3671 3726 3740 3806 3846 3852 3895 3993} "
            "{190 248 750 1772 1942 2877 3124 3327 3522} "
            "{93 297 984 1400 2100 2406 2630 2792 2893}");
}

}  // namespace
}  // namespace nmrs
