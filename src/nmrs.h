#ifndef NMRS_NMRS_H_
#define NMRS_NMRS_H_

/// Umbrella header for the nmrs library: efficient reverse-skyline
/// retrieval with arbitrary non-metric similarity measures (reproduction of
/// Deshpande & Deepak P, EDBT 2011).
///
/// It covers the API that `nmrs_cli` and `examples/` use: datasets and
/// similarity spaces, the `Database` front door, the query engine, the
/// reverse-skyline entry points and their options and statistics. Code
/// that reaches below that (storage internals, AL-Tree, metric and ops
/// indexes) includes the module headers directly.

#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/bichromatic.h"
#include "core/dominance_kernel.h"
#include "core/influence.h"
#include "core/pipeline.h"
#include "core/query.h"
#include "core/skyline.h"
#include "core/streaming.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/delta_segment.h"
#include "data/generators.h"
#include "data/object.h"
#include "data/schema.h"
#include "data/stored_dataset.h"
#include "db/database.h"
#include "exec/engine_options.h"
#include "exec/query_engine.h"
#include "order/attribute_order.h"
#include "order/multi_sort.h"
#include "shard/message_stats.h"
#include "shard/shard_plan.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"
#include "sim/numeric_dissimilarity.h"
#include "sim/similarity_space.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/memory_budget.h"

#endif  // NMRS_NMRS_H_
