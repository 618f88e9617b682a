// Batched online phase: ranks many queries against the finalized metagraph
// vector index in one pass, amortizing the index walks a per-query
// SearchEngine::Query() repays on every call.
//
// There is ONE batched scorer, BatchRankByProximityMulti; the
// single-model BatchRankByProximity is a wrapper that calls it with one
// model. RankByProximity (learning/proximity.h), which Query() and
// training use, stays the paper-literal oracle every batched result is
// held bitwise equal to. The core follows the oracle's guard order:
//
//   1. duplicate (query, model) pairs are collapsed and scored once;
//   2. pair dots first: each query node's candidate postings are walked
//      once, and each candidate's pair row (read through its finalized
//      slot, no hash probe) is scored under every model of that node's
//      queries in one multi-weight kernel call (core/score_kernels.h);
//   3. node dots on demand: a candidate whose numerator is <= 0 under
//      every one of those models is dropped, exactly as the oracle skips
//      its m_y . w. Only the survivors and their query nodes are marked in
//      the epoch-marked BatchScratch, and each marked row's m_x . w is
//      computed once for all models, however many candidate sets share
//      it;
//   4. each (query, model) applies the oracle's denominator guard and
//      ranking order to its survivors.
//
// Callers that serve several k at once rank at the largest k and cut each
// answer to its own k: ProximityRankBefore is a total order, so the top-k
// for a smaller k is a prefix of the top-k for a larger one.
//
// Determinism contract (the batched counterpart of the offline pipeline's
// contract in docs/ARCHITECTURE.md): for any batch composition, model mix
// and thread count, result i is IDENTICAL — same nodes, same (bitwise)
// scores, same tie-break order — to RankByProximity(index,
// models[model_of[i]], queries[i], Candidates(queries[i]), k), i.e. to
// what SearchEngine::Query(model, queries[i], k) returns. Every dot
// product — per-query or batched, scalar or SIMD — evaluates through the
// same score kernel with the same canonical accumulation, and the shared
// ProximityRankBefore order is total, so neither parallelism nor kernel
// dispatch has anything to reorder.
#ifndef METAPROX_CORE_QUERY_BATCH_H_
#define METAPROX_CORE_QUERY_BATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "index/metagraph_vectors.h"
#include "util/macros.h"
#include "util/thread_pool.h"

namespace metaprox {

/// Top-k results for one query of a batch: (node, proximity) entries in
/// ProximityRankBefore order, proximity > 0 only.
using QueryResult = std::vector<std::pair<NodeId, double>>;

/// Reusable epoch-marked scratch for the batched online path: the
/// batch-wide node mark and node-dot cache, dense over the graph's nodes
/// but allocated once and never cleared between batches. BeginBatch()
/// bumps an epoch instead of zeroing, so a long-lived caller (the query
/// server's batch loop, SearchEngine::BatchQuery) pays O(rows touched) per
/// batch — not O(|V|) — which is what makes tiny batches on
/// multi-million-node graphs cheap.
///
/// The cache holds num_models dots per node (node_dots_[x * m + model]),
/// epoch-marked per NODE (one gather fills a row's m dots together). It
/// grows monotonically to the largest (nodes x models) seen and the epoch
/// expires stale layouts, so alternating single- and multi-model batches
/// never reallocates back and forth.
///
/// A scratch belongs to ONE caller at a time: concurrent batch calls must
/// use distinct scratches. (The gather pass's workers may write dots of
/// distinct nodes concurrently; marking stays on the coordinating
/// thread.)
class BatchScratch {
 public:
  BatchScratch() = default;
  // Movable (so owners like SearchEngine stay movable) but not copyable —
  // a copy would silently double the O(|V|) tables.
  BatchScratch(BatchScratch&&) = default;
  BatchScratch& operator=(BatchScratch&&) = default;
  MX_DISALLOW_COPY_AND_ASSIGN(BatchScratch);

  /// Starts a new batch over a graph of `num_nodes` nodes, caching
  /// `num_models` dots per touched node. Previous marks and cached dots
  /// expire in O(1) (epoch bump, no per-node clear); tables are
  /// (re)allocated only when `num_nodes` changes or the dot cache must
  /// grow. The touched list's capacity is pre-reserved to the high-water
  /// mark of earlier batches, so a long-lived serving scratch stops
  /// paying re-growth churn after warm-up.
  void BeginBatch(size_t num_nodes, size_t num_models = 1);

  /// Marks x as touched by the current batch; returns true on x's first
  /// touch since BeginBatch(). Stale marks from earlier batches are
  /// invisible (their epoch differs), so no state leaks across calls.
  bool MarkTouched(NodeId x) {
    if (epoch_of_[x] == epoch_) return false;
    epoch_of_[x] = epoch_;
    touched_.push_back(x);
    return true;
  }

  /// Rows marked since BeginBatch(), in first-touch order.
  std::span<const NodeId> touched() const { return touched_; }
  /// Current capacity of the touched list (>= the high-water mark of past
  /// batches; exposed so tests can pin the no-regrowth behavior).
  size_t touched_capacity() const { return touched_.capacity(); }

  /// Models per node this batch caches (BeginBatch's num_models).
  size_t num_models() const { return num_models_; }

  /// The num_models()-wide dot row of a marked node: NodeDots(x)[m] is
  /// m_x . w_m. MutableNodeDots is the gather pass's write target (rows of
  /// distinct nodes may be written concurrently). Reading an unmarked row
  /// is a bug (it may hold stale dots from an earlier batch); debug builds
  /// check (MX_DCHECK).
  double* MutableNodeDots(NodeId x) {
    return node_dots_.data() + static_cast<size_t>(x) * num_models_;
  }
  const double* NodeDots(NodeId x) const {
    MX_DCHECK(epoch_of_[x] == epoch_);
    return node_dots_.data() + static_cast<size_t>(x) * num_models_;
  }

 private:
  uint64_t epoch_ = 0;  // 0 = no batch yet; epoch_of_ entries start at 0
  std::vector<uint64_t> epoch_of_;  // epoch_of_[x] == epoch_ <=> x touched
  std::vector<double> node_dots_;   // [x * num_models_ + m], valid if marked
  std::vector<NodeId> touched_;
  size_t num_models_ = 1;
  size_t touched_high_water_ = 0;  // max touched_.size() across batches
};

/// Accounting of one BatchRankByProximityMulti call, for callers (the
/// query server, benches) that surface what a window cost.
struct BatchMultiStats {
  /// Node rows the window dotted (once each, under all models): the query
  /// nodes and candidates that survived the pair-dot guard.
  uint64_t rows_gathered = 0;
};

/// The batched scorer: ranks queries[i] under models[model_of[i]] (N
/// weight vectors, each of the index's weight count) over its candidate
/// set, returning one QueryResult per query (aligned with `queries`,
/// duplicates included). Requires a finalized index. Result i is
/// identical — same nodes, same bitwise scores, same tie-break order — to
/// RankByProximity under model_of[i]'s weights, for any window
/// composition, model mix, thread count and kernel. With a non-null
/// `pool` the passes run on its workers; with a non-null `scratch` the
/// batch reuses that scratch's tables instead of allocating O(|V|) fresh
/// ones. Neither changes any result.
std::vector<QueryResult> BatchRankByProximityMulti(
    const MetagraphVectorIndex& index,
    std::span<const std::span<const double>> models,
    std::span<const NodeId> queries, std::span<const uint32_t> model_of,
    size_t k, util::ThreadPool* pool = nullptr, BatchScratch* scratch = nullptr,
    BatchMultiStats* stats = nullptr);

/// BatchRankByProximityMulti with one model for every query.
std::vector<QueryResult> BatchRankByProximity(
    const MetagraphVectorIndex& index, std::span<const double> weights,
    std::span<const NodeId> queries, size_t k, util::ThreadPool* pool = nullptr,
    BatchScratch* scratch = nullptr);

}  // namespace metaprox

#endif  // METAPROX_CORE_QUERY_BATCH_H_
