#include "core/query_batch.h"

#include <algorithm>
#include <cstdint>

#include "core/score_kernels.h"
#include "learning/proximity.h"
#include "util/macros.h"
#include "util/parallel_for.h"

namespace metaprox {

void BatchScratch::BeginBatch(size_t num_nodes, size_t num_models) {
  MX_CHECK(num_models >= 1);
  if (epoch_of_.size() != num_nodes) {
    // Different graph (or first use): full (re)allocation. Epoch restarts
    // at 1 with every mark at 0, so nothing from the old graph survives.
    epoch_of_.assign(num_nodes, 0);
    epoch_ = 0;
  }
  num_models_ = num_models;
  // The dot cache only ever grows (to the largest nodes x models layout
  // seen); stale contents need no zeroing — the epoch gates every read.
  if (node_dots_.size() < num_nodes * num_models_) {
    node_dots_.resize(num_nodes * num_models_);
  }
  ++epoch_;
  touched_high_water_ = std::max(touched_high_water_, touched_.size());
  touched_.clear();
  touched_.reserve(touched_high_water_);
}

std::vector<QueryResult> BatchRankByProximityMulti(
    const MetagraphVectorIndex& index,
    std::span<const std::span<const double>> models,
    std::span<const NodeId> queries, std::span<const uint32_t> model_of,
    size_t k, util::ThreadPool* pool, BatchScratch* scratch,
    BatchMultiStats* stats) {
  MX_CHECK(model_of.size() == queries.size());
  MX_CHECK(!models.empty());
  const size_t n_models = models.size();
  for (std::span<const double> w : models) {
    MX_CHECK(w.size() == index.num_metagraphs());
  }
  if (stats != nullptr) *stats = BatchMultiStats{};

  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;

  const size_t num_nodes = index.num_graph_nodes();
  for (size_t i = 0; i < queries.size(); ++i) {
    MX_CHECK(queries[i] < num_nodes);
    MX_CHECK(model_of[i] < n_models);
  }

  // One-shot callers pay a fresh O(|V|) allocation here; callers in a
  // serving loop pass a long-lived scratch and pay only for the rows this
  // batch actually touches.
  BatchScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;

  // Duplicates of a (query, model) pair share one scored result: collapse
  // to sorted unique pairs. Sorting by (node, model) also groups a node's
  // models contiguously, and keeps the scatter a binary search.
  std::vector<std::pair<NodeId, uint32_t>> uniq;
  uniq.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    uniq.emplace_back(queries[i], model_of[i]);
  }
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  // One group per distinct query node: group g spans
  // uniq[group_begin[g] .. group_begin[g + 1]) (sentinel at the end).
  std::vector<size_t> group_begin;
  for (size_t i = 0; i < uniq.size(); ++i) {
    if (i == 0 || uniq[i].first != uniq[i - 1].first) group_begin.push_back(i);
  }
  group_begin.push_back(uniq.size());
  const size_t n_groups = group_begin.size() - 1;

  kernels::MultiWeightSet wset;
  wset.Assign(models);
  const kernels::RowTransform transform = index.row_transform();

  // Pair pass: walk each query node's candidate postings once, scoring
  // each pair row under all models in one kernel call. A candidate
  // survives when its numerator is > 0 under at least one of the group's
  // models — the oracle's first guard — and keeps one numerator per
  // member: numers[c * members + j].
  struct Survivors {
    std::vector<NodeId> nodes;
    std::vector<double> numers;
  };
  std::vector<Survivors> survivors(n_groups);
  util::ParallelChunks(pool, n_groups, [&](size_t begin, size_t end) {
    std::vector<double> lanes(wset.lane_scratch_size());
    std::vector<double> pair_dots(n_models);
    for (size_t g = begin; g < end; ++g) {
      const NodeId q = uniq[group_begin[g]].first;
      const std::span<const NodeId> candidates = index.Candidates(q);
      const std::span<const uint32_t> slots = index.CandidateSlots(q);
      Survivors& s = survivors[g];
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i] == q) continue;
        kernels::RowDotMulti(index.PairRow(slots[i]), wset, transform,
                             pair_dots.data(), lanes.data());
        const size_t mark = s.numers.size();
        bool any = false;
        for (size_t j = group_begin[g]; j < group_begin[g + 1]; ++j) {
          const double numer = 2.0 * pair_dots[uniq[j].second];
          s.numers.push_back(numer);
          any |= numer > 0.0;
        }
        if (any) {
          s.nodes.push_back(candidates[i]);
        } else {
          s.numers.resize(mark);
        }
      }
    }
  });

  // Mark the node rows the denominators will read: every survivor and its
  // query node, once each however many groups share it. Marking stays on
  // this thread (the scratch's contract).
  scratch->BeginBatch(num_nodes, n_models);
  for (size_t g = 0; g < n_groups; ++g) {
    if (survivors[g].nodes.empty()) continue;
    scratch->MarkTouched(uniq[group_begin[g]].first);
    for (NodeId y : survivors[g].nodes) scratch->MarkTouched(y);
  }

  // Node pass: each marked row's m_x . w under all models, one walk per
  // row. Chunks write disjoint rows (the touched list is duplicate-free).
  const std::span<const NodeId> nodes = scratch->touched();
  if (stats != nullptr) stats->rows_gathered = nodes.size();
  util::ParallelChunks(pool, nodes.size(), [&](size_t begin, size_t end) {
    std::vector<double> lanes(wset.lane_scratch_size());
    for (size_t i = begin; i < end; ++i) {
      kernels::RowDotMulti(index.NodeRow(nodes[i]), wset, transform,
                           scratch->MutableNodeDots(nodes[i]), lanes.data());
    }
  });

  // Scoring pass: each (query, model) applies RankByProximity's guards,
  // arithmetic and ranking order to its group's survivors.
  std::vector<QueryResult> uniq_results(uniq.size());
  util::ParallelChunks(pool, n_groups, [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      const Survivors& s = survivors[g];
      if (s.nodes.empty()) continue;
      const size_t first = group_begin[g];
      const size_t members = group_begin[g + 1] - first;
      const double* q_dots = scratch->NodeDots(uniq[first].first);
      for (size_t j = 0; j < members; ++j) {
        const uint32_t m = uniq[first + j].second;
        QueryResult& scored = uniq_results[first + j];
        scored.reserve(s.nodes.size());
        for (size_t c = 0; c < s.nodes.size(); ++c) {
          const double numer = s.numers[c * members + j];
          if (numer <= 0.0) continue;
          const double denom = q_dots[m] + scratch->NodeDots(s.nodes[c])[m];
          if (denom <= 0.0) continue;
          scored.emplace_back(s.nodes[c], numer / denom);
        }
        const size_t take = std::min(k, scored.size());
        std::partial_sort(scored.begin(),
                          scored.begin() + static_cast<int64_t>(take),
                          scored.end(), ProximityRankBefore);
        scored.resize(take);
      }
    }
  });

  // Scatter back into batch order; duplicates copy the shared result.
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::pair<NodeId, uint32_t> key(queries[i], model_of[i]);
    const size_t pos = static_cast<size_t>(
        std::lower_bound(uniq.begin(), uniq.end(), key) - uniq.begin());
    results[i] = uniq_results[pos];
  }
  return results;
}

std::vector<QueryResult> BatchRankByProximity(
    const MetagraphVectorIndex& index, std::span<const double> weights,
    std::span<const NodeId> queries, size_t k, util::ThreadPool* pool,
    BatchScratch* scratch) {
  const std::span<const double> models[] = {weights};
  const std::vector<uint32_t> model_of(queries.size(), 0);
  return BatchRankByProximityMulti(index, models, queries, model_of, k, pool,
                                   scratch);
}

}  // namespace metaprox
