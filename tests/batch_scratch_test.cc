// The sparse (epoch-marked) batch scratch: BatchRankByProximity with a
// reused BatchScratch must return results IDENTICAL to the per-query
// sequential path and to fresh-scratch runs, for tiny batches on a large
// graph (the configuration the scratch exists for) and across arbitrary
// sequences of reusing calls — stale epochs must never leak one batch's
// marks or cached dots into the next.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/simple.h"
#include "core/engine.h"
#include "core/query_batch.h"
#include "datagen/facebook.h"
#include "learning/proximity.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

struct Pipeline {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  MgpModel model;
  std::vector<NodeId> users;
};

// A graph large relative to any batch's touched rows (~1.3k nodes vs.
// batches of 1-3 queries), matched once and shared by every test (the
// batch path only reads the finalized index).
const Pipeline& SharedPipeline() {
  static const Pipeline* pipeline = [] {
    auto* p = new Pipeline();
    datagen::FacebookConfig cfg;
    cfg.num_users = 600;
    p->ds = datagen::GenerateFacebook(cfg, 11);

    EngineOptions options;
    options.miner.anchor_type = p->ds.user_type;
    options.miner.min_support = 6;
    options.miner.max_nodes = 3;  // paths only: keeps matching cheap
    p->engine = std::make_unique<SearchEngine>(p->ds.graph, options);
    p->engine->Mine();
    p->engine->MatchAll();
    p->model.weights = UniformWeights(p->engine->index());

    auto pool = p->ds.graph.NodesOfType(p->ds.user_type);
    p->users.assign(pool.begin(), pool.end());
    return p;
  }();
  return *pipeline;
}

void ExpectIdenticalToSequential(std::span<const NodeId> queries, size_t k,
                                 const std::vector<QueryResult>& batched) {
  const Pipeline& p = SharedPipeline();
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult sequential = p.engine->Query(p.model, queries[i], k);
    ASSERT_EQ(batched[i].size(), sequential.size())
        << "query #" << i << " (node " << queries[i] << ")";
    for (size_t r = 0; r < sequential.size(); ++r) {
      EXPECT_EQ(batched[i][r].first, sequential[r].first)
          << "query #" << i << " rank " << r;
      EXPECT_EQ(batched[i][r].second, sequential[r].second)
          << "query #" << i << " rank " << r;
    }
  }
}

TEST(BatchScratch, TinyBatchesOnLargeGraphMatchSequential) {
  const Pipeline& p = SharedPipeline();
  util::ThreadPool four_threads(4);
  // ONE scratch reused across every batch size, pool flavor and
  // repetition — exactly the serving-loop usage the scratch is for.
  BatchScratch scratch;
  for (size_t batch_size : {size_t{1}, size_t{3}}) {
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &four_threads}) {
      for (size_t offset : {size_t{0}, size_t{17}, size_t{130}}) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << batch_size << ", offset " << offset
                     << (pool ? ", pooled" : ", no pool"));
        std::vector<NodeId> queries;
        for (size_t i = 0; i < batch_size; ++i) {
          queries.push_back(p.users[(offset + i) % p.users.size()]);
        }
        auto batched = BatchRankByProximity(
            p.engine->index(), p.model.weights, queries, /*k=*/10, pool,
            &scratch);
        ExpectIdenticalToSequential(queries, 10, batched);
      }
    }
  }
}

TEST(BatchScratch, ReuseAcrossCallsDoesNotLeakStaleState) {
  const Pipeline& p = SharedPipeline();
  const std::vector<NodeId> batch_a = {p.users[0], p.users[1], p.users[2]};
  const std::vector<NodeId> batch_b = {p.users[40], p.users[41]};

  // Fresh-scratch references for both batches.
  auto fresh_a = BatchRankByProximity(p.engine->index(), p.model.weights,
                                      batch_a, 10);
  auto fresh_b = BatchRankByProximity(p.engine->index(), p.model.weights,
                                      batch_b, 10);

  // The same scratch serving A, then B, then A again (disjoint and
  // overlapping touched sets, alternating k in between to move the epoch):
  // every call must reproduce the fresh-scratch results exactly.
  BatchScratch scratch;
  auto reused_a1 = BatchRankByProximity(p.engine->index(), p.model.weights,
                                        batch_a, 10, nullptr, &scratch);
  EXPECT_EQ(reused_a1, fresh_a);
  auto reused_b = BatchRankByProximity(p.engine->index(), p.model.weights,
                                       batch_b, 10, nullptr, &scratch);
  EXPECT_EQ(reused_b, fresh_b);
  // A smaller k in between must not perturb later full-k results.
  (void)BatchRankByProximity(p.engine->index(), p.model.weights, batch_b, 2,
                             nullptr, &scratch);
  auto reused_a2 = BatchRankByProximity(p.engine->index(), p.model.weights,
                                        batch_a, 10, nullptr, &scratch);
  EXPECT_EQ(reused_a2, fresh_a);
  ExpectIdenticalToSequential(batch_a, 10, reused_a2);
}

TEST(BatchScratch, EngineBatchQueryReusesItsScratch) {
  Pipeline& p = const_cast<Pipeline&>(SharedPipeline());
  // Back-to-back engine BatchQuery calls share the engine's scratch; each
  // must match per-query Query() regardless of what ran before.
  const std::vector<NodeId> first = {p.users[5], p.users[9], p.users[5]};
  const std::vector<NodeId> second = {p.users[100]};
  ExpectIdenticalToSequential(first, 10, p.engine->BatchQuery(p.model, first, 10));
  ExpectIdenticalToSequential(second, 10,
                              p.engine->BatchQuery(p.model, second, 10));
  ExpectIdenticalToSequential(first, 10, p.engine->BatchQuery(p.model, first, 10));
}

TEST(BatchScratch, EpochSemantics) {
  BatchScratch scratch;
  scratch.BeginBatch(8);
  EXPECT_TRUE(scratch.touched().empty());
  EXPECT_TRUE(scratch.MarkTouched(3));
  EXPECT_FALSE(scratch.MarkTouched(3));  // second touch, same batch
  EXPECT_TRUE(scratch.MarkTouched(7));
  *scratch.MutableNodeDots(3) = 0.5;
  *scratch.MutableNodeDots(7) = -1.25;
  EXPECT_EQ(scratch.NodeDots(3)[0], 0.5);
  EXPECT_EQ(scratch.NodeDots(7)[0], -1.25);
  ASSERT_EQ(scratch.touched().size(), 2u);
  EXPECT_EQ(scratch.touched()[0], 3u);
  EXPECT_EQ(scratch.touched()[1], 7u);

  // New batch: all marks expire without any clearing pass.
  scratch.BeginBatch(8);
  EXPECT_TRUE(scratch.touched().empty());
  EXPECT_TRUE(scratch.MarkTouched(3));
  *scratch.MutableNodeDots(3) = 2.0;
  EXPECT_EQ(scratch.NodeDots(3)[0], 2.0);

  // Different graph size: tables resize, marks expire.
  scratch.BeginBatch(20);
  EXPECT_TRUE(scratch.touched().empty());
  EXPECT_TRUE(scratch.MarkTouched(19));
  EXPECT_TRUE(scratch.MarkTouched(3));

  // Back to the original size: still no stale marks (the resize path
  // reset the epoch, the bump path advanced it — either way fresh).
  scratch.BeginBatch(8);
  EXPECT_TRUE(scratch.MarkTouched(3));
}

TEST(BatchScratch, MultiModelDotRows) {
  BatchScratch scratch;
  scratch.BeginBatch(8, 3);
  EXPECT_EQ(scratch.num_models(), 3u);
  EXPECT_TRUE(scratch.MarkTouched(5));
  double* dots = scratch.MutableNodeDots(5);
  dots[0] = 1.0;
  dots[1] = 2.0;
  dots[2] = 3.0;
  EXPECT_EQ(scratch.NodeDots(5)[0], 1.0);
  EXPECT_EQ(scratch.NodeDots(5)[1], 2.0);
  EXPECT_EQ(scratch.NodeDots(5)[2], 3.0);

  // Narrowing back to one model: same node id maps to a different slot in
  // the packed layout; the epoch must have expired the old row.
  scratch.BeginBatch(8, 1);
  EXPECT_EQ(scratch.num_models(), 1u);
  EXPECT_TRUE(scratch.MarkTouched(5));
  *scratch.MutableNodeDots(5) = 7.5;
  EXPECT_EQ(scratch.NodeDots(5)[0], 7.5);
}

TEST(BatchScratch, TouchedCapacityHoldsTheHighWaterMark) {
  BatchScratch scratch;
  scratch.BeginBatch(64);
  for (NodeId x = 0; x < 40; ++x) scratch.MarkTouched(x);
  // The NEXT batch reserves at least the previous batch's touched count up
  // front, so a serving loop stops re-growing the list after warm-up.
  scratch.BeginBatch(64);
  EXPECT_GE(scratch.touched_capacity(), 40u);
  const size_t warm_capacity = scratch.touched_capacity();
  for (NodeId x = 0; x < 40; ++x) scratch.MarkTouched(x);
  EXPECT_EQ(scratch.touched_capacity(), warm_capacity)
      << "a batch no larger than the high-water mark must not reallocate";
}

TEST(BatchScratchDeathTest, ReadingAnUnmarkedRowDiesInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "MX_DCHECK is compiled out in NDEBUG builds";
#else
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  // Pre-1.12 GoogleTest (e.g. a system install) has no GTEST_FLAG_SET.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  BatchScratch scratch;
  scratch.BeginBatch(8);
  scratch.MarkTouched(3);
  *scratch.MutableNodeDots(3) = 1.0;
  // Node 4 was never marked this batch: its slot may hold a stale dot from
  // an earlier epoch, so the read must be rejected, not served.
  EXPECT_DEATH((void)scratch.NodeDots(4), "");
#endif
}

}  // namespace
}  // namespace metaprox
