// The incremental-maintenance path end to end, offline side: GraphDelta
// append/apply determinism, the affected-metagraph computation that makes
// a refresh sound, IndexMaintainer refreshes that must be byte-identical
// to full rebuilds, snapshot pinning across generations, builder misuse
// errors, and the time-sliced arrival replay that feeds the bench and the
// server smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "datagen/arrival.h"
#include "datagen/facebook.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

// A small matched engine over the facebook generator — the shared base
// of the maintainer tests (each test builds its own maintainer; the
// engine itself is never mutated).
struct Base {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  std::vector<NodeId> users;
};

const Base& SharedBase() {
  static const Base* base = [] {
    auto* b = new Base();
    datagen::FacebookConfig cfg;
    cfg.num_users = 100;
    b->ds = datagen::GenerateFacebook(cfg, 11);
    EngineOptions options;
    options.miner.anchor_type = b->ds.user_type;
    options.miner.min_support = 3;
    options.miner.max_nodes = 4;
    b->engine = std::make_unique<SearchEngine>(b->ds.graph, options);
    b->engine->Mine();
    b->engine->MatchAll();
    auto pool = b->ds.graph.NodesOfType(b->ds.user_type);
    b->users.assign(pool.begin(), pool.end());
    return b;
  }();
  return *base;
}

std::string IndexBytes(const MetagraphVectorIndex& index) {
  std::ostringstream os;
  EXPECT_TRUE(index.WriteTo(os).ok());
  return os.str();
}

/// Re-matches every metagraph of `engine` over `graph` from scratch — the
/// oracle a refresh must be indistinguishable from.
MetagraphVectorIndex RebuildAll(const SearchEngine& engine,
                                const Graph& graph) {
  const auto& mined = engine.metagraphs();
  MetagraphVectorIndex index(mined.size(), graph.num_nodes(),
                             engine.index().transform(), /*num_shards=*/1);
  auto matcher = CreateMatcher(engine.options().matcher);
  for (uint32_t i = 0; i < mined.size(); ++i) {
    SymPairCountingSink sink(mined[i].symmetry,
                             engine.options().embedding_cap);
    matcher->Match(graph, mined[i].graph, &sink);
    index.Commit(i, sink, mined[i].symmetry.aut_size());
  }
  index.Seal();
  index.Finalize();
  return index;
}

// ---- GraphDelta -----------------------------------------------------------

TEST(GraphDelta, AssignsIdsUpFrontAndValidatesEdges) {
  auto t = testing::MakeToyGraph();
  GraphDelta delta(t.graph.num_nodes());
  const NodeId a = delta.AddNode("user", "Zoe");
  const NodeId b = delta.AddNode("hobby", "Chess");
  EXPECT_EQ(a, t.graph.num_nodes());
  EXPECT_EQ(b, t.graph.num_nodes() + 1);

  EXPECT_TRUE(delta.AddEdge(t.alice, a).ok());   // existing <-> new
  EXPECT_TRUE(delta.AddEdge(a, b).ok());         // new <-> new
  EXPECT_FALSE(delta.AddEdge(a, a).ok());        // self-loop
  EXPECT_FALSE(delta.AddEdge(b + 1, a).ok());    // beyond the delta
  EXPECT_EQ(delta.edges.size(), 2u);
}

TEST(GraphDelta, ApplyEqualsFromScratchBuild) {
  auto t = testing::MakeToyGraph();
  GraphDelta delta(t.graph.num_nodes());
  const NodeId zoe = delta.AddNode("user", "Zoe");
  ASSERT_TRUE(delta.AddEdge(zoe, t.alice).ok());
  ASSERT_TRUE(delta.AddEdge(zoe, t.college_a).ok());
  ASSERT_TRUE(delta.AddEdge(t.tom, t.music).ok());  // between existing nodes

  auto grown = ApplyDelta(t.graph, delta);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();

  // From scratch: the toy graph's content plus the delta's, one builder.
  auto t2 = testing::MakeToyGraph();  // fresh builder state, same content
  GraphBuilder scratch;
  for (const std::string& name : t.graph.type_registry().names()) {
    scratch.InternType(name);
  }
  for (NodeId v = 0; v < t.graph.num_nodes(); ++v) {
    scratch.AddNode(t.graph.TypeOf(v), t.graph.NameOf(v));
  }
  const NodeId zoe2 = scratch.AddNode(t2.user, "Zoe");
  for (NodeId v = 0; v < t.graph.num_nodes(); ++v) {
    for (NodeId w : t.graph.Neighbors(v)) {
      if (v < w) {
        ASSERT_TRUE(scratch.AddEdge(v, w).ok());
      }
    }
  }
  ASSERT_TRUE(scratch.AddEdge(zoe2, t2.alice).ok());
  ASSERT_TRUE(scratch.AddEdge(zoe2, t2.college_a).ok());
  ASSERT_TRUE(scratch.AddEdge(t2.tom, t2.music).ok());
  Graph expected = scratch.Build();

  ASSERT_EQ(grown->num_nodes(), expected.num_nodes());
  ASSERT_EQ(grown->num_edges(), expected.num_edges());
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    EXPECT_EQ(grown->TypeOf(v), expected.TypeOf(v)) << "node " << v;
    auto a = grown->Neighbors(v);
    auto b = expected.Neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "node " << v;
  }
}

TEST(GraphDelta, ApplyRefusesAMisprimedDelta) {
  auto t = testing::MakeToyGraph();
  GraphDelta delta(t.graph.num_nodes() + 3);  // primed against a bigger graph
  delta.AddNode("user");
  auto grown = ApplyDelta(t.graph, delta);
  EXPECT_FALSE(grown.ok());
}

// ---- GraphBuilder misuse --------------------------------------------------

TEST(GraphBuilder, AddEdgeAfterBuildIsAStructuredError) {
  GraphBuilder builder;
  const TypeId user = builder.InternType("user");
  const NodeId a = builder.AddNode(user);
  const NodeId b = builder.AddNode(user);
  ASSERT_TRUE(builder.AddEdge(a, b).ok());
  Graph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 1u);

  auto status = builder.AddEdge(a, b);
  EXPECT_FALSE(status.ok());
  // The error must route the caller to the supported path.
  EXPECT_NE(status.ToString().find("GraphDelta"), std::string::npos)
      << status.ToString();

  // Build() hands its content to the graph; a fresh AddNode re-arms the
  // builder for a NEW graph from scratch (types re-interned).
  const TypeId user_again = builder.InternType("user");
  const NodeId c = builder.AddNode(user_again);
  const NodeId d = builder.AddNode(user_again);
  EXPECT_TRUE(builder.AddEdge(c, d).ok());
}

// ---- AffectedMetagraphs ---------------------------------------------------

TEST(AffectedMetagraphs, ExactlyTheTypePairMatches) {
  const Base& base = SharedBase();
  const Graph& g = base.ds.graph;
  const auto& mined = base.engine->metagraphs();
  ASSERT_FALSE(mined.empty());

  GraphDelta delta(g.num_nodes());
  ASSERT_TRUE(delta.AddEdge(base.users[0], base.users[1]).ok());

  const auto affected =
      IndexMaintainer::AffectedMetagraphs(g, mined, delta);
  // Independent oracle: a metagraph is affected iff it has a user-user
  // edge (the only type pair the delta adds).
  const TypeId user = base.ds.user_type;
  for (uint32_t i = 0; i < mined.size(); ++i) {
    bool has_pair = false;
    for (auto [a, b] : mined[i].graph.Edges()) {
      if (mined[i].graph.TypeOf(a) == user &&
          mined[i].graph.TypeOf(b) == user) {
        has_pair = true;
      }
    }
    const bool listed =
        std::find(affected.begin(), affected.end(), i) != affected.end();
    EXPECT_EQ(listed, has_pair) << "metagraph " << i;
  }
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));

  // An empty delta affects nothing.
  GraphDelta none(g.num_nodes());
  EXPECT_TRUE(IndexMaintainer::AffectedMetagraphs(g, mined, none).empty());
}

// ---- IndexMaintainer ------------------------------------------------------

TEST(IndexMaintainer, RefreshIsByteIdenticalToFullRebuild) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);

  // A mixed delta: one new user wired into the graph plus a new edge
  // between existing users.
  const NodeId fresh = maintainer.AppendNode("user", "newcomer");
  EXPECT_EQ(fresh, base.ds.graph.num_nodes());
  ASSERT_TRUE(maintainer.AppendEdge(fresh, base.users[2]).ok());
  ASSERT_TRUE(maintainer.AppendEdge(fresh, base.users[5]).ok());
  ASSERT_TRUE(maintainer.AppendEdge(base.users[0], base.users[7]).ok());

  RefreshStats stats;
  auto refreshed = maintainer.Refresh(&stats);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(stats.appended_nodes, 1u);
  EXPECT_EQ(stats.appended_edges, 3u);
  EXPECT_GT(stats.affected_metagraphs, 0u);
  EXPECT_LE(stats.affected_metagraphs, base.engine->metagraphs().size());
  EXPECT_EQ((*refreshed)->generation(), 2u);
  EXPECT_EQ((*refreshed)->graph().num_nodes(),
            base.ds.graph.num_nodes() + 1);

  MetagraphVectorIndex rebuilt =
      RebuildAll(*base.engine, (*refreshed)->graph());
  EXPECT_EQ(IndexBytes((*refreshed)->index()), IndexBytes(rebuilt));
}

TEST(IndexMaintainer, RepeatedRefreshesStayByteIdentical) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  for (int round = 0; round < 3; ++round) {
    // Built in two steps: `"r" + std::to_string(...)` trips GCC 12's
    // bogus -Wrestrict on the rvalue operator+ overload.
    std::string name = "r";
    name += std::to_string(round);
    const NodeId fresh = maintainer.AppendNode("user", name);
    ASSERT_TRUE(
        maintainer.AppendEdge(fresh, base.users[round * 3]).ok());
    auto refreshed = maintainer.Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    MetagraphVectorIndex rebuilt =
        RebuildAll(*base.engine, (*refreshed)->graph());
    ASSERT_EQ(IndexBytes((*refreshed)->index()), IndexBytes(rebuilt))
        << "round " << round;
  }
  EXPECT_EQ(maintainer.snapshot()->generation(), 4u);
}

TEST(IndexMaintainer, PinnedSnapshotsOutliveRefreshes) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  std::vector<double> w(base.engine->metagraphs().size(), 1.0);
  MgpModel model{w};

  auto pinned = maintainer.snapshot();
  const QueryResult before = pinned->Query(model, base.users[0], 10);

  ASSERT_TRUE(maintainer.AppendEdge(base.users[0], base.users[9]).ok());
  auto refreshed = maintainer.Refresh();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_NE(pinned.get(), refreshed->get());

  // The pinned generation answers exactly as before the refresh.
  const QueryResult after = pinned->Query(model, base.users[0], 10);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].first, before[i].first);
    EXPECT_EQ(after[i].second, before[i].second);
  }
}

TEST(IndexMaintainer, EmptyRefreshSharesThePredecessorsState) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  const auto before = maintainer.snapshot();

  RefreshStats stats;
  auto refreshed = maintainer.Refresh(&stats);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ((*refreshed)->generation(), before->generation() + 1);
  EXPECT_EQ(maintainer.snapshot().get(), refreshed->get());
  // Nothing appended: the new generation aliases what it replaces.
  EXPECT_EQ((*refreshed)->shared_index().get(), before->shared_index().get());
  EXPECT_EQ((*refreshed)->shared_graph().get(), before->shared_graph().get());
  EXPECT_EQ((*refreshed)->shared_metagraphs().get(),
            before->shared_metagraphs().get());
  EXPECT_EQ(stats.affected_metagraphs, 0u);

  // The lineage continues normally after an empty refresh.
  ASSERT_TRUE(maintainer.AppendEdge(base.users[1], base.users[8]).ok());
  auto grown = maintainer.Refresh();
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ((*grown)->generation(), before->generation() + 2);
  EXPECT_EQ(IndexBytes((*grown)->index()),
            IndexBytes(RebuildAll(*base.engine, (*grown)->graph())));
}

TEST(IndexMaintainer, AppendValidatesAgainstBufferedState) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  const size_t n = base.ds.graph.num_nodes();

  EXPECT_FALSE(maintainer.AppendEdge(0, 0).ok());
  EXPECT_FALSE(maintainer.AppendEdge(0, static_cast<NodeId>(n)).ok());

  // A delta primed against a stale node count is refused whole.
  GraphDelta stale(n + 5);
  stale.AddNode("user");
  EXPECT_FALSE(maintainer.Append(stale).ok());

  // Primed correctly, the same content is accepted — including an edge to
  // a node buffered by AppendNode before it.
  const NodeId buffered = maintainer.AppendNode("user");
  GraphDelta delta(maintainer.num_nodes());
  const NodeId added = delta.AddNode("user");
  ASSERT_TRUE(delta.AddEdge(buffered, added).ok());
  EXPECT_TRUE(maintainer.Append(delta).ok());
  EXPECT_EQ(maintainer.pending_nodes(), 2u);
  EXPECT_EQ(maintainer.pending_edges(), 1u);
}

// ---- arrival timelines ----------------------------------------------------

TEST(ArrivalTimeline, ReplayReconstructsTheFullDataset) {
  const Base& base = SharedBase();
  const Graph& full = base.ds.graph;
  datagen::ArrivalConfig config;
  config.num_slices = 3;
  config.base_fraction = 0.5;
  auto timeline =
      datagen::SliceByArrival(full, base.ds.user_type, config);
  ASSERT_EQ(timeline.slices.size(), 3u);
  EXPECT_LT(timeline.base.num_nodes(), full.num_nodes());

  // Only anchor-type nodes arrive late; infrastructure is in the base.
  for (TypeId t = 0; t < full.num_types(); ++t) {
    if (t == base.ds.user_type) continue;
    EXPECT_EQ(timeline.base.CountOfType(t), full.CountOfType(t))
        << "type " << t;
  }

  Graph grown = timeline.base;
  for (const GraphDelta& slice : timeline.slices) {
    EXPECT_FALSE(slice.empty());
    ASSERT_EQ(slice.base_nodes(), grown.num_nodes());
    auto next = ApplyDelta(grown, slice);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    grown = std::move(*next);
  }

  // Fully replayed, the graph is the full dataset under a renumbering:
  // same sizes, same per-type node counts, same per-type-pair edge
  // counts, same sorted degree sequence.
  ASSERT_EQ(grown.num_nodes(), full.num_nodes());
  ASSERT_EQ(grown.num_edges(), full.num_edges());
  for (TypeId t = 0; t < full.num_types(); ++t) {
    EXPECT_EQ(grown.CountOfType(t), full.CountOfType(t)) << "type " << t;
    for (TypeId u = t; u < full.num_types(); ++u) {
      EXPECT_EQ(grown.EdgeCountBetweenTypes(t, u),
                full.EdgeCountBetweenTypes(t, u))
          << "types " << t << "," << u;
    }
  }
  std::vector<size_t> a(grown.num_nodes()), b(full.num_nodes());
  for (NodeId v = 0; v < full.num_nodes(); ++v) {
    a[v] = grown.Degree(v);
    b[v] = full.Degree(v);
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ArrivalTimeline, RefreshingThroughATimelineMatchesRebuilds) {
  // The bench's gate in miniature: maintain the base engine through every
  // slice and byte-check against a rebuild at the end state.
  const Base& base = SharedBase();
  datagen::ArrivalConfig config;
  config.num_slices = 2;
  auto timeline =
      datagen::SliceByArrival(base.ds.graph, base.ds.user_type, config);

  EngineOptions options = base.engine->options();
  SearchEngine engine(timeline.base, options);
  engine.Mine();
  engine.MatchAll();
  IndexMaintainer maintainer(engine);
  for (const GraphDelta& slice : timeline.slices) {
    ASSERT_TRUE(maintainer.Append(slice).ok());
    auto refreshed = maintainer.Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    MetagraphVectorIndex rebuilt =
        RebuildAll(engine, (*refreshed)->graph());
    ASSERT_EQ(IndexBytes((*refreshed)->index()), IndexBytes(rebuilt));
  }
  EXPECT_EQ(maintainer.snapshot()->graph().num_nodes(),
            base.ds.graph.num_nodes());
}

}  // namespace
}  // namespace metaprox
