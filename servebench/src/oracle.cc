#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "core/engine.h"
#include "datagen/facebook.h"
#include "server/wire.h"
#include "util/rng.h"

namespace servebench {

using metaprox::IndexSnapshot;
using metaprox::MetagraphVectorIndex;
using metaprox::MgpModel;

namespace {

std::string Str(long double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17Lg", v);
  return buf;
}

bool ParseUnsigned(const std::string& token, uint64_t* out) {
  if (token.empty() || token.size() > 19) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(token.c_str(), nullptr, 10);
  return true;
}

long double TransformCount(const MetagraphVectorIndex& index, uint64_t count) {
  const long double c = static_cast<long double>(count);
  return index.transform() == metaprox::CountTransform::kLog1p ? log1pl(c) : c;
}

}  // namespace

bool ParseAnswer(const std::string& line, NodeId* query, Ranking* out,
                 std::string* why) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) tokens.push_back(token);
  uint64_t node = 0;
  uint64_t n = 0;
  if (tokens.size() < 3 || tokens[0] != "R" || !ParseUnsigned(tokens[1], &node) ||
      !ParseUnsigned(tokens[2], &n)) {
    *why = "not an answer line: " + line.substr(0, 80);
    return false;
  }
  if (tokens.size() != 3 + 2 * n) {
    *why = "answer says " + std::to_string(n) + " entries but carries " +
           std::to_string((tokens.size() - 3) / 2.0);
    return false;
  }
  out->clear();
  for (size_t i = 0; i < n; ++i) {
    uint64_t cand = 0;
    const std::string& score_text = tokens[4 + 2 * i];
    char* end = nullptr;
    const double score = std::strtod(score_text.c_str(), &end);
    if (!ParseUnsigned(tokens[3 + 2 * i], &cand) ||
        end != score_text.c_str() + score_text.size()) {
      *why = "malformed entry " + std::to_string(i);
      return false;
    }
    out->emplace_back(static_cast<NodeId>(cand), score);
  }
  *query = static_cast<NodeId>(node);
  return true;
}

// ---- ProximityOracle --------------------------------------------------------

ProximityOracle::ProximityOracle(const MetagraphVectorIndex& index,
                                 size_t num_nodes,
                                 std::span<const double> weights)
    : index_(index),
      num_nodes_(num_nodes),
      weights_(weights.begin(), weights.end()),
      node_dot_(num_nodes, 0.0L),
      node_dot_known_(num_nodes, 0) {}

long double ProximityOracle::NodeDot(NodeId x) {
  if (!node_dot_known_[x]) {
    row_.clear();
    index_.SparseNodeVector(x, &row_);
    long double sum = 0.0L;
    for (const auto& [i, value] : row_) {
      sum += static_cast<long double>(weights_[i]) * value;
    }
    node_dot_[x] = sum;
    node_dot_known_[x] = 1;
  }
  return node_dot_[x];
}

long double ProximityOracle::PairDot(NodeId x, NodeId y) {
  row_.clear();
  index_.SparsePairVector(x, y, &row_);
  long double sum = 0.0L;
  for (const auto& [i, value] : row_) {
    sum += static_cast<long double>(weights_[i]) * value;
  }
  return sum;
}

long double ProximityOracle::Proximity(NodeId x, NodeId y) {
  if (x == y) return 1.0L;
  const long double denominator = NodeDot(x) + NodeDot(y);
  if (denominator <= 0.0L) return 0.0L;
  return 2.0L * PairDot(x, y) / denominator;
}

std::vector<std::pair<NodeId, long double>> ProximityOracle::Ranked(NodeId q) {
  std::vector<std::pair<NodeId, long double>> ranked;
  for (NodeId y = 0; y < num_nodes_; ++y) {
    if (y == q) continue;
    const long double pi = Proximity(q, y);
    if (pi > 0.0L) ranked.emplace_back(y, pi);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return ranked;
}

// ---- answer checks ------------------------------------------------------------

std::string CheckTopK(ProximityOracle& oracle, NodeId q, size_t k,
                      const Ranking& got) {
  const auto ranked = oracle.Ranked(q);
  const size_t want = std::min(k, ranked.size());
  if (got.size() != want) {
    return "returned " + std::to_string(got.size()) + " entries, oracle has " +
           std::to_string(want);
  }
  for (const auto& [y, score] : got) {
    const long double expected = oracle.Proximity(q, y);
    if (!(fabsl(score - expected) <= kScoreTolerance * expected)) {
      return "pi(" + std::to_string(q) + "," + std::to_string(y) + ") served " +
             Str(score) + ", oracle " + Str(expected);
    }
  }
  if (want == 0) return "";
  const long double kth = got.back().second;
  std::vector<NodeId> returned;
  for (const auto& entry : got) returned.push_back(entry.first);
  std::sort(returned.begin(), returned.end());
  for (const auto& [y, pi] : ranked) {
    if (pi <= kth * (1.0L + kScoreTolerance)) break;
    if (!std::binary_search(returned.begin(), returned.end(), y)) {
      return "left out node " + std::to_string(y) + " with pi " + Str(pi) +
             " above the k-th score " + Str(kth);
    }
  }
  return "";
}

std::string CheckProperties(const IndexSnapshot& snapshot, const MgpModel& model,
                            NodeId q, size_t k, const Ranking& got) {
  if (got.size() > k) {
    return std::to_string(got.size()) + " entries for k=" + std::to_string(k);
  }
  const size_t n = snapshot.graph().num_nodes();
  std::vector<NodeId> seen;
  for (size_t r = 0; r < got.size(); ++r) {
    const auto& [y, score] = got[r];
    if (y >= n) return "node " + std::to_string(y) + " outside the graph";
    if (y == q) return "the query node is in its own answer";
    if (!(score > 0.0 && score <= 1.0 + kScoreTolerance)) {
      return "score " + Str(score) + " outside (0, 1]";
    }
    if (r > 0) {
      const auto& [prev_y, prev_score] = got[r - 1];
      if (!(prev_score > score || (prev_score == score && prev_y < y))) {
        return "entries " + std::to_string(r - 1) + " and " +
               std::to_string(r) + " out of order";
      }
    }
    const double forward = snapshot.Proximity(model, q, y);
    const double backward = snapshot.Proximity(model, y, q);
    if (forward != backward) {
      return "pi(" + std::to_string(q) + "," + std::to_string(y) +
             ") is not symmetric: " + Str(forward) + " vs " + Str(backward);
    }
    seen.push_back(y);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "a node appears twice";
  }
  return "";
}

// ---- path rows --------------------------------------------------------------

std::vector<PathMetagraph> FindUserPaths(
    const std::vector<metaprox::MinedMetagraph>& metagraphs, TypeId user) {
  std::vector<PathMetagraph> paths;
  for (uint32_t i = 0; i < metagraphs.size(); ++i) {
    const metaprox::Metagraph& m = metagraphs[i].graph;
    if (m.num_nodes() != 3 || m.num_edges() != 2) continue;
    for (int mid = 0; mid < 3; ++mid) {
      const int a = (mid + 1) % 3;
      const int b = (mid + 2) % 3;
      if (m.HasEdge(mid, a) && m.HasEdge(mid, b) && m.TypeOf(a) == user &&
          m.TypeOf(b) == user) {
        paths.push_back({i, m.TypeOf(mid)});
        break;
      }
    }
  }
  return paths;
}

uint64_t CommonNeighbors(const metaprox::Graph& graph, NodeId x, NodeId y,
                         TypeId type) {
  const auto a = graph.NeighborsOfType(x, type);
  const auto b = graph.NeighborsOfType(y, type);
  uint64_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

std::string CheckPathRow(const MetagraphVectorIndex& index,
                         const PathMetagraph& path, NodeId x, NodeId y,
                         uint64_t expected_count) {
  std::vector<std::pair<uint32_t, double>> row;
  index.SparsePairVector(x, y, &row);
  const auto it = std::find_if(row.begin(), row.end(), [&](const auto& e) {
    return e.first == path.index;
  });
  const std::string where = "path metagraph " + std::to_string(path.index) +
                            " row (" + std::to_string(x) + "," +
                            std::to_string(y) + ")";
  if (expected_count == 0) {
    return it == row.end() ? "" : where + " has an entry for 0 common neighbours";
  }
  const long double expected = TransformCount(index, expected_count);
  if (it == row.end()) {
    return where + " is missing; " + std::to_string(expected_count) +
           " common neighbours";
  }
  if (!(fabsl(it->second - expected) <= 1e-12L * expected)) {
    return where + " holds " + Str(it->second) + ", " +
           std::to_string(expected_count) + " common neighbours give " +
           Str(expected);
  }
  return "";
}

std::string CompareIndexes(const MetagraphVectorIndex& a,
                           const MetagraphVectorIndex& b) {
  std::ostringstream sa;
  std::ostringstream sb;
  if (!a.WriteTo(sa).ok() || !b.WriteTo(sb).ok()) return "serialization failed";
  const std::string x = sa.str();
  const std::string y = sb.str();
  if (x == y) return "";
  const auto diff = std::mismatch(x.begin(), x.end(), y.begin(), y.end());
  return "indexes differ at byte " + std::to_string(diff.first - x.begin()) +
         " (" + std::to_string(x.size()) + " vs " + std::to_string(y.size()) +
         " bytes)";
}

// ---- AnswerChecker ----------------------------------------------------------

AnswerChecker::AnswerChecker(std::vector<MgpModel> models, TypeId user_type)
    : models_(std::move(models)), user_type_(user_type) {}

void AnswerChecker::AddGeneration(
    std::shared_ptr<const IndexSnapshot> snapshot) {
  Generation gen;
  for (const MgpModel& model : models_) {
    gen.oracles.push_back(std::make_unique<ProximityOracle>(
        snapshot->index(), snapshot->graph().num_nodes(), model.weights));
  }
  gen.paths = FindUserPaths(snapshot->metagraphs(), user_type_);
  gen.snapshot = std::move(snapshot);
  const uint64_t g = gen.snapshot->generation();
  generations_[g] = std::move(gen);
}

void AnswerChecker::DropGenerationsBefore(uint64_t generation) {
  generations_.erase(generations_.begin(),
                     generations_.lower_bound(generation));
  verified_.erase(verified_.begin(),
                  verified_.lower_bound({generation, 0, 0, 0}));
}

bool AnswerChecker::Check(uint32_t model, NodeId q, size_t k,
                          const std::string& line, uint64_t gen_lo,
                          uint64_t gen_hi) {
  ++answers_checked_;
  for (uint64_t g = gen_lo; g <= gen_hi; ++g) {
    auto it = verified_.find({g, model, q, k});
    if (it != verified_.end() && it->second == line) return true;
  }
  std::string why = "no generation available";
  for (uint64_t g = gen_lo; g <= gen_hi; ++g) {
    auto gen = generations_.find(g);
    if (gen == generations_.end()) continue;
    why = CheckAgainst(gen->second, model, q, k, line);
    if (why.empty()) {
      verified_[{g, model, q, k}] = line;
      return true;
    }
  }
  Fail("model " + std::to_string(model) + " query " + std::to_string(q) +
       " k=" + std::to_string(k) + " (generations " + std::to_string(gen_lo) +
       ".." + std::to_string(gen_hi) + "): " + why);
  return false;
}

std::string AnswerChecker::CheckAgainst(Generation& gen, uint32_t model,
                                        NodeId q, size_t k,
                                        const std::string& line) {
  NodeId answered = 0;
  Ranking got;
  std::string why;
  if (!ParseAnswer(line, &answered, &got, &why)) return why;
  if (answered != q) return "answer names query " + std::to_string(answered);
  why = CheckProperties(*gen.snapshot, models_[model], q, k, got);
  if (!why.empty()) return why;
  why = CheckTopK(*gen.oracles[model], q, k, got);
  if (!why.empty()) return why;
  const metaprox::Graph& graph = gen.snapshot->graph();
  if (graph.TypeOf(q) != user_type_) return "";
  for (const auto& [y, score] : got) {
    if (graph.TypeOf(y) != user_type_) continue;
    why = CheckPaths(gen, q, y);
    if (!why.empty()) return why;
  }
  return "";
}

std::string AnswerChecker::CheckPaths(const Generation& gen, NodeId x,
                                      NodeId y) {
  const metaprox::Graph& graph = gen.snapshot->graph();
  for (const PathMetagraph& path : gen.paths) {
    ++path_rows_checked_;
    std::string why =
        CheckPathRow(gen.snapshot->index(), path, x, y,
                     CommonNeighbors(graph, x, y, path.middle));
    if (!why.empty()) return why;
  }
  return "";
}

void AnswerChecker::CheckRandomPathRows(uint64_t generation, size_t count,
                                        uint64_t seed) {
  auto gen = generations_.find(generation);
  if (gen == generations_.end()) {
    Fail("path check: generation " + std::to_string(generation) + " unknown");
    return;
  }
  const auto users = gen->second.snapshot->graph().NodesOfType(user_type_);
  if (gen->second.paths.empty()) {
    Fail("no user-T-user path metagraph was mined");
    return;
  }
  metaprox::util::Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const NodeId x = users[rng.UniformInt(users.size())];
    const NodeId y = users[rng.UniformInt(users.size())];
    if (x == y) continue;
    std::string why = CheckPaths(gen->second, x, y);
    if (!why.empty()) Fail(why);
  }
}

void AnswerChecker::Fail(std::string message) {
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(std::move(message));
}

// ---- self-test ----------------------------------------------------------------

namespace {

std::string Line(NodeId q, const Ranking& ranking) {
  std::string line = metaprox::server::BuildQueryResponse(q, ranking);
  line.pop_back();
  return line;
}

}  // namespace

int RunSelfTest() {
  metaprox::datagen::FacebookConfig config;
  config.num_users = 120;
  metaprox::datagen::Dataset ds = metaprox::datagen::GenerateFacebook(config, 3);
  metaprox::EngineOptions options;
  options.miner.anchor_type = ds.user_type;
  options.miner.min_support = 3;
  options.miner.max_nodes = 3;
  options.num_threads = 2;
  metaprox::SearchEngine engine(ds.graph, options);
  engine.Mine();
  engine.MatchAll();
  const auto snapshot = engine.Snapshot();
  const MgpModel model{std::vector<double>(engine.metagraphs().size(), 1.0)};
  const size_t k = 5;

  // A query with more than k + 1 positive candidates and distinct top
  // scores, so every perturbation below has room to show.
  ProximityOracle oracle(snapshot->index(), ds.graph.num_nodes(),
                         model.weights);
  NodeId q = metaprox::kInvalidNode;
  for (NodeId u : ds.graph.NodesOfType(ds.user_type)) {
    const auto ranked = oracle.Ranked(u);
    if (ranked.size() > k + 1 && ranked[0].second != ranked[1].second) {
      q = u;
      break;
    }
  }
  if (q == metaprox::kInvalidNode) {
    std::fprintf(stderr, "self-test: no usable query node\n");
    return 1;
  }
  const Ranking served = snapshot->Query(model, q, k);

  int undetected = 0;
  auto expect = [&](const char* name, bool detected) {
    std::fprintf(stderr, "self-test %-28s %s\n", name,
                 detected ? "detected" : "NOT DETECTED");
    if (!detected) ++undetected;
  };
  auto rejects = [&](const std::string& line) {
    AnswerChecker checker({model}, ds.user_type);
    checker.AddGeneration(snapshot);
    return !checker.Check(0, q, k, line, snapshot->generation(),
                          snapshot->generation());
  };

  {
    AnswerChecker checker({model}, ds.user_type);
    checker.AddGeneration(snapshot);
    const bool accepted = checker.Check(0, q, k, Line(q, served), 1, 1);
    std::fprintf(stderr, "self-test %-28s %s\n", "unperturbed answer",
                 accepted ? "accepted" : "REJECTED");
    if (!accepted) {
      for (const auto& m : checker.messages()) std::fprintf(stderr, "  %s\n", m.c_str());
      ++undetected;
    }
  }
  {
    Ranking bad = served;
    bad[2].second *= 1.0 - 1e-7;
    expect("perturbed score", rejects(Line(q, bad)));
  }
  {
    Ranking bad = served;
    std::swap(bad[0], bad[1]);
    expect("swapped ranks", rejects(Line(q, bad)));
  }
  {
    Ranking bad = served;
    bad.erase(bad.begin() + 2);
    expect("dropped entry", rejects(Line(q, bad)));
  }
  {
    Ranking bad = snapshot->Query(model, q, k + 1);
    expect("one entry too many", rejects(Line(q, bad)));
  }
  {
    std::string line = Line(q, served);
    const std::string count = " " + std::to_string(served.size()) + " ";
    line.replace(line.find(count), count.size(),
                 " " + std::to_string(served.size() + 1) + " ");
    expect("entry count off by one", rejects(line));
  }
  {
    // A path row whose common-neighbour count is one off.
    const auto paths = FindUserPaths(engine.metagraphs(), ds.user_type);
    bool found = false;
    bool detected = false;
    for (const PathMetagraph& path : paths) {
      for (const auto& [y, score] : served) {
        const uint64_t count = CommonNeighbors(ds.graph, q, y, path.middle);
        if (count == 0 || ds.graph.TypeOf(y) != ds.user_type) continue;
        found = true;
        detected =
            CheckPathRow(snapshot->index(), path, q, y, count).empty() &&
            !CheckPathRow(snapshot->index(), path, q, y, count + 1).empty() &&
            !CheckPathRow(snapshot->index(), path, q, y, count - 1).empty();
        break;
      }
      if (found) break;
    }
    expect("path row count off by one", found && detected);
  }
  {
    // An index with the even-numbered metagraphs' rows dropped: the
    // rebuild comparison must see it, and an answer of the full index
    // must not pass as one of that generation.
    std::vector<uint32_t> dropped;
    for (uint32_t i = 0; i < engine.metagraphs().size(); i += 2) {
      dropped.push_back(i);
    }
    metaprox::MetagraphVectorIndex clone = snapshot->index().CloneForRefresh(
        ds.graph.num_nodes(), dropped, 1);
    clone.Seal();
    clone.Finalize();
    expect("index differs from rebuild",
           !CompareIndexes(snapshot->index(), clone).empty() &&
               CompareIndexes(snapshot->index(), snapshot->index()).empty());
    auto other = std::make_shared<const IndexSnapshot>(
        snapshot->shared_graph(), snapshot->shared_metagraphs(),
        std::make_shared<const metaprox::MetagraphVectorIndex>(std::move(clone)),
        snapshot->generation() + 1);
    AnswerChecker checker({model}, ds.user_type);
    checker.AddGeneration(other);
    expect("answer of another generation",
           !checker.Check(0, q, k, Line(q, served), other->generation(),
                          other->generation()));
  }
  return undetected;
}

}  // namespace servebench
