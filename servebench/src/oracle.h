// Independent checks of served answers.
//
// Nothing here calls the code under test to produce an expected answer.
// The proximity oracle recomputes
//     pi(x, y) = 2 m_xy.w / (m_x.w + m_y.w)
// in long double with its own loops over the index's public rows
// (SparseNodeVector / SparsePairVector), over EVERY node of the graph
// rather than the index's candidate postings. Path rows are recounted
// from the graph's adjacency. The served answer is compared with them to
// a stated relative tolerance, kScoreTolerance: the program sums in
// double with FMA kernels in its own order, the oracle in long double,
// so exact equality is not expected, but a real fault moves a score by
// far more than 1e-9.
#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/index_snapshot.h"
#include "graph/graph.h"
#include "index/metagraph_vectors.h"
#include "learning/proximity.h"
#include "mining/miner.h"

namespace servebench {

using metaprox::NodeId;
using metaprox::TypeId;

inline constexpr double kScoreTolerance = 1e-9;

using Ranking = std::vector<std::pair<NodeId, double>>;

/// Parses an `R <node> <n> {<cand> <score>}...` line with its own parser
/// (not the server's). Fails when the line is not an R line or when <n>
/// disagrees with the number of pairs that follow.
bool ParseAnswer(const std::string& line, NodeId* query, Ranking* out,
                 std::string* why);

/// Long-double recomputation of pi from one index's public rows.
class ProximityOracle {
 public:
  ProximityOracle(const metaprox::MetagraphVectorIndex& index,
                  size_t num_nodes, std::span<const double> weights);

  long double Proximity(NodeId x, NodeId y);

  /// Every node y != q with pi(q, y) > 0, best first (pi descending,
  /// node id ascending on ties).
  std::vector<std::pair<NodeId, long double>> Ranked(NodeId q);

 private:
  long double NodeDot(NodeId x);
  long double PairDot(NodeId x, NodeId y);

  const metaprox::MetagraphVectorIndex& index_;
  size_t num_nodes_;
  std::vector<double> weights_;
  std::vector<long double> node_dot_;
  std::vector<uint8_t> node_dot_known_;
  std::vector<std::pair<uint32_t, double>> row_;
};

/// "" when `got` is the top-k of q under the oracle: the same number of
/// entries as min(k, #nodes with pi > 0), each score within tolerance of
/// the oracle's, and no left-out node beating the k-th score beyond
/// tolerance. Otherwise the first violation found.
std::string CheckTopK(ProximityOracle& oracle, NodeId q, size_t k,
                      const Ranking& got);

/// "" when `got` has the method's properties: at most k entries, each
/// 0 < pi <= 1 (+tolerance), strictly ordered (score descending, node id
/// ascending on ties), distinct, without q itself, and pi symmetric as
/// the snapshot computes it (Proximity(q, y) == Proximity(y, q)).
std::string CheckProperties(const metaprox::IndexSnapshot& snapshot,
                            const metaprox::MgpModel& model, NodeId q,
                            size_t k, const Ranking& got);

/// A mined 3-node path user - T - user: its pair row for (x, y) must be
/// the transformed |N_T(x) ∩ N_T(y)|.
struct PathMetagraph {
  uint32_t index = 0;
  TypeId middle = 0;
};
std::vector<PathMetagraph> FindUserPaths(
    const std::vector<metaprox::MinedMetagraph>& metagraphs, TypeId user);
uint64_t CommonNeighbors(const metaprox::Graph& graph, NodeId x, NodeId y,
                         TypeId type);
/// "" when the (x, y) row of metagraph `path.index` holds exactly the
/// transform of `expected_count` (no entry when the count is 0).
std::string CheckPathRow(const metaprox::MetagraphVectorIndex& index,
                         const PathMetagraph& path, NodeId x, NodeId y,
                         uint64_t expected_count);

/// "" when both indexes serialize to the same bytes.
std::string CompareIndexes(const metaprox::MetagraphVectorIndex& a,
                           const metaprox::MetagraphVectorIndex& b);

/// Checks served answers against the generations that could have served
/// them. Verified (generation, model, query, k) -> line pairs are cached,
/// so a repeated answer costs a string compare.
class AnswerChecker {
 public:
  AnswerChecker(std::vector<metaprox::MgpModel> models, TypeId user_type);

  /// Makes a published generation available to Check().
  void AddGeneration(std::shared_ptr<const metaprox::IndexSnapshot> snapshot);
  /// Releases every generation older than `generation`.
  void DropGenerationsBefore(uint64_t generation);

  /// True when `line` is a correct answer of (model, q, k) under at least
  /// one generation in [gen_lo, gen_hi]. Otherwise records the failure.
  bool Check(uint32_t model, NodeId q, size_t k, const std::string& line,
             uint64_t gen_lo, uint64_t gen_hi);

  /// Path-row checks on `count` seeded random user pairs of generation
  /// `generation` (most share no path, so absent entries are covered).
  void CheckRandomPathRows(uint64_t generation, size_t count, uint64_t seed);

  uint64_t answers_checked() const { return answers_checked_; }
  uint64_t path_rows_checked() const { return path_rows_checked_; }
  uint64_t failures() const { return failures_; }
  /// The first few failure messages.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  struct Generation {
    std::shared_ptr<const metaprox::IndexSnapshot> snapshot;
    std::vector<std::unique_ptr<ProximityOracle>> oracles;  // per model
    std::vector<PathMetagraph> paths;
  };

  std::string CheckAgainst(Generation& gen, uint32_t model, NodeId q, size_t k,
                           const std::string& line);
  std::string CheckPaths(const Generation& gen, NodeId x, NodeId y);
  void Fail(std::string message);

  std::vector<metaprox::MgpModel> models_;
  TypeId user_type_;
  std::map<uint64_t, Generation> generations_;
  std::map<std::tuple<uint64_t, uint32_t, NodeId, size_t>, std::string>
      verified_;
  uint64_t answers_checked_ = 0;
  uint64_t path_rows_checked_ = 0;
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Feeds deliberately broken answers through the checks above and
/// returns how many of them went undetected (0 = every check fires).
/// Prints one line per case to stderr.
int RunSelfTest();

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
