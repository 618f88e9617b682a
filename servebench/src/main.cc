// servebench: the serving benchmark of metaprox.
//
//   servebench --workload <interactive|saturated|streaming> --seed <n>
//              --seconds <s> --trace <0|1> [--out-dir <dir>]
//   servebench --self-test
//
// One process builds the served state the way an operator pays for it
// (generate the graph, mine, match, finalize, train, save the index
// artifact, load it back, start the server), then drives an in-process
// server::QueryServer over loopback from one epoll load-generator thread,
// checks every distinct answer against the independent oracle of
// oracle.h, and prints one JSON line last. README.md gives the workloads,
// the metrics, and which layer metric should move which end-to-end one.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "datagen/arrival.h"
#include "datagen/facebook.h"
#include "eval/splits.h"
#include "loadgen.h"
#include "matching/matcher.h"
#include "oracle.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"
#include "server/wire.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

using metaprox::GraphDelta;
using metaprox::IndexMaintainer;
using metaprox::IndexSnapshot;
using metaprox::MetagraphVectorIndex;
using metaprox::MgpModel;
using metaprox::QueryResult;
using metaprox::SearchEngine;
namespace util = metaprox::util;
namespace server = metaprox::server;

// Taken during static initialization: set-up is timed from here.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// ---- fixed input make-up (README.md "Inputs") --------------------------------

constexpr uint32_t kUsers = 450;
constexpr uint64_t kDatasetSeed = 1;
constexpr int kMaxNodes = 5;
constexpr uint64_t kMinSupport = 5;
constexpr unsigned kBuildThreads = 4;
constexpr double kStreamBaseFraction = 0.8;
constexpr size_t kStreamSlices = 15;  // slice 0 primes the ledgers in set-up
constexpr unsigned kMaintainerThreads = 2;
constexpr size_t kProbeSlices = 3;
constexpr size_t kProbeQueries = 300;
constexpr size_t kRandomPathPairs = 3000;

struct ModelSpec {
  const char* wire_name;
  const char* class_name;
  uint64_t train_seed;
};

struct Workload {
  const char* name;
  size_t connections;
  size_t depth;
  unsigned scoring_threads;
  size_t round_size;
  bool streaming;
  std::vector<ModelSpec> models;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"interactive", 1, 1, 1, 150, false, {{"family", "family", 1}}},
      {"saturated",
       4,
       16,
       2,
       1024,
       false,
       {{"family1", "family", 1},
        {"family2", "family", 2},
        {"classmate1", "classmate", 1},
        {"classmate2", "classmate", 2}}},
      {"streaming", 1, 1, 1, 100, true, {{"family", "family", 1}}},
  };
  return workloads;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Must(util::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(*value);
}

void Must(const util::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

/// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- set-up ------------------------------------------------------------------

/// Ids of the base graph SliceByArrival builds: base nodes keep their
/// relative order (the split renumbers by (slice, original id)). The
/// anchor split is recomputed here the same way and verified against the
/// base graph's types, so a drift in the split shows as an error.
std::vector<metaprox::NodeId> BaseIds(const metaprox::Graph& full,
                                      const metaprox::Graph& base,
                                      metaprox::TypeId user) {
  const auto users = full.NodesOfType(user);
  const size_t base_users =
      static_cast<size_t>(kStreamBaseFraction * static_cast<double>(users.size()));
  std::vector<uint8_t> late(full.num_nodes(), 0);
  for (size_t i = base_users; i < users.size(); ++i) late[users[i]] = 1;
  std::vector<metaprox::NodeId> ids(full.num_nodes(), metaprox::kInvalidNode);
  metaprox::NodeId next = 0;
  for (metaprox::NodeId v = 0; v < full.num_nodes(); ++v) {
    if (late[v]) continue;
    if (next >= base.num_nodes() || base.TypeOf(next) != full.TypeOf(v)) {
      Die("arrival base does not match the expected split");
    }
    ids[v] = next++;
  }
  if (next != base.num_nodes()) Die("arrival base has unexpected nodes");
  return ids;
}

/// Per-class training as the examples do it: 20/80 query split, 300
/// sampled triplets, 300 iterations, all seeded by `seed`. `ids` maps
/// dataset ids to served ids (kInvalidNode: not served, example dropped).
MgpModel TrainModel(const MetagraphVectorIndex& index,
                    const metaprox::datagen::Dataset& ds,
                    const metaprox::GroundTruth& gt, uint64_t seed,
                    const std::vector<metaprox::NodeId>* ids) {
  util::Rng rng(seed);
  metaprox::QuerySplit split = metaprox::SplitQueries(gt, 0.2, rng);
  const auto pool = ds.graph.NodesOfType(ds.user_type);
  std::vector<metaprox::NodeId> pool_vec(pool.begin(), pool.end());
  auto examples = metaprox::SampleExamples(gt, split.train, pool_vec, 300, rng);
  if (ids != nullptr) {
    std::vector<metaprox::Example> mapped;
    for (const auto& e : examples) {
      const auto q = (*ids)[e.q], x = (*ids)[e.x], y = (*ids)[e.y];
      if (q != metaprox::kInvalidNode && x != metaprox::kInvalidNode &&
          y != metaprox::kInvalidNode) {
        mapped.push_back({q, x, y});
      }
    }
    examples = std::move(mapped);
  }
  metaprox::TrainOptions options;
  options.max_iterations = 300;
  options.seed = seed;
  return MgpModel{metaprox::TrainMgp(index, examples, options).weights};
}

/// Layer figures taken while setting up (reported by traced runs).
struct SetupFigures {
  double mine_s = 0, match_s = 0, finalize_s = 0, train_s = 0, save_s = 0,
         load_s = 0;
  double metagraphs = 0, embeddings = 0, search_nodes = 0, artifact_bytes = 0,
         nonzero_weights = 0;
};

struct Served {
  metaprox::datagen::Dataset ds;
  metaprox::datagen::ArrivalTimeline timeline;  // streaming only
  const metaprox::Graph* graph = nullptr;       // what the server starts on
  metaprox::TypeId user = 0;
  std::vector<MgpModel> models;
  std::vector<std::string> model_names;
  std::unique_ptr<SearchEngine> engine;  // loaded from the artifact
  std::unique_ptr<IndexMaintainer> maintainer;
  std::unique_ptr<server::IndexRegistry> indexes;
  std::unique_ptr<server::ModelRegistry> registry;
  std::unique_ptr<server::QueryServer> server;
  SetupFigures figures;
  size_t next_slice = 0;  // streaming: the first slice not yet appended
};

metaprox::EngineOptions BuildOptions(metaprox::TypeId user) {
  metaprox::EngineOptions options;
  options.miner.anchor_type = user;
  options.miner.min_support = kMinSupport;
  options.miner.max_nodes = kMaxNodes;
  options.num_threads = kBuildThreads;
  return options;
}

metaprox::MaintainerOptions MaintainerOptionsFor(const SearchEngine& engine) {
  metaprox::MaintainerOptions options;
  options.matcher = engine.options().matcher;
  options.embedding_cap = engine.options().embedding_cap;
  options.num_threads = kMaintainerThreads;
  return options;
}

void SetUp(const Workload& w, const std::string& artifact_prefix,
           Tracer& tracer, Served* s) {
  Tracer::Scope setup_span(tracer, "bench.setup");
  {
    Tracer::Scope span(tracer, "datagen.generate");
    metaprox::datagen::FacebookConfig config;
    config.num_users = kUsers;
    s->ds = metaprox::datagen::GenerateFacebook(config, kDatasetSeed);
  }
  s->user = s->ds.user_type;
  std::vector<metaprox::NodeId> base_ids;
  if (w.streaming) {
    Tracer::Scope span(tracer, "datagen.slice");
    metaprox::datagen::ArrivalConfig arrival;
    arrival.num_slices = kStreamSlices;
    arrival.base_fraction = kStreamBaseFraction;
    s->timeline =
        metaprox::datagen::SliceByArrival(s->ds.graph, s->user, arrival);
    base_ids = BaseIds(s->ds.graph, s->timeline.base, s->user);
  }
  s->graph = w.streaming ? &s->timeline.base : &s->ds.graph;

  {
    SearchEngine builder(*s->graph, BuildOptions(s->user));
    auto timed = [&](const char* name, double* seconds, auto&& call) {
      Tracer::Scope span(tracer, name);
      const auto t0 = std::chrono::steady_clock::now();
      call();
      *seconds += Seconds(t0);
    };
    timed("mining.Mine", &s->figures.mine_s, [&] { builder.Mine(); });
    std::vector<uint32_t> all(builder.metagraphs().size());
    std::iota(all.begin(), all.end(), 0);
    timed("matching.MatchSubset", &s->figures.match_s,
          [&] { builder.MatchSubset(all); });
    timed("index.FinalizeIndex", &s->figures.finalize_s,
          [&] { builder.FinalizeIndex(); });
    for (const ModelSpec& spec : w.models) {
      const metaprox::GroundTruth* gt = s->ds.FindClass(spec.class_name);
      if (gt == nullptr) Die(std::string("no class ") + spec.class_name);
      timed("learning.TrainMgp", &s->figures.train_s, [&] {
        s->models.push_back(TrainModel(builder.index(), s->ds, *gt,
                                       spec.train_seed,
                                       w.streaming ? &base_ids : nullptr));
      });
      s->model_names.push_back(spec.wire_name);
    }
    metaprox::ArtifactOptions artifact;
    artifact.format = util::ArtifactFormat::kBinary;
    timed("index.SaveOffline", &s->figures.save_s, [&] {
      Must(builder.SaveOffline(artifact_prefix, artifact), "save artifact");
    });
    s->figures.metagraphs = static_cast<double>(builder.metagraphs().size());
    for (const auto& stats : builder.match_stats()) {
      s->figures.embeddings += static_cast<double>(stats.embeddings);
      s->figures.search_nodes += static_cast<double>(stats.search_nodes);
    }
  }
  s->figures.artifact_bytes =
      static_cast<double>(std::filesystem::file_size(artifact_prefix + ".index"));
  for (const MgpModel& m : s->models) {
    s->figures.nonzero_weights +=
        static_cast<double>(std::count_if(m.weights.begin(), m.weights.end(),
                                          [](double x) { return x > 0.0; })) /
        static_cast<double>(s->models.size());
  }

  {
    Tracer::Scope span(tracer, "index.LoadOffline");
    const auto t0 = std::chrono::steady_clock::now();
    s->engine =
        std::make_unique<SearchEngine>(*s->graph, BuildOptions(s->user));
    metaprox::ArtifactOptions artifact;
    Must(s->engine->LoadOffline(artifact_prefix, artifact), "load artifact");
    s->figures.load_s = Seconds(t0);
  }
  {
    Tracer::Scope span(tracer, "maintainer.construct");
    s->maintainer = std::make_unique<IndexMaintainer>(
        *s->engine, MaintainerOptionsFor(*s->engine));
  }
  if (w.streaming) {
    // The first refresh after a start re-matches every affected
    // metagraph in full to capture the delta ledgers; an operator pays it
    // on every restart, so it is part of set-up.
    Tracer::Scope span(tracer, "maintainer.Refresh");
    Must(s->maintainer->Append(s->timeline.slices[0]), "append slice 0");
    Must(s->maintainer->Refresh().status(), "priming refresh");
    s->next_slice = 1;
  }
  s->indexes =
      std::make_unique<server::IndexRegistry>(s->maintainer->snapshot());
  s->registry =
      std::make_unique<server::ModelRegistry>(s->models.front().weights.size());
  for (size_t m = 0; m < s->models.size(); ++m) {
    Must(s->registry->Load(s->model_names[m], s->models[m]).status(),
         "register model");
  }
  server::ServerOptions options;
  options.default_model = s->model_names.front();
  options.num_threads = w.scoring_threads;
  options.admin = true;
  s->server = std::make_unique<server::QueryServer>(
      s->indexes.get(), s->registry.get(), options, s->maintainer.get());
  Tracer::Scope span(tracer, "server.Start");
  Must(s->server->Start(), "server start");
}

// ---- query streams ------------------------------------------------------------

/// The query stream of a workload, a pure function of the seed.
///
/// interactive/streaming: uniform users, drawn without replacement in
/// seeded passes over the current population, so every run queries
/// nearly the same multiset of users and the seed sets their order.
/// saturated: Zipf(1.0) popularity over a fixed ranking of the users
/// (the same hot users in every run), k = 100 with probability 1/4,
/// models striped by sequence number.
class QueryStream {
 public:
  QueryStream(const Workload& w, uint64_t seed, std::vector<metaprox::NodeId> users)
      : w_(w), rng_(seed * 0x9e3779b97f4a7c15ull + 17), users_(std::move(users)) {
    if (std::string(w.name) == "saturated") {
      util::Rng fixed(kPopularitySeed);
      Shuffle(users_, fixed);
      double total = 0.0;
      for (size_t r = 0; r < users_.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
    }
  }

  QuerySpec Next(uint64_t seq) {
    QuerySpec spec;
    spec.model = static_cast<uint32_t>(seq % w_.models.size());
    if (zipf_cdf_.empty()) {
      if (pass_pos_ == pass_.size()) {
        pass_ = users_;
        Shuffle(pass_, rng_);
        pass_pos_ = 0;
      }
      spec.node = pass_[pass_pos_++];
      spec.k = 10;
    } else {
      const double u = rng_.UniformDouble();
      const size_t r = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      spec.node = users_[std::min(r, users_.size() - 1)];
      spec.k = rng_.Bernoulli(0.25) ? 100 : 10;
    }
    if (sample_.size() < kSampleSize) sample_.push_back(spec);
    return spec;
  }

  /// Streaming: users that arrived become queryable from the next pass.
  void AddUsers(const std::vector<metaprox::NodeId>& users) {
    users_.insert(users_.end(), users.begin(), users.end());
  }

  /// The first queries of the stream, for the per-layer probes.
  const std::vector<QuerySpec>& sample() const { return sample_; }

 private:
  static constexpr size_t kSampleSize = 4096;
  static constexpr uint64_t kPopularitySeed = 99;

  static void Shuffle(std::vector<metaprox::NodeId>& v, util::Rng& rng) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.UniformInt(i)]);
  }

  const Workload& w_;
  util::Rng rng_;
  std::vector<metaprox::NodeId> users_;
  std::vector<metaprox::NodeId> pass_;
  size_t pass_pos_ = 0;
  std::vector<double> zipf_cdf_;
  std::vector<QuerySpec> sample_;
};

// ---- the timed phase ----------------------------------------------------------

struct Measured {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double qps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double refresh_ms = 0;
  double peak_rss_mb = 0;
  double mean_window = 0;
  std::vector<double> latencies_ms;
};

/// Distinct answers per generation window, checked after the phase (or
/// at each streaming quiescent point). Under one generation a repeated
/// query must get the same line; across a refresh window both the old
/// and the new generation's line are legitimate, and each is checked.
class AnswerLog {
 public:
  void Add(const Answer& a) {
    const auto key =
        std::make_tuple(a.gen_lo, a.gen_hi, a.spec.model, a.spec.node, a.spec.k);
    std::vector<std::string>& lines = lines_[key];
    if (std::find(lines.begin(), lines.end(), *a.line) != lines.end()) return;
    if (!lines.empty() && a.gen_lo == a.gen_hi) {
      if (inconsistent_++ < 4) {
        std::fprintf(stderr, "query %u k=%zu answered differently under one "
                     "generation\n", a.spec.node, a.spec.k);
      }
      return;
    }
    lines.push_back(*a.line);
  }

  void CheckAll(AnswerChecker& checker) {
    for (const auto& [key, lines] : lines_) {
      const auto& [lo, hi, model, node, k] = key;
      for (const std::string& line : lines) checker.Check(model, node, k, line, lo, hi);
    }
    lines_.clear();
  }

  uint64_t inconsistent() const { return inconsistent_; }

 private:
  std::map<std::tuple<uint64_t, uint64_t, uint32_t, metaprox::NodeId, size_t>,
           std::vector<std::string>>
      lines_;
  uint64_t inconsistent_ = 0;
};

std::vector<uint64_t> ParseStats(const std::string& line) {
  std::vector<uint64_t> fields;
  if (line.rfind("STATS ", 0) != 0) Die("bad STATS reply: " + line);
  for (size_t pos = 6; pos < line.size();) {
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    fields.push_back(std::strtoull(line.c_str() + pos, nullptr, 10));
    pos = end + 1;
  }
  if (fields.size() < 6) Die("short STATS reply: " + line);
  return fields;  // [0] connections, [1] queries, ..., [5] windows
}

/// Replays the remaining arrival slices over the admin connection (APPEND
/// lines, then REFRESH once every APPEND is acknowledged) while the query
/// stream runs, until the phase's time is up or the slices run out.
class SliceReplayer {
 public:
  SliceReplayer(Served& s, LoadGenerator& gen, QueryStream& stream,
               AnswerChecker& checker, AnswerLog& log, Tracer& tracer,
               double seconds)
      : s_(s), gen_(gen), stream_(stream), checker_(checker), log_(log),
        tracer_(tracer), seconds_(seconds) {}

  void Start() {
    start_ = std::chrono::steady_clock::now();
    generation_ = s_.maintainer->snapshot()->generation();
    gen_.SetGenerations(generation_, generation_);
    SendSlice();
  }

  void OnLine(const std::string& line) {
    ++admin_ops_;
    if (line.rfind("OK APPEND N ", 0) == 0) {
      const GraphDelta& slice = s_.timeline.slices[s_.next_slice];
      const uint64_t id = std::strtoull(line.c_str() + 12, nullptr, 10);
      if (id != slice.base_nodes() + nodes_acked_) {
        Fail("APPEND N assigned id " + line.substr(12));
      }
      if (slice.nodes[nodes_acked_].type == "user") {
        arrived_.push_back(static_cast<metaprox::NodeId>(id));
      }
      ++nodes_acked_;
    } else if (line.rfind("OK APPEND E ", 0) == 0) {
      ++edges_acked_;
    } else if (line.rfind("OK REFRESH ", 0) == 0) {
      OnRefreshed(line);
      return;
    } else {
      Fail("admin reply: " + line);
      return;
    }
    const GraphDelta& slice = s_.timeline.slices[s_.next_slice];
    if (nodes_acked_ == slice.nodes.size() &&
        edges_acked_ == slice.edges.size()) {
      gen_.SendAdmin(server::BuildRefreshRequest());
      refresh_sent_ = std::chrono::steady_clock::now();
      refresh_span_start_ = tracer_.Now();
      gen_.SetGenerations(generation_, generation_ + 1);
    }
  }

  /// At a quiescent point: make the new generation checkable, check every
  /// answer so far, release generations no future answer can come from.
  void OnQuiescent() {
    auto snapshot = s_.indexes->Get();
    if (snapshot->generation() != generation_) {
      Fail("registry serves generation " +
           std::to_string(snapshot->generation()));
    }
    checker_.AddGeneration(std::move(snapshot));
    log_.CheckAll(checker_);
    checker_.DropGenerationsBefore(generation_);
    stream_.AddUsers(arrived_);
    arrived_.clear();
    if (Seconds(start_) >= seconds_ || s_.next_slice >= s_.timeline.slices.size()) {
      gen_.StopQueries();
    } else {
      SendSlice();
    }
  }

  const std::vector<double>& refresh_ms() const { return refresh_ms_; }
  uint64_t admin_ops() const { return admin_ops_; }
  uint64_t failures() const { return failures_; }
  size_t slices_replayed() const { return s_.next_slice - 1; }

 private:
  void SendSlice() {
    const GraphDelta& slice = s_.timeline.slices[s_.next_slice];
    nodes_acked_ = 0;
    edges_acked_ = 0;
    for (const auto& node : slice.nodes) {
      gen_.SendAdmin(server::BuildAppendNodeRequest(node.type));
    }
    for (const auto& [u, v] : slice.edges) {
      gen_.SendAdmin(server::BuildAppendEdgeRequest(u, v));
    }
  }

  void OnRefreshed(const std::string& line) {
    const double ms = Seconds(refresh_sent_) * 1e3;
    tracer_.Record("server.REFRESH", refresh_span_start_, tracer_.Now(), 0);
    unsigned long long gen = 0, affected = 0, nodes = 0, edges = 0;
    const GraphDelta& slice = s_.timeline.slices[s_.next_slice];
    if (std::sscanf(line.c_str(), "OK REFRESH %llu %llu %llu %llu", &gen,
                    &affected, &nodes, &edges) != 4 ||
        gen != generation_ + 1 || nodes != slice.nodes.size() ||
        edges != slice.edges.size()) {
      Fail("unexpected refresh reply: " + line);
    }
    refresh_ms_.push_back(ms);
    generation_ = gen;
    gen_.SetGenerations(generation_, generation_);
    ++s_.next_slice;
    gen_.RequestQuiesce();
  }

  void Fail(const std::string& message) {
    if (failures_++ < 4) std::fprintf(stderr, "streaming: %s\n", message.c_str());
  }

  Served& s_;
  LoadGenerator& gen_;
  QueryStream& stream_;
  AnswerChecker& checker_;
  AnswerLog& log_;
  Tracer& tracer_;
  double seconds_;
  std::chrono::steady_clock::time_point start_, refresh_sent_;
  int64_t refresh_span_start_ = 0;
  uint64_t generation_ = 0;
  size_t nodes_acked_ = 0, edges_acked_ = 0;
  std::vector<metaprox::NodeId> arrived_;
  std::vector<double> refresh_ms_;
  uint64_t admin_ops_ = 0;
  uint64_t failures_ = 0;
};

Measured RunTimed(const Workload& w, Served& s, QueryStream& stream,
                  AnswerChecker& checker, double seconds, Tracer& tracer,
                  uint64_t* check_failures) {
  Measured out;
  auto gen = Must(LoadGenerator::Connect(s.server->port(), w.connections,
                                         /*admin=*/true, s.model_names, &tracer),
                  "connect");
  AnswerLog log;
  LoadGenerator::Plan plan;
  plan.depth = w.depth;
  plan.round_size = w.round_size;
  LoadGenerator::Callbacks callbacks;
  callbacks.next_query = [&](uint64_t seq) { return stream.Next(seq); };
  callbacks.on_answer = [&](const Answer& a) { log.Add(a); };
  callbacks.on_admin_line = [](const std::string& line) {
    Die("unexpected admin line: " + line);
  };

  const uint64_t served_generation = s.indexes->Get()->generation();
  gen->SetGenerations(served_generation, served_generation);

  // Warm-up: one round, not measured (its answers are checked too).
  {
    Tracer::Scope span(tracer, "bench.warmup");
    auto warm = Must(gen->Run(plan, callbacks), "warm-up");
    out.attempted += warm.issued;
    out.failed += warm.errors;
  }
  const auto before = ParseStats(Must(gen->AdminRoundTrip("STATS\n"), "STATS"));

  std::vector<double>& latencies = out.latencies_ms;
  latencies.reserve(1 << 16);
  callbacks.on_answer = [&](const Answer& a) {
    latencies.push_back(a.latency_ms);
    log.Add(a);
  };
  std::unique_ptr<SliceReplayer> replayer;
  if (w.streaming) {
    replayer = std::make_unique<SliceReplayer>(s, *gen, stream, checker, log,
                                            tracer, seconds);
    callbacks.on_admin_line = [&](const std::string& line) { replayer->OnLine(line); };
    callbacks.on_quiescent = [&] { replayer->OnQuiescent(); };
    plan.until_stopped = true;
    replayer->Start();
  } else {
    plan.min_seconds = seconds;
  }
  LoadGenerator::PhaseResult phase;
  {
    Tracer::Scope span(tracer, "bench.timed");
    phase = Must(gen->Run(plan, callbacks), "timed phase");
  }
  out.attempted += phase.issued;
  out.failed += phase.errors;
  out.qps = static_cast<double>(phase.answered) / phase.seconds;
  out.p50_ms = Percentile(latencies, 0.5);
  out.p90_ms = Percentile(latencies, 0.9);
  const auto after = ParseStats(Must(gen->AdminRoundTrip("STATS\n"), "STATS"));
  out.mean_window = static_cast<double>(after[1] - before[1]) /
                    static_cast<double>(std::max<uint64_t>(after[5] - before[5], 1));

  if (w.streaming) {
    out.refresh_ms = Median(replayer->refresh_ms());
    out.attempted += replayer->admin_ops();
    *check_failures += replayer->failures();
    std::fprintf(stderr, "streaming: %zu slices replayed, refresh ms:",
                 replayer->slices_replayed());
    for (double ms : replayer->refresh_ms()) std::fprintf(stderr, " %.0f", ms);
    std::fprintf(stderr, ", median %.1f\n", out.refresh_ms);
  }
  std::fprintf(stderr, "latency deciles ms:");
  for (int d = 1; d <= 9; ++d) std::fprintf(stderr, " %.2f", Percentile(latencies, d / 10.0));
  std::fprintf(stderr, "\n");
  out.peak_rss_mb = PeakRssMb();
  {
    Tracer::Scope span(tracer, "bench.check");
    log.CheckAll(checker);
  }
  *check_failures += log.inconsistent();
  return out;
}

// ---- per-layer probes (traced runs) --------------------------------------------

/// Pair rows of `next` holding an entry of an affected metagraph, and how
/// many of those differ from the same pair's row in `prev`.
std::pair<uint64_t, uint64_t> RebuiltAndChangedRows(
    const MetagraphVectorIndex& prev, const MetagraphVectorIndex& next,
    const std::vector<uint8_t>& affected) {
  uint64_t rebuilt = 0, changed = 0;
  std::vector<std::pair<metaprox::NodeId, uint32_t>> prev_slots;
  for (metaprox::NodeId x = 0; x < next.num_graph_nodes(); ++x) {
    prev_slots.clear();
    if (x < prev.num_graph_nodes()) {
      const auto cands = prev.Candidates(x);
      const auto slots = prev.CandidateSlots(x);
      for (size_t i = 0; i < cands.size(); ++i) prev_slots.emplace_back(cands[i], slots[i]);
      std::sort(prev_slots.begin(), prev_slots.end());
    }
    const auto cands = next.Candidates(x);
    const auto slots = next.CandidateSlots(x);
    for (size_t i = 0; i < cands.size(); ++i) {
      if (cands[i] < x) continue;  // each pair once
      const auto row = next.PairRow(slots[i]);
      if (std::none_of(row.begin(), row.end(),
                       [&](const auto& e) { return affected[e.first] != 0; })) {
        continue;
      }
      ++rebuilt;
      auto it = std::lower_bound(prev_slots.begin(), prev_slots.end(),
                                 std::make_pair(cands[i], uint32_t{0}));
      if (it == prev_slots.end() || it->first != cands[i]) {
        ++changed;
        continue;
      }
      const auto old_row = prev.PairRow(it->second);
      if (!std::equal(row.begin(), row.end(), old_row.begin(), old_row.end())) {
        ++changed;
      }
    }
  }
  return {rebuilt, changed};
}

struct MaintainerProbe {
  double refresh_ms = 0, affected = 0, changed_share = 0;
};

/// IndexMaintainer::Refresh timed from outside, on a maintainer of its
/// own over the arrival base `base` serves: slices 1..kProbeSlices, after
/// the ledger-priming slice 0.
MaintainerProbe ProbeMaintainer(const Served& base, Tracer& tracer) {
  IndexMaintainer maintainer(*base.engine, MaintainerOptionsFor(*base.engine));
  MaintainerProbe probe;
  std::vector<double> ms;
  uint64_t rebuilt = 0, changed = 0;
  double affected = 0;
  Must(maintainer.Append(base.timeline.slices[0]), "append");
  Must(maintainer.Refresh().status(), "probe refresh");
  for (size_t i = 1; i <= kProbeSlices; ++i) {
    const auto prev = maintainer.snapshot();
    const GraphDelta& slice = base.timeline.slices[i];
    Must(maintainer.Append(slice), "append");
    std::vector<uint32_t> hit = IndexMaintainer::AffectedMetagraphs(
        prev->graph(), prev->metagraphs(), slice);
    metaprox::RefreshStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Scope span(tracer, "maintainer.Refresh");
      Must(maintainer.Refresh(&stats).status(), "probe refresh");
    }
    ms.push_back(Seconds(t0) * 1e3);
    affected += static_cast<double>(stats.affected_metagraphs);
    std::vector<uint8_t> mask(prev->metagraphs().size(), 0);
    for (uint32_t m : hit) mask[m] = 1;
    const auto [r, c] =
        RebuiltAndChangedRows(prev->index(), maintainer.snapshot()->index(), mask);
    rebuilt += r;
    changed += c;
  }
  probe.refresh_ms = Median(ms);
  probe.affected = affected / kProbeSlices;
  probe.changed_share =
      rebuilt == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(rebuilt);
  return probe;
}

/// Median REFRESH round trip through `base`'s own idle server, each after
/// the APPEND lines of slices 1..kProbeSlices.
double ProbeServerRefresh(Served& base) {
  Tracer quiet(false);
  auto gen = Must(LoadGenerator::Connect(base.server->port(), 0, /*admin=*/true,
                                         base.model_names, &quiet),
                  "connect");
  auto expect = [&](const std::string& line, const char* reply) {
    const std::string got = Must(gen->AdminRoundTrip(line), "admin round trip");
    if (got.rfind(reply, 0) != 0) Die("probe: " + got);
  };
  std::vector<double> ms;
  for (size_t i = 1; i <= kProbeSlices; ++i) {
    const GraphDelta& slice = base.timeline.slices[i];
    for (const auto& node : slice.nodes) {
      expect(server::BuildAppendNodeRequest(node.type), "OK APPEND N ");
    }
    for (const auto& [u, v] : slice.edges) {
      expect(server::BuildAppendEdgeRequest(u, v), "OK APPEND E ");
    }
    const auto t0 = std::chrono::steady_clock::now();
    expect(server::BuildRefreshRequest(), "OK REFRESH ");
    ms.push_back(Seconds(t0) * 1e3);
  }
  return Median(ms);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const Workload& StreamingWorkload() {
  for (const Workload& w : Workloads()) {
    if (w.streaming) return w;
  }
  Die("no streaming workload");
}

std::vector<Metric> LayerProbes(const Workload& w, Served& s,
                                const QueryStream& stream, const Measured& m,
                                const std::string& probe_prefix, Tracer& tracer) {
  Tracer::Scope probes_span(tracer, "bench.probes");
  const auto snapshot = s.indexes->Get();
  const MetagraphVectorIndex& index = snapshot->index();
  std::vector<Metric> out;
  const SetupFigures& f = s.figures;
  out.push_back({"mining.mine_s", f.mine_s, "s"});
  out.push_back({"mining.metagraphs", f.metagraphs, "count"});
  out.push_back({"matching.match_s", f.match_s, "s"});
  out.push_back({"matching.embeddings", f.embeddings, "count"});
  out.push_back({"matching.search_nodes", f.search_nodes, "count"});
  out.push_back({"matching.embeddings_per_search_node",
                 f.embeddings / std::max(f.search_nodes, 1.0), "ratio"});
  out.push_back({"index.finalize_s", f.finalize_s, "s"});
  out.push_back({"index.save_s", f.save_s, "s"});
  out.push_back({"index.load_s", f.load_s, "s"});
  out.push_back({"index.artifact_bytes", f.artifact_bytes, "bytes"});
  out.push_back({"index.pairs", static_cast<double>(index.num_pairs()), "count"});
  {
    double node_entries = 0, pair_entries = 0, pair_refs = 0;
    for (metaprox::NodeId x = 0; x < index.num_graph_nodes(); ++x) {
      node_entries += static_cast<double>(index.NodeRow(x).size());
      for (uint32_t slot : index.CandidateSlots(x)) {
        pair_entries += static_cast<double>(index.PairRow(slot).size());
        pair_refs += 1;
      }
    }
    out.push_back({"index.mean_node_row",
                   node_entries / static_cast<double>(index.num_graph_nodes()),
                   "count"});
    out.push_back({"index.mean_pair_row", pair_entries / std::max(pair_refs, 1.0),
                   "count"});
  }
  out.push_back({"learning.train_s", f.train_s, "s"});
  out.push_back({"learning.nonzero_weights", f.nonzero_weights, "count"});

  // core: single queries, then windows of the served mean size and mix.
  const std::vector<QuerySpec>& sample = stream.sample();
  const size_t n = std::min(sample.size(), kProbeQueries);
  std::vector<double> query_us;
  std::vector<QueryResult> results;
  double candidates = 0;
  for (size_t i = 0; i < n; ++i) {
    const QuerySpec& q = sample[i];
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Scope span(tracer, "core.Query", i + 1);
      results.push_back(snapshot->Query(s.models[q.model], q.node, q.k));
    }
    query_us.push_back(Seconds(t0) * 1e6);
    candidates += static_cast<double>(index.Candidates(q.node).size());
  }
  const double core_query_us = Median(query_us);
  out.push_back({"core.query_us", core_query_us, "us"});
  out.push_back({"core.candidates_per_query", candidates / n, "count"});
  {
    std::vector<std::span<const double>> weights;
    for (const MgpModel& model : s.models) weights.push_back(model.weights);
    util::ThreadPool pool(w.scoring_threads);
    metaprox::BatchScratch scratch;
    const size_t window = std::max<size_t>(1, std::lround(m.mean_window));
    std::vector<double> window_ms;
    uint64_t rows = 0, queries = 0;
    for (size_t begin = 0; begin + window <= sample.size() && window_ms.size() < 200;
         begin += window) {
      // Grouped by k, as the batcher groups a window.
      std::map<size_t, std::pair<std::vector<metaprox::NodeId>, std::vector<uint32_t>>>
          groups;
      for (size_t i = begin; i < begin + window; ++i) {
        groups[sample[i].k].first.push_back(sample[i].node);
        groups[sample[i].k].second.push_back(sample[i].model);
      }
      const auto t0 = std::chrono::steady_clock::now();
      Tracer::Scope span(tracer, "core.BatchQueryMulti");
      for (const auto& [k, group] : groups) {
        metaprox::BatchMultiStats stats;
        snapshot->BatchQueryMulti(weights, group.first, group.second, k,
                                  w.scoring_threads > 1 ? &pool : nullptr,
                                  &scratch, &stats);
        rows += stats.rows_gathered;
      }
      window_ms.push_back(Seconds(t0) * 1e3);
      queries += window;
    }
    out.push_back({"core.window_ms", Median(window_ms), "ms"});
    out.push_back({"core.rows_gathered_per_query",
                   static_cast<double>(rows) / std::max<uint64_t>(queries, 1),
                   "count"});
  }
  out.push_back({"server.mean_window", m.mean_window, "count"});
  {
    // The wire layer on this workload's own lines: parse the request,
    // serialize the answer. Repeated for a measurable interval.
    std::vector<std::string> lines;
    for (size_t i = 0; i < n; ++i) {
      std::string line = server::BuildQueryRequest(s.model_names[sample[i].model],
                                                   sample[i].node, sample[i].k);
      line.pop_back();
      lines.push_back(std::move(line));
    }
    constexpr int kReps = 20;
    size_t bytes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Scope span(tracer, "server.wire");
      for (int rep = 0; rep < kReps; ++rep) {
        for (size_t i = 0; i < n; ++i) {
          server::Request request;
          if (!server::ParseRequest(lines[i], &request)) Die("unparsable request");
          bytes += server::BuildQueryResponse(request.node, results[i]).size();
        }
      }
    }
    const double us = Seconds(t0) * 1e6 / (kReps * static_cast<double>(n));
    if (bytes == 0) Die("empty responses");
    out.push_back({"server.wire_us", us, "us"});
  }
  out.push_back({"server.non_scoring_ms", m.p50_ms - core_query_us * 1e-3, "ms"});

  // Refresh: streaming's own base and its REFRESH round trips under the
  // query stream. Elsewhere nothing is appended, so a server over the
  // streaming arrival base is set up here and refreshed with no traffic.
  Served probe_base;
  if (!w.streaming) {
    Tracer::Scope span(tracer, "bench.probe_setup");
    Tracer quiet(false);
    SetUp(StreamingWorkload(), probe_prefix, quiet, &probe_base);
  }
  Served& base = w.streaming ? s : probe_base;
  double refresh_ms = m.refresh_ms;
  if (!w.streaming) {
    Tracer::Scope span(tracer, "bench.probe_refresh");
    refresh_ms = ProbeServerRefresh(base);
  }
  out.push_back({"server.refresh_ms", refresh_ms, "ms"});
  const MaintainerProbe probe = ProbeMaintainer(base, tracer);
  out.push_back({"maintainer.refresh_ms", probe.refresh_ms, "ms"});
  out.push_back({"maintainer.affected_metagraphs", probe.affected, "count"});
  out.push_back({"maintainer.changed_pair_share", probe.changed_share, "ratio"});
  if (!w.streaming) probe_base.server->Stop();
  return out;
}

// ---- checks after the phase ---------------------------------------------------------

/// A from-scratch re-match of every mined metagraph over the final grown
/// graph, for comparison with the last refreshed generation.
MetagraphVectorIndex FullRebuild(const IndexSnapshot& snapshot,
                                 const metaprox::EngineOptions& options) {
  const auto& mined = snapshot.metagraphs();
  MetagraphVectorIndex index(mined.size(), snapshot.graph().num_nodes(),
                             options.transform, /*num_shards=*/16);
  auto matcher = metaprox::CreateMatcher(options.matcher);
  util::ThreadPool pool(kBuildThreads);
  std::vector<std::future<void>> futures;
  for (uint32_t i = 0; i < mined.size(); ++i) {
    if (!snapshot.index().IsCommitted(i)) continue;
    futures.push_back(pool.Submit([&, i] {
      metaprox::SymPairCountingSink sink(mined[i].symmetry, options.embedding_cap);
      matcher->Match(snapshot.graph(), mined[i].graph, &sink);
      index.Commit(i, sink, mined[i].symmetry.aut_size());
    }));
  }
  for (auto& f : futures) f.get();
  index.Seal();
  index.Finalize();
  return index;
}

// ---- output ----------------------------------------------------------------------

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool self_test = false;
  std::string out_dir = ".bench_build/servebench";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!args.self_test && (args.workload.empty() || !have_seed || !have_seconds)) {
    Die("usage: servebench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--out-dir <dir>] | --self-test");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.self_test) {
    const int undetected = RunSelfTest();
    std::fprintf(stderr, "self-test: %s\n",
                 undetected == 0 ? "every check fired" : "SOME CHECKS DID NOT FIRE");
    return undetected == 0 ? 0 : 1;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) Die("unknown workload " + args.workload);

  Tracer tracer(args.trace);
  const std::string run_dir = args.out_dir + "/run-" + args.workload + "-" +
                              std::to_string(args.seed) + "-" +
                              std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) Die("cannot create " + run_dir + ": " + ec.message());

  Served s;
  SetUp(*w, run_dir + "/served", tracer, &s);
  const double setup_s = Seconds(kProcessStart);

  const auto users = s.graph->NodesOfType(s.user);
  QueryStream stream(*w, args.seed,
                     std::vector<metaprox::NodeId>(users.begin(), users.end()));
  AnswerChecker checker(s.models, s.user);
  checker.AddGeneration(s.indexes->Get());
  uint64_t check_failures = 0;
  Measured m = RunTimed(*w, s, stream, checker, args.seconds, tracer, &check_failures);

  // Streaming's last generation must equal a full re-match.
  const auto last = s.indexes->Get();
  if (w->streaming) {
    Tracer::Scope span(tracer, "bench.rebuild_check");
    const std::string diff =
        CompareIndexes(last->index(), FullRebuild(*last, s.engine->options()));
    if (!diff.empty()) {
      ++check_failures;
      std::fprintf(stderr, "last generation %llu: %s\n",
                   static_cast<unsigned long long>(last->generation()), diff.c_str());
    }
  }
  // Path rows of random user pairs, mostly without a common neighbour.
  checker.AddGeneration(last);
  checker.CheckRandomPathRows(last->generation(), kRandomPathPairs, args.seed);
  check_failures += checker.failures();
  for (const std::string& msg : checker.messages()) {
    std::fprintf(stderr, "check failed: %s\n", msg.c_str());
  }

  std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"qps", m.qps, "1/s"},
      {"latency_p50_ms", m.p50_ms, "ms"},
      {"latency_p90_ms", m.p90_ms, "ms"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
  };
  std::vector<Metric> per_layer;
  if (args.trace) per_layer = LayerProbes(*w, s, stream, m, run_dir + "/probe", tracer);

  s.server->Stop();
  std::filesystem::remove_all(run_dir, ec);

  std::fprintf(stderr,
               "%s seed %llu: %llu attempted, %llu failed, %llu answers checked "
               "(%llu path rows), %zu latency samples, mean window %.2f\n",
               w->name, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(m.attempted),
               static_cast<unsigned long long>(m.failed),
               static_cast<unsigned long long>(checker.answers_checked()),
               static_cast<unsigned long long>(checker.path_rows_checked()),
               m.latencies_ms.size(), m.mean_window);
  for (const Metric& metric : end_to_end) {
    std::fprintf(stderr, "  %-22s %14.4f %s\n", metric.name.c_str(), metric.value,
                 metric.unit);
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    std::vector<std::string> header = {
        "\"workload\": \"" + args.workload + "\"",
        "\"seed\": " + std::to_string(args.seed),
        "\"end_to_end\": " + Json(end_to_end),
        "\"per_layer\": " + Json(per_layer)};
    if (!tracer.Write(path, header)) Die("cannot write " + path);
    std::fprintf(stderr, "trace: %zu spans written to %s\n", tracer.spans().size(),
                 path.c_str());
  }

  const bool correct = check_failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              Json(args.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
