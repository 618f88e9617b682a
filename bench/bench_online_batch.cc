// Batched online phase: throughput of SearchEngine-style batched ranking
// (BatchRankByProximity, the one-model form of the batched core) vs. the
// sequential per-query path, swept over batch size and worker threads on
// the synthetic Facebook benchmark graph.
//
// The batched path amortizes three per-query costs: duplicate queries are
// scored once, every node row a denominator needs has its m_x . w computed
// once per batch, and pair rows are read through the candidate-slot
// postings instead of a hash probe per pair — plus the scoring fan-out
// over the thread pool.
//
// The second section scores the same windows under 2 and 4 models: ONE
// N-model BatchRankByProximityMulti call per window vs N one-model calls
// (each model's share of the window). The shared call walks each row once
// for all models, so the bench HARD-FAILS if it loses at either model
// count.
//
// Also verifies the batched determinism contract on every configuration:
// whatever the batch size, thread count and model mix, every query's
// result must be identical (nodes, bitwise scores, order) to the
// sequential Query path.
//
// Flags/env: --threads/--shards apply to the offline build only (the
// online sweep sets its own thread counts); METAPROX_BENCH_SCALE=full for
// paper-sized graphs.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/simple.h"
#include "bench_common.h"
#include "core/query_batch.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

constexpr size_t kTopK = 10;
constexpr int kReps = 3;  // best-of reps: timing noise, not results

// Best-of-kReps seconds for one full pass over the query stream.
template <typename Fn>
double TimeBest(const Fn& fn) {
  double best = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

bool Identical(const std::vector<QueryResult>& a,
               const std::vector<QueryResult>& b) {
  return a == b;  // exact: same nodes, bitwise-same scores, same order
}

// One N-model call per window vs N one-model calls on the same windows,
// at 2 and 4 models. Windows of kWindow queries stripe the models round
// robin (query i of the stream under model i % N), the shape of a
// saturated multi-model server window. Returns false (after printing why)
// if the results differ or the shared call loses at either model count.
bool RunSharedVsSeparate(const Bundle& b, const std::vector<NodeId>& stream,
                         JsonReport& report) {
  constexpr size_t kWindow = 64;
  const MetagraphVectorIndex& index = b.engine->index();
  // uniform, evens, odds, taper: four genuinely different rankings.
  const size_t n_weights = index.num_metagraphs();
  std::vector<std::vector<double>> weights(4,
                                           std::vector<double>(n_weights));
  for (size_t i = 0; i < n_weights; ++i) {
    weights[0][i] = 1.0;
    weights[1][i] = i % 2 == 0 ? 1.0 : 0.0;
    weights[2][i] = i % 2 == 1 ? 1.0 : 0.0;
    weights[3][i] = 1.0 / static_cast<double>(1 + i % 7);
  }

  std::printf("\n== one N-model call vs N one-model calls, windows of %zu "
              "==\n\n",
              kWindow);
  util::TablePrinter table({"models", "shared (s)", "separate (s)",
                            "shared speedup", "identical"});
  bool ok = true;
  BatchScratch scratch;
  for (size_t n_models : {size_t{2}, size_t{4}}) {
    std::vector<std::span<const double>> models(weights.begin(),
                                                weights.begin() + n_models);
    std::vector<QueryResult> shared(stream.size());
    const double shared_seconds = TimeBest([&] {
      for (size_t begin = 0; begin < stream.size(); begin += kWindow) {
        const size_t end = std::min(stream.size(), begin + kWindow);
        std::vector<uint32_t> model_of;
        for (size_t i = begin; i < end; ++i) {
          model_of.push_back(static_cast<uint32_t>(i % n_models));
        }
        auto chunk = BatchRankByProximityMulti(
            index, models,
            std::span<const NodeId>(stream.data() + begin, end - begin),
            model_of, kTopK, nullptr, &scratch);
        std::move(chunk.begin(), chunk.end(), shared.begin() + begin);
      }
    });
    std::vector<QueryResult> separate(stream.size());
    const double separate_seconds = TimeBest([&] {
      for (size_t begin = 0; begin < stream.size(); begin += kWindow) {
        const size_t end = std::min(stream.size(), begin + kWindow);
        for (size_t m = 0; m < n_models; ++m) {
          std::vector<NodeId> share;
          for (size_t i = begin; i < end; ++i) {
            if (i % n_models == m) share.push_back(stream[i]);
          }
          auto chunk = BatchRankByProximity(index, models[m], share, kTopK,
                                            nullptr, &scratch);
          for (size_t i = begin, j = 0; i < end; ++i) {
            if (i % n_models == m) separate[i] = std::move(chunk[j++]);
          }
        }
      }
    });
    const bool identical = Identical(shared, separate);
    const double speedup = separate_seconds / shared_seconds;
    table.AddRow({std::to_string(n_models),
                  util::FormatDouble(shared_seconds, 3),
                  util::FormatDouble(separate_seconds, 3),
                  util::FormatDouble(speedup, 2) + "x",
                  identical ? "yes" : "NO — BUG"});
    report.BeginRecord()
        .Str("config", "shared_vs_separate")
        .Num("num_models", static_cast<double>(n_models))
        .Num("window", static_cast<double>(kWindow))
        .Num("shared_seconds", shared_seconds)
        .Num("separate_seconds", separate_seconds)
        .Num("shared_speedup", speedup)
        .Num("identical", identical ? 1 : 0);
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: %zu-model call differs from one-model calls\n",
                   n_models);
      ok = false;
    } else if (shared_seconds >= separate_seconds) {
      std::fprintf(stderr,
                   "FATAL: one %zu-model call loses to %zu one-model calls "
                   "(%.3fs vs %.3fs)\n",
                   n_models, n_models, shared_seconds, separate_seconds);
      ok = false;
    }
  }
  table.Print(std::cout);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  std::printf("== batched online queries: batch size x threads sweep ==\n");
  std::printf("hardware concurrency: %zu\n\n", util::ResolveNumThreads(0));

  Bundle b = MakeFacebook(5, 450, 1200);
  b.engine->MatchAll();
  const MetagraphVectorIndex& index = b.engine->index();
  const std::vector<double> weights = UniformWeights(index);
  const MgpModel model{weights};

  // Query stream: the user pool cycled to a fixed length, so batches mix
  // repeat visitors (service-style traffic) once the stream wraps.
  const size_t num_queries = FullScale() ? 20000 : 4000;
  std::vector<NodeId> stream;
  stream.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    stream.push_back(b.user_pool[i % b.user_pool.size()]);
  }

  // Sequential baseline (and the reference results for the identity check).
  std::vector<QueryResult> reference(stream.size());
  const double sequential_seconds = TimeBest([&] {
    for (size_t i = 0; i < stream.size(); ++i) {
      reference[i] = b.engine->Query(model, stream[i], kTopK);
    }
  });
  std::printf("%zu queries, sequential Query(): %.3fs (%.0f q/s)\n\n",
              stream.size(), sequential_seconds,
              static_cast<double>(stream.size()) / sequential_seconds);

  const std::vector<size_t> batch_sizes = {1, 8, 64, 512};
  const std::vector<unsigned> thread_counts = {1, 4};

  util::TablePrinter table(
      {"batch", "threads", "time (s)", "queries/s", "speedup", "identical"});
  JsonReport report("online_batch");
  report.BeginRecord()
      .Str("config", "sequential")
      .Num("queries", static_cast<double>(stream.size()))
      .Num("seconds", sequential_seconds)
      .Num("queries_per_second",
           static_cast<double>(stream.size()) / sequential_seconds);
  bool all_identical = true;
  bool batched_wins_from_8 = true;
  for (size_t batch : batch_sizes) {
    double best_speedup = 0.0;
    for (unsigned threads : thread_counts) {
      util::ThreadPool pool(threads);
      util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      std::vector<QueryResult> results(stream.size());
      const double seconds = TimeBest([&] {
        for (size_t begin = 0; begin < stream.size(); begin += batch) {
          const size_t end = std::min(stream.size(), begin + batch);
          auto chunk = BatchRankByProximity(
              index, weights,
              std::span<const NodeId>(stream.data() + begin, end - begin),
              kTopK, pool_ptr);
          std::move(chunk.begin(), chunk.end(), results.begin() + begin);
        }
      });
      const bool identical = Identical(results, reference);
      all_identical &= identical;
      const double speedup = sequential_seconds / seconds;
      best_speedup = std::max(best_speedup, speedup);
      table.AddRow({std::to_string(batch), std::to_string(threads),
                    util::FormatDouble(seconds, 3),
                    util::FormatDouble(
                        static_cast<double>(stream.size()) / seconds, 0),
                    util::FormatDouble(speedup, 2) + "x",
                    identical ? "yes" : "NO — BUG"});
      report.BeginRecord()
          .Str("config", "batched")
          .Num("batch", static_cast<double>(batch))
          .Num("threads", threads)
          .Num("seconds", seconds)
          .Num("queries_per_second",
               static_cast<double>(stream.size()) / seconds)
          .Num("speedup", speedup)
          .Num("identical", identical ? 1 : 0);
    }
    if (batch >= 8 && best_speedup <= 1.0) batched_wins_from_8 = false;
  }
  table.Print(std::cout);
  std::printf(
      "\nexpected shape: speedup rises with batch size (more node-row "
      "reuse per batch) and with threads at large batches; batch 1 "
      "roughly matches sequential; the \"identical\" column must read "
      "yes everywhere.\n");

  const bool shared_wins = RunSharedVsSeparate(b, stream, report);
  if (!report.WriteIfRequested()) return 1;

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: batched results differ from sequential Query\n");
    return 1;
  }
  if (!batched_wins_from_8) {
    std::fprintf(stderr,
                 "FATAL: batched throughput does not beat sequential at "
                 "batch >= 8\n");
    return 1;
  }
  return shared_wins ? 0 : 1;
}
