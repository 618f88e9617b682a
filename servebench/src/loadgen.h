// The load generator: ONE thread drives every client connection through
// epoll (the same server::EpollLoop the server's reactor runs on), so
// load generation costs one core however many connections a workload
// holds.
//
// Query connections keep up to `depth` queries in flight each (depth 1 is
// a closed loop). Latency is measured per query, from when its request
// line is handed to the socket until its response line is parsed. An
// optional admin connection carries APPEND/REFRESH/STATS lines; the
// caller reacts to its replies through a callback.
#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.h"
#include "server/reactor.h"
#include "trace.h"
#include "util/socket.h"
#include "util/status.h"

namespace servebench {

struct QuerySpec {
  uint32_t model = 0;  // index into the generator's model names
  metaprox::NodeId node = 0;
  size_t k = 10;
};

struct Answer {
  uint64_t seq = 0;
  QuerySpec spec;
  const std::string* line = nullptr;  // valid during the callback only
  double latency_ms = 0.0;
  /// Generations that may have served the query: the newest one known
  /// published when it was sent, up to the newest one requested when its
  /// answer arrived.
  uint64_t gen_lo = 0;
  uint64_t gen_hi = 0;
};

class LoadGenerator {
 public:
  struct Callbacks {
    std::function<QuerySpec(uint64_t seq)> next_query;
    std::function<void(const Answer&)> on_answer;
    /// A line on the admin connection (absent: none expected).
    std::function<void(const std::string&)> on_admin_line;
    /// Runs once RequestQuiesce() was called and no query is in flight;
    /// no query is issued until it returns, and its time is left out of
    /// the phase's measured seconds.
    std::function<void()> on_quiescent;
  };

  struct Plan {
    size_t depth = 1;
    /// Queries are issued in whole rounds of this many ...
    size_t round_size = 100;
    /// ... until a round ends after this many seconds ...
    double min_seconds = 0.0;
    /// ... or, when set, until StopQueries().
    bool until_stopped = false;
  };

  struct PhaseResult {
    uint64_t issued = 0;
    uint64_t answered = 0;
    uint64_t errors = 0;   // E lines answered to queries
    double seconds = 0.0;  // first send to last answer, minus pauses
  };

  static metaprox::util::StatusOr<std::unique_ptr<LoadGenerator>> Connect(
      uint16_t port, size_t query_connections, bool admin,
      std::vector<std::string> model_names, Tracer* tracer);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  metaprox::util::StatusOr<PhaseResult> Run(const Plan& plan,
                                            const Callbacks& callbacks);

  /// During Run(): queue a line on the admin connection.
  void SendAdmin(const std::string& line);
  void RequestQuiesce() { quiesce_requested_ = true; }
  void StopQueries() { stop_requested_ = true; }
  void SetGenerations(uint64_t known, uint64_t requested) {
    gen_known_ = known;
    gen_requested_ = requested;
  }

  /// Outside Run(): send one line on the admin connection and wait for
  /// its one-line reply.
  metaprox::util::StatusOr<std::string> AdminRoundTrip(const std::string& line);

 private:
  struct Pending {
    uint64_t seq = 0;
    QuerySpec spec;
    int64_t sent_ns = 0;
    uint64_t gen_lo = 0;
  };
  struct Conn {
    metaprox::util::Socket socket;
    metaprox::util::LineBuffer input;
    std::string outbuf;
    size_t out_off = 0;
    bool want_write = false;
    std::deque<Pending> awaiting;
  };

  LoadGenerator() = default;

  metaprox::util::Status Flush(size_t c);
  /// Reads what the socket holds; complete lines go to `lines`.
  metaprox::util::Status Drain(size_t c, std::vector<std::string>* lines);

  std::unique_ptr<metaprox::server::EpollLoop> loop_;
  std::vector<Conn> conns_;  // query connections, then the admin one
  size_t query_connections_ = 0;
  bool has_admin_ = false;
  std::vector<std::string> model_names_;
  Tracer* tracer_ = nullptr;

  bool quiesce_requested_ = false;
  bool stop_requested_ = false;
  uint64_t gen_known_ = 1;
  uint64_t gen_requested_ = 1;
};

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
