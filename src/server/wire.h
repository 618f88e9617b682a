// Wire protocol of the metaprox query server: a line-oriented text
// protocol, one message per '\n'-terminated line, chosen over HTTP so the
// server stays dependency-free and a smoke test can drive it with a few
// lines of shell.
//
// THE SPEC LIVES IN docs/WIRE_PROTOCOL.md — the versioned grammar (v1 and
// v2 request/response lines), the HELLO negotiation rules, the full
// error-code table, the STATS left-to-right compatibility rule, ordering
// and connection-lifetime semantics, and the determinism contract that
// makes server responses byte-diffable against offline output. This
// header only declares the builders/parsers and the stable ErrorCode
// numbers; when the doc and an implementation disagree, the doc is the
// contract and the code has a bug.
//
// Quick orientation (see the doc for the normative text):
//   Q <node> [k] / Q <model> <node> [k]  ->  R <node> <n> {<cand> <score>}...
//   HELLO, PING, STATS; LOAD/RELOAD/UNLOAD/LIST/STAT and the index
//   maintenance verbs APPEND/REFRESH/SWAPINDEX behind --admin
//   E <code> <message> on any refusal; the connection stays open except
//   after E 18 SLOW_CONSUMER, which is an eviction notice.
#ifndef METAPROX_SERVER_WIRE_H_
#define METAPROX_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/query_batch.h"
#include "graph/types.h"

namespace metaprox::server {

/// The protocol version this server/client implementation speaks.
inline constexpr uint64_t kWireVersion = 2;

/// Serializes a score so that parsing it back yields the same double bits
/// (17 significant digits round-trip IEEE binary64). Shared by the server,
/// the client's TSV output and mgps_cli --tsv, which is what makes their
/// outputs byte-comparable.
std::string FormatScore(double score);

/// THE --tsv result-row format ("query<TAB>rank<TAB>node<TAB>score\n",
/// rank 1-based), shared by mgps_cli --tsv (which passes
/// FormatScore(score)) and mgps_client --tsv (which echoes the wire's
/// score text). One definition, so the byte-diff the CI smoke performs
/// can only break for real determinism reasons, never formatting drift.
std::string FormatTsvRow(NodeId query, size_t rank, NodeId node,
                         std::string_view score_text);

/// Wire-legal model names: leading letter, then letters/digits/[_.-], at
/// most 64 chars. Never all digits, which keeps `Q <model> <node>` and
/// the v1 `Q <node>` unambiguous. ModelRegistry enforces the same rule.
bool IsValidModelName(std::string_view name);

// ---- error codes ----------------------------------------------------------

/// Stable numeric codes carried on 'E' lines, so scripted clients can
/// branch on failures without parsing prose. The normative description of
/// each code (and which ones precede a disconnect) is the error table in
/// docs/WIRE_PROTOCOL.md; docs/SERVING.md maps each to the ServerOptions
/// limit that triggers it.
enum class ErrorCode : int {
  kMalformed = 10,           // unparseable request line
  kUnknownModel = 11,        // query/STAT named a model not in the registry
  kNodeOutOfRange = 12,      // node id beyond the graph
  kKTooLarge = 13,           // per-request k exceeds the server's max_k
  kUnsupportedVersion = 14,  // HELLO asked for a version we don't speak
  kAdminDisabled = 15,       // admin verb on a server without --admin
  kServerFull = 16,          // connection limit reached
  kModelError = 17,          // admin LOAD/RELOAD/UNLOAD failed (bad file,
                             // duplicate name, unloading the default, ...)
  kSlowConsumer = 18,        // response backlog exceeded
                             // max_response_queue_bytes: eviction notice,
                             // the server closes the connection after a
                             // best-effort flush
  kPipelineLimit = 19,       // more than max_pipeline unanswered queries
                             // in flight on this connection
  kRateLimited = 20,         // connection exceeded max_queries_per_second
  kDeadlineExceeded = 21,    // query waited longer than
                             // request_deadline_micros before ranking; the
                             // E holds the query's FIFO response position
  kIndexAdminError = 22,     // APPEND/REFRESH/SWAPINDEX failed (server has
                             // no maintainer, artifact mismatch, ...)
  kBadDelta = 23,            // APPEND carried an invalid node type or edge
                             // (endpoint out of range, self-loop, builder
                             // already finalized)
};

// ---- requests -------------------------------------------------------------

struct Request {
  enum class Kind {
    kQuery,
    kPing,
    kStats,
    kHello,
    kLoad,
    kReload,
    kUnload,
    kList,
    kStat,
    kAppendNode,
    kAppendEdge,
    kRefresh,
    kSwapIndex,
  };
  Kind kind = Kind::kQuery;
  NodeId node = kInvalidNode;   // kQuery; kAppendEdge's first endpoint
  NodeId node2 = kInvalidNode;  // kAppendEdge's second endpoint
  size_t k = 0;                 // kQuery only; 0 = use the server default
  /// kQuery: the named model (empty = server default, i.e. a v1 line).
  /// kLoad/kReload/kUnload/kStat: the slot being administered.
  /// kAppendNode: the node's type name (same token grammar as model names).
  std::string model;
  std::string path;     // kLoad/kReload/kSwapIndex only (single token)
  uint64_t version = 0;  // kHello only

  bool operator==(const Request&) const = default;
};

std::string BuildQueryRequest(NodeId node, size_t k);  // v1 line
std::string BuildQueryRequest(std::string_view model, NodeId node, size_t k);
std::string BuildHelloRequest(uint64_t version);
std::string BuildLoadRequest(std::string_view model, std::string_view path);
std::string BuildReloadRequest(std::string_view model, std::string_view path);
std::string BuildUnloadRequest(std::string_view model);
std::string BuildStatRequest(std::string_view model);
std::string BuildAppendNodeRequest(std::string_view type_name);
std::string BuildAppendEdgeRequest(NodeId u, NodeId v);
std::string BuildSwapIndexRequest(std::string_view path_prefix);
inline std::string BuildPingRequest() { return "PING\n"; }
inline std::string BuildStatsRequest() { return "STATS\n"; }
inline std::string BuildListRequest() { return "LIST\n"; }
inline std::string BuildRefreshRequest() { return "REFRESH\n"; }

/// Parses one request line (no terminator). Strict: single spaces, no
/// trailing garbage, counts must parse, model names must be wire-legal.
/// Returns false on malformed input.
bool ParseRequest(std::string_view line, Request* out);

// ---- responses ------------------------------------------------------------

/// `R <node> <n> (<node> <score>)*` for the ranked entries given (a
/// QueryResult, or a prefix of one when a larger-k ranking is cut).
std::string BuildQueryResponse(
    NodeId node, std::span<const std::pair<NodeId, double>> result);
std::string BuildErrorResponse(ErrorCode code, std::string_view message);

struct ResponseEntry {
  NodeId node = kInvalidNode;
  double score = 0.0;
  /// The score exactly as it appeared on the wire; echoing this (rather
  /// than re-serializing the parsed double) keeps client output bytes
  /// equal to server bytes even if a client is built with different
  /// printf behavior.
  std::string score_text;
};

struct RankResponse {
  NodeId query = kInvalidNode;
  std::vector<ResponseEntry> entries;
};

/// Parses an 'R' line (no terminator). Returns false on anything else —
/// including 'E' lines, which callers should surface via
/// ParseErrorResponse.
bool ParseQueryResponse(std::string_view line, RankResponse* out);

/// Parses an 'E' line. Lenient about the code so a client also survives a
/// pre-v2 server's `E <message>` form: a missing/unparseable code yields
/// code 0 with the whole remainder as the message.
bool ParseErrorResponse(std::string_view line, int* code,
                        std::string* message);

struct HelloInfo {
  uint64_t version = 0;
  size_t max_k = 0;
  std::string default_model;

  bool operator==(const HelloInfo&) const = default;
};

std::string BuildHelloResponse(uint64_t version, size_t max_k,
                               std::string_view default_model);
bool ParseHelloResponse(std::string_view line, HelloInfo* out);

}  // namespace metaprox::server

#endif  // METAPROX_SERVER_WIRE_H_
