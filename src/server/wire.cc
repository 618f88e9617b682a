#include "server/wire.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace metaprox::server {

namespace {

// Splits the leading token of `*rest` at a single space. Strict on
// purpose: empty tokens (doubled spaces, leading/trailing space) fail, so
// a malformed request can't silently alias a well-formed one.
bool NextToken(std::string_view* rest, std::string_view* token) {
  if (rest->empty()) return false;
  const size_t space = rest->find(' ');
  if (space == 0) return false;  // leading/doubled space
  if (space == std::string_view::npos) {
    *token = *rest;
    rest->remove_prefix(rest->size());
  } else {
    *token = rest->substr(0, space);
    rest->remove_prefix(space + 1);
    if (rest->empty()) return false;  // trailing space
  }
  return !token->empty();
}

bool AllDigits(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// Strict decimal parse of an unsigned 64-bit token (digits only, no signs,
// no overflow). The wire carries node ids and counts; anything else is a
// protocol error.
bool ParseU64(std::string_view token, uint64_t* out) {
  if (token.empty() || token.size() > 20) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseNode(std::string_view token, NodeId* out) {
  uint64_t value = 0;
  if (!ParseU64(token, &value) || value > UINT32_MAX) return false;
  *out = static_cast<NodeId>(value);
  return true;
}

bool ParseScore(std::string_view token, double* out) {
  // strtod needs a terminated buffer; scores are short.
  char buf[64];
  if (token.empty() || token.size() >= sizeof(buf)) return false;
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + token.size();
}

// Parses the tail of a query line after an optional model token was
// consumed: `<node> [k]`.
bool ParseQueryTail(std::string_view token, std::string_view rest,
                    Request* out) {
  if (!ParseNode(token, &out->node)) return false;
  if (!rest.empty()) {
    uint64_t k = 0;
    if (!NextToken(&rest, &token) || !ParseU64(token, &k) || k == 0) {
      return false;
    }
    out->k = static_cast<size_t>(k);
  }
  return rest.empty();
}

}  // namespace

std::string FormatScore(double score) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  return buf;
}

std::string FormatTsvRow(NodeId query, size_t rank, NodeId node,
                         std::string_view score_text) {
  std::string row = std::to_string(query);
  row += '\t';
  row += std::to_string(rank);
  row += '\t';
  row += std::to_string(node);
  row += '\t';
  row += score_text;
  row += '\n';
  return row;
}

bool IsValidModelName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (!((first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z'))) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::string BuildQueryRequest(NodeId node, size_t k) {
  std::string line = "Q ";
  line += std::to_string(node);
  if (k != 0) {
    line += ' ';
    line += std::to_string(k);
  }
  line += '\n';
  return line;
}

std::string BuildQueryRequest(std::string_view model, NodeId node, size_t k) {
  std::string line = "Q ";
  line += model;
  line += ' ';
  line += std::to_string(node);
  if (k != 0) {
    line += ' ';
    line += std::to_string(k);
  }
  line += '\n';
  return line;
}

std::string BuildHelloRequest(uint64_t version) {
  return "HELLO " + std::to_string(version) + "\n";
}

std::string BuildLoadRequest(std::string_view model, std::string_view path) {
  std::string line = "LOAD ";
  line += model;
  line += ' ';
  line += path;
  line += '\n';
  return line;
}

std::string BuildReloadRequest(std::string_view model, std::string_view path) {
  std::string line = "RELOAD ";
  line += model;
  line += ' ';
  line += path;
  line += '\n';
  return line;
}

std::string BuildUnloadRequest(std::string_view model) {
  std::string line = "UNLOAD ";
  line += model;
  line += '\n';
  return line;
}

std::string BuildStatRequest(std::string_view model) {
  std::string line = "STAT ";
  line += model;
  line += '\n';
  return line;
}

std::string BuildAppendNodeRequest(std::string_view type_name) {
  std::string line = "APPEND N ";
  line += type_name;
  line += '\n';
  return line;
}

std::string BuildAppendEdgeRequest(NodeId u, NodeId v) {
  std::string line = "APPEND E ";
  line += std::to_string(u);
  line += ' ';
  line += std::to_string(v);
  line += '\n';
  return line;
}

std::string BuildSwapIndexRequest(std::string_view path_prefix) {
  std::string line = "SWAPINDEX ";
  line += path_prefix;
  line += '\n';
  return line;
}

bool ParseRequest(std::string_view line, Request* out) {
  *out = Request{};
  if (line == "PING") {
    out->kind = Request::Kind::kPing;
    return true;
  }
  if (line == "STATS") {
    out->kind = Request::Kind::kStats;
    return true;
  }
  if (line == "LIST") {
    out->kind = Request::Kind::kList;
    return true;
  }
  if (line == "REFRESH") {
    out->kind = Request::Kind::kRefresh;
    return true;
  }
  std::string_view rest = line;
  std::string_view token;
  if (!NextToken(&rest, &token)) return false;

  if (token == "Q") {
    out->kind = Request::Kind::kQuery;
    if (!NextToken(&rest, &token)) return false;
    if (!AllDigits(token)) {
      // v2 form: the first token names the model; digits would be a v1
      // node id, and model names can never be all digits.
      if (!IsValidModelName(token)) return false;
      out->model.assign(token);
      if (!NextToken(&rest, &token)) return false;
    }
    return ParseQueryTail(token, rest, out);
  }
  if (token == "HELLO") {
    out->kind = Request::Kind::kHello;
    if (!NextToken(&rest, &token) || !ParseU64(token, &out->version) ||
        out->version == 0) {
      return false;
    }
    return rest.empty();
  }
  if (token == "LOAD" || token == "RELOAD") {
    out->kind =
        token == "LOAD" ? Request::Kind::kLoad : Request::Kind::kReload;
    if (!NextToken(&rest, &token) || !IsValidModelName(token)) return false;
    out->model.assign(token);
    // The path is one token: the wire carries no quoting, so paths with
    // spaces are not expressible (documented; keeps parsing strict).
    if (!NextToken(&rest, &token)) return false;
    out->path.assign(token);
    return rest.empty();
  }
  if (token == "UNLOAD" || token == "STAT") {
    out->kind =
        token == "UNLOAD" ? Request::Kind::kUnload : Request::Kind::kStat;
    if (!NextToken(&rest, &token) || !IsValidModelName(token)) return false;
    out->model.assign(token);
    return rest.empty();
  }
  if (token == "APPEND") {
    if (!NextToken(&rest, &token)) return false;
    if (token == "N") {
      out->kind = Request::Kind::kAppendNode;
      // Type names follow the model-name grammar: wire-safe and never all
      // digits, so N/E sublines stay visually unambiguous.
      if (!NextToken(&rest, &token) || !IsValidModelName(token)) return false;
      out->model.assign(token);
      return rest.empty();
    }
    if (token == "E") {
      out->kind = Request::Kind::kAppendEdge;
      if (!NextToken(&rest, &token) || !ParseNode(token, &out->node)) {
        return false;
      }
      if (!NextToken(&rest, &token) || !ParseNode(token, &out->node2)) {
        return false;
      }
      return rest.empty();
    }
    return false;
  }
  if (token == "SWAPINDEX") {
    out->kind = Request::Kind::kSwapIndex;
    // One token, like LOAD paths: no quoting on the wire.
    if (!NextToken(&rest, &token)) return false;
    out->path.assign(token);
    return rest.empty();
  }
  return false;
}

std::string BuildQueryResponse(
    NodeId node, std::span<const std::pair<NodeId, double>> result) {
  std::string line = "R ";
  line += std::to_string(node);
  line += ' ';
  line += std::to_string(result.size());
  for (const auto& [candidate, score] : result) {
    line += ' ';
    line += std::to_string(candidate);
    line += ' ';
    line += FormatScore(score);
  }
  line += '\n';
  return line;
}

std::string BuildErrorResponse(ErrorCode code, std::string_view message) {
  std::string line = "E ";
  line += std::to_string(static_cast<int>(code));
  line += ' ';
  line += message;
  line += '\n';
  return line;
}

bool ParseQueryResponse(std::string_view line, RankResponse* out) {
  std::string_view rest = line;
  std::string_view token;
  if (!NextToken(&rest, &token) || token != "R") return false;
  if (!NextToken(&rest, &token) || !ParseNode(token, &out->query)) {
    return false;
  }
  uint64_t n = 0;
  if (!NextToken(&rest, &token) || !ParseU64(token, &n)) return false;
  out->entries.clear();
  out->entries.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ResponseEntry entry;
    if (!NextToken(&rest, &token) || !ParseNode(token, &entry.node)) {
      return false;
    }
    if (!NextToken(&rest, &token) || !ParseScore(token, &entry.score)) {
      return false;
    }
    entry.score_text.assign(token);
    out->entries.push_back(std::move(entry));
  }
  return rest.empty();
}

bool ParseErrorResponse(std::string_view line, int* code,
                        std::string* message) {
  if (line.substr(0, 2) != "E ") return false;
  std::string_view rest = line.substr(2);
  const size_t space = rest.find(' ');
  uint64_t value = 0;
  if (space != std::string_view::npos &&
      ParseU64(rest.substr(0, space), &value)) {
    *code = static_cast<int>(value);
    message->assign(rest.substr(space + 1));
  } else {
    // Pre-v2 `E <message>` form (or a one-word message): no code.
    *code = 0;
    message->assign(rest);
  }
  return true;
}

std::string BuildHelloResponse(uint64_t version, size_t max_k,
                               std::string_view default_model) {
  std::string line = "HELLO ";
  line += std::to_string(version);
  line += ' ';
  line += std::to_string(max_k);
  line += ' ';
  line += default_model;
  line += '\n';
  return line;
}

bool ParseHelloResponse(std::string_view line, HelloInfo* out) {
  std::string_view rest = line;
  std::string_view token;
  if (!NextToken(&rest, &token) || token != "HELLO") return false;
  if (!NextToken(&rest, &token) || !ParseU64(token, &out->version)) {
    return false;
  }
  uint64_t max_k = 0;
  if (!NextToken(&rest, &token) || !ParseU64(token, &max_k)) return false;
  out->max_k = static_cast<size_t>(max_k);
  if (!NextToken(&rest, &token) || !IsValidModelName(token)) return false;
  out->default_model.assign(token);
  return rest.empty();
}

}  // namespace metaprox::server
