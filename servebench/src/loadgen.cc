#include "loadgen.h"

#include <utility>

#include "server/wire.h"

namespace servebench {

using metaprox::util::Status;
using metaprox::util::StatusOr;

StatusOr<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    uint16_t port, size_t query_connections, bool admin,
    std::vector<std::string> model_names, Tracer* tracer) {
  auto loop = metaprox::server::EpollLoop::Create();
  if (!loop.ok()) return loop.status();
  std::unique_ptr<LoadGenerator> gen(new LoadGenerator());
  gen->loop_ =
      std::make_unique<metaprox::server::EpollLoop>(std::move(*loop));
  gen->query_connections_ = query_connections;
  gen->has_admin_ = admin;
  gen->model_names_ = std::move(model_names);
  gen->tracer_ = tracer;
  gen->conns_.resize(query_connections + (admin ? 1 : 0));
  for (size_t c = 0; c < gen->conns_.size(); ++c) {
    auto socket = metaprox::util::ConnectTcp("127.0.0.1", port);
    if (!socket.ok()) return socket.status();
    Conn& conn = gen->conns_[c];
    conn.socket = std::move(*socket);
    MX_RETURN_IF_ERROR(metaprox::util::SetTcpNoDelay(conn.socket));
    MX_RETURN_IF_ERROR(metaprox::util::SetNonBlocking(conn.socket));
    MX_RETURN_IF_ERROR(gen->loop_->Add(conn.socket.fd(), c, true, false));
  }
  return gen;
}

Status LoadGenerator::Flush(size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_off < conn.outbuf.size()) {
    auto chunk = metaprox::util::SendSome(
        conn.socket, std::string_view(conn.outbuf).substr(conn.out_off));
    if (!chunk.ok()) return chunk.status();
    if (chunk->would_block) break;
    conn.out_off += chunk->bytes;
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
  const bool want_write = conn.out_off < conn.outbuf.size();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    MX_RETURN_IF_ERROR(loop_->Mod(conn.socket.fd(), c, true, want_write));
  }
  return Status::Ok();
}

Status LoadGenerator::Drain(size_t c, std::vector<std::string>* lines) {
  Conn& conn = conns_[c];
  char buf[64 * 1024];
  while (true) {
    auto chunk = metaprox::util::RecvSome(conn.socket, buf, sizeof(buf));
    if (!chunk.ok()) return chunk.status();
    if (chunk->would_block) break;
    if (chunk->eof) {
      return Status::IoError("connection " + std::to_string(c) +
                             " closed by the server");
    }
    conn.input.Append(std::string_view(buf, chunk->bytes));
  }
  std::string line;
  while (conn.input.TakeLine(&line)) lines->push_back(std::move(line));
  if (conn.input.overflowed()) return Status::IoError("response line overflow");
  return Status::Ok();
}

void LoadGenerator::SendAdmin(const std::string& line) {
  conns_.back().outbuf += line;
}

StatusOr<LoadGenerator::PhaseResult> LoadGenerator::Run(
    const Plan& plan, const Callbacks& callbacks) {
  PhaseResult result;
  quiesce_requested_ = false;
  stop_requested_ = false;
  const int64_t start = tracer_->Now();
  int64_t paused = 0;
  int64_t last_answer = start;
  size_t in_flight = 0;

  auto can_issue = [&] {
    if (plan.until_stopped) return !stop_requested_;
    if (result.issued % plan.round_size != 0) return true;
    return static_cast<double>(tracer_->Now() - start - paused) * 1e-9 <
           plan.min_seconds;
  };
  auto top_up = [&](size_t c) -> Status {
    Conn& conn = conns_[c];
    while (!quiesce_requested_ && conn.awaiting.size() < plan.depth &&
           can_issue()) {
      Pending p;
      p.seq = result.issued++;
      p.spec = callbacks.next_query(p.seq);
      conn.outbuf += metaprox::server::BuildQueryRequest(
          model_names_[p.spec.model], p.spec.node, p.spec.k);
      p.sent_ns = tracer_->Now();
      p.gen_lo = gen_known_;
      conn.awaiting.push_back(p);
      ++in_flight;
    }
    return Flush(c);
  };

  for (size_t c = 0; c < query_connections_; ++c) {
    MX_RETURN_IF_ERROR(top_up(c));
  }
  if (has_admin_) MX_RETURN_IF_ERROR(Flush(conns_.size() - 1));

  std::vector<metaprox::server::EpollLoop::Event> events;
  std::vector<std::string> lines;
  while (in_flight > 0 || can_issue()) {
    auto n = loop_->Wait(/*timeout_millis=*/60000, &events);
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::Internal("load generator stalled for 60 s");
    for (size_t e = 0; e < *n; ++e) {
      const size_t c = static_cast<size_t>(events[e].tag);
      if (events[e].error) {
        return Status::IoError("socket error on connection " +
                               std::to_string(c));
      }
      if (events[e].writable) MX_RETURN_IF_ERROR(Flush(c));
      if (!events[e].readable) continue;
      lines.clear();
      MX_RETURN_IF_ERROR(Drain(c, &lines));
      const int64_t now = tracer_->Now();
      if (c >= query_connections_) {
        for (const std::string& line : lines) callbacks.on_admin_line(line);
        continue;
      }
      Conn& conn = conns_[c];
      for (const std::string& line : lines) {
        if (conn.awaiting.empty()) {
          return Status::Internal("unsolicited line: " + line.substr(0, 80));
        }
        const Pending p = conn.awaiting.front();
        conn.awaiting.pop_front();
        --in_flight;
        last_answer = now;
        tracer_->Record("server.query", p.sent_ns, now, p.seq + 1);
        if (line.rfind("E ", 0) == 0) {
          ++result.errors;
          continue;
        }
        ++result.answered;
        Answer answer;
        answer.seq = p.seq;
        answer.spec = p.spec;
        answer.line = &line;
        answer.latency_ms = static_cast<double>(now - p.sent_ns) * 1e-6;
        answer.gen_lo = p.gen_lo;
        answer.gen_hi = gen_requested_;
        callbacks.on_answer(answer);
      }
    }
    if (quiesce_requested_ && in_flight == 0) {
      const int64_t t0 = tracer_->Now();
      callbacks.on_quiescent();
      paused += tracer_->Now() - t0;
      quiesce_requested_ = false;
    }
    for (size_t c = 0; c < query_connections_; ++c) {
      MX_RETURN_IF_ERROR(top_up(c));
    }
    if (has_admin_) MX_RETURN_IF_ERROR(Flush(conns_.size() - 1));
  }
  result.seconds = static_cast<double>(last_answer - start - paused) * 1e-9;
  return result;
}

StatusOr<std::string> LoadGenerator::AdminRoundTrip(const std::string& line) {
  const size_t c = conns_.size() - 1;
  conns_[c].outbuf += line;
  MX_RETURN_IF_ERROR(Flush(c));
  std::vector<metaprox::server::EpollLoop::Event> events;
  std::vector<std::string> lines;
  while (lines.empty()) {
    auto n = loop_->Wait(/*timeout_millis=*/60000, &events);
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::Internal("no reply to " + line);
    for (size_t e = 0; e < *n; ++e) {
      if (events[e].tag != c) continue;
      if (events[e].writable) MX_RETURN_IF_ERROR(Flush(c));
      if (events[e].readable) MX_RETURN_IF_ERROR(Drain(c, &lines));
    }
  }
  if (lines.size() != 1) return Status::Internal("unexpected extra admin reply");
  return lines.front();
}

}  // namespace servebench
