// Spans around the benchmark's calls into metaprox layers (traced runs).
//
// A span holds a name ("<layer>.<call>"), start and end on the steady
// clock, the span that caused it and, for a query, the request id that
// all spans of one request share. Spans stay in memory; Write() emits them
// once, at exit, with each layer's self time: a span's duration minus the
// part of it that its child spans cover, summed over the layer's spans.
//
// A disabled tracer records nothing, so untraced runs pay one branch per
// call site.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // 0 = not part of a request
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Nanoseconds on the steady clock since the tracer was made.
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span nested under the innermost open one; returns its id
  /// (0 when disabled). Spans opened with Begin() must close in LIFO order.
  uint64_t Begin(const std::string& name, uint64_t request = 0);
  void End(uint64_t id);

  /// Records an already finished span under the innermost open span — the
  /// request spans of the load generator, which overlap one another.
  void Record(const std::string& name, int64_t start_ns, int64_t end_ns,
              uint64_t request);

  /// RAII Begin/End.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, uint64_t request = 0)
        : tracer_(tracer), id_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    uint64_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer (the span name up to its first '.').
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Writes {<header fields>, "layer_self_s": {...}, "spans": [...]} to
  /// `path`. `header` is a list of already serialized `"key": value`
  /// fragments. Returns false on I/O failure.
  bool Write(const std::string& path,
             const std::vector<std::string>& header) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_ of the open spans
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
