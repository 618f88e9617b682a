#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace servebench {

uint64_t Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  span.name = name;
  span.start_ns = Now();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  // Ids are 1-based positions; LIFO closing keeps open_ a stack.
  spans_[id - 1].end_ns = Now();
  if (!open_.empty() && open_.back() == id - 1) open_.pop_back();
}

void Tracer::Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                    uint64_t request) {
  if (!enabled_) return;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  // Children of each span as intervals; their union (clipped to the
  // parent) is the covered part. Request spans overlap, hence the union.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_start = 0;
      int64_t run_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::Write(const std::string& path,
                   const std::vector<std::string>& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{", f);
  for (const std::string& field : header) std::fprintf(f, "%s, ", field.c_str());
  std::fputs("\"layer_self_s\": {", f);
  bool first = true;
  for (const auto& [layer, seconds] : LayerSelfSeconds()) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(),
                 seconds);
    first = false;
  }
  std::fputs("},\n\"spans\": [", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%llu, %llu, %llu, \"%s\", %lld, %lld]",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace servebench
