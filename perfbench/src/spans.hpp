// In-memory span recorder for the traced run. One span is recorded around
// each call the benchmark makes into the library: its name ("layer.call"),
// host start and end time, the enclosing span and the operation it served.
// Nothing is recorded when the recorder is off, so the untraced run pays one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string, "layer.call"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t op = 0;      ///< operation id the span belongs to

  std::int64_t dur_ns() const { return end_ns - start_ns; }
  std::string layer() const {
    const std::string n = name;
    return n.substr(0, n.find('.'));
  }
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }
  void set_op(std::uint64_t op) { op_ = op; }

  std::int32_t open(const char* name) {
    if (!on_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, open_, op_});
    open_ = idx;
    return idx;
  }

  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (ns) of the spans named `name`.
  double sum_ns(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_)
      if (name == s.name) sum += static_cast<double>(s.dur_ns());
    return sum;
  }

  /// Mean duration (ns) of the spans named `name`; 0 when there are none.
  double mean_ns(const std::string& name) const {
    std::uint64_t n = 0;
    for (const Span& s : spans_) n += name == s.name;
    return n ? sum_ns(name) / static_cast<double>(n) : 0.0;
  }

  /// Self time per layer (ns): each span's duration minus the part of it its
  /// child spans cover, summed by the span name's layer prefix.
  std::map<std::string, double> self_time_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.dur_ns());
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].layer()] += static_cast<double>(spans_[i].dur_ns()) - child[i];
    return out;
  }

  /// One JSON object per line: name, start, end (ns, relative to the first
  /// span), parent index and operation id.
  void write_jsonl(std::ostream& os) const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - t0
         << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent << ",\"op\":" << s.op
         << "}\n";
  }

 private:
  bool on_;
  std::uint64_t op_ = 0;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), idx_(log.open(name)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

}  // namespace perfbench
