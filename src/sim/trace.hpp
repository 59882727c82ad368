// Chrome-tracing (chrome://tracing, Perfetto) event trace for the
// simulator: per-request lifecycle spans, memory-controller mode switches,
// and counter tracks. Load the emitted JSON in a trace viewer to watch a
// write drain blocking reads or the red-regime backlog building up.
//
// Usage:
//   sim::Tracer tracer("run.trace.json");
//   sim::Tracer::set_global(&tracer);   // components pick it up if present
//   ... run ...
//   tracer.flush();                      // or let the destructor do it
//
// A tracer keeps at most `max_events` events; later ones are counted, not
// stored. flush() records the count in the trace's metadata and warns on
// stderr when any were dropped, so a truncated trace never passes for a
// complete one.
//
// The global hook keeps the hot paths free of plumbing; tracing is a
// debugging aid, not a measurement surface, and costs nothing when no
// global tracer is installed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace hostnet::sim {

class Tracer {
 public:
  /// Default cap: ~hundreds of MB of JSON.
  static constexpr std::size_t kDefaultMaxEvents = 4u << 20;

  explicit Tracer(std::string path, std::size_t max_events = kDefaultMaxEvents)
      : path_(std::move(path)), max_events_(max_events) {
    events_.reserve(std::min<std::size_t>(max_events_, 1 << 16));
  }
  ~Tracer() { flush(); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A span: `name` from `start` lasting `dur` on track `tid`.
  void complete_event(const char* name, const char* cat, Tick start, Tick dur,
                      std::uint32_t tid) {
    record(Event{name, cat, start, dur, tid, kSpan, 0.0});
  }

  /// A zero-duration marker.
  void instant(const char* name, const char* cat, Tick at, std::uint32_t tid) {
    record(Event{name, cat, at, 0, tid, kInstant, 0.0});
  }

  /// A counter sample (rendered as a chart track).
  void counter(const char* name, Tick at, double value) {
    record(Event{name, "counter", at, 0, 0, kCounter, value});
  }

  std::size_t size() const { return events_.size(); }
  /// Events refused because the tracer was full.
  std::uint64_t dropped() const { return dropped_; }

  void flush();

  static Tracer* global() { return global_; }
  static void set_global(Tracer* t) { global_ = t; }

  /// Track-id convention used by the built-in hooks.
  static constexpr std::uint32_t kTrackCore = 100;        ///< + core id
  static constexpr std::uint32_t kTrackIio = 50;
  static constexpr std::uint32_t kTrackChannel = 10;      ///< + channel id

 private:
  enum Kind : std::uint8_t { kSpan, kInstant, kCounter };
  struct Event {
    const char* name;
    const char* cat;
    Tick ts;
    Tick dur;
    std::uint32_t tid;
    Kind kind;
    double value;
  };

  void record(const Event& e) {
    if (events_.size() < max_events_)
      events_.push_back(e);
    else
      ++dropped_;
  }

  std::string path_;
  std::size_t max_events_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
  bool flushed_ = false;
  static inline Tracer* global_ = nullptr;
};

}  // namespace hostnet::sim
