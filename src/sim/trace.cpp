#include "sim/trace.hpp"

namespace hostnet::sim {

void Tracer::flush() {
  if (flushed_) return;
  flushed_ = true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) return;
  // Chrome tracing JSON array format; timestamps are microseconds (double).
  std::fputs("[\n", f);
  // Metadata record: how many events the cap refused (0 for a full trace).
  std::fprintf(f,
               "{\"name\":\"hostnet_trace\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"dropped_events\":%llu,\"max_events\":%zu}}",
               static_cast<unsigned long long>(dropped_), max_events_);
  for (const Event& e : events_) {
    std::fputs(",\n", f);
    const double ts_us = static_cast<double>(e.ts) / kMicrosecond;
    switch (e.kind) {
      case kSpan: {
        const double dur_us = static_cast<double>(e.dur) / kMicrosecond;
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.6f,"
                     "\"dur\":%.6f,\"pid\":1,\"tid\":%u}",
                     e.name, e.cat, ts_us, dur_us, e.tid);
        break;
      }
      case kInstant:
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.6f,"
                     "\"s\":\"t\",\"pid\":1,\"tid\":%u}",
                     e.name, e.cat, ts_us, e.tid);
        break;
      case kCounter:
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.6f,\"pid\":1,"
                     "\"args\":{\"value\":%.3f}}",
                     e.name, ts_us, e.value);
        break;
    }
  }
  std::fputs("\n]\n", f);
  std::fclose(f);
  if (dropped_ != 0)
    std::fprintf(stderr,
                 "hostnet tracer: %s is truncated: dropped %llu events past the "
                 "%zu-event cap\n",
                 path_.c_str(), static_cast<unsigned long long>(dropped_), max_events_);
}

}  // namespace hostnet::sim
