// Span recorder for the FlatStore benchmark's traced run.
//
// A span covers one call from the benchmark into a layer's public API.
// Its name is the layer; it records host start and end (steady_clock ns
// since the recorder was made), vt start and end (simulated ns of the
// core clock bound during the call, 0 when none is), the simulated core,
// and its parent span. Spans nest strictly: the whole benchmark runs on
// one host thread.
//
// Up to kPerPhase spans of each phase are kept in a buffer allocated up
// front and written out at the end as Chrome trace-event JSON, so the
// trace shows the start of every phase rather than only the preload.
// Every span, kept or not, is folded into per-(phase, name) totals,
// including host self time (duration minus the time its child spans
// cover). With tracing off no recorder exists, so the untraced run pays
// nothing.

#ifndef FLATSTORE_PERFBENCH_TRACE_H_
#define FLATSTORE_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vt/clock.h"

namespace flatstore {
namespace perfbench {

class Tracer {
 public:
  static constexpr size_t kPerPhase = 1 << 15;
  static constexpr size_t kPhases = 5;  // setup measure ladder probe recovery
  static constexpr size_t kCapacity = kPerPhase * kPhases;

  // Totals of every span of one name within one phase.
  struct Totals {
    uint64_t count = 0;
    uint64_t host_ns = 0;
    uint64_t host_self_ns = 0;
    uint64_t vt_ns = 0;
  };

  Tracer() : t0_(std::chrono::steady_clock::now()) {
    spans_.reserve(kCapacity);
    stack_.reserve(64);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Phase every later span is filed under (a string literal).
  void set_phase(const char* phase) {
    if (phase_ != phase) phase_kept_ = 0;
    phase_ = phase;
  }

  // Opens a span named by a string literal (its address is the key).
  void Begin(const char* name, int core) {
    Open o;
    o.id = next_id_++;
    o.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back().id);
    o.name = name;
    o.phase = phase_;
    o.core = core;
    o.vt_start = vt::Now();
    o.host_start = HostNow();
    stack_.push_back(o);
  }

  // Closes the innermost open span.
  void End() {
    const uint64_t host_end = HostNow();
    const uint64_t vt_end = vt::Now();
    const Open o = stack_.back();
    stack_.pop_back();
    const uint64_t host = host_end - o.host_start;
    // Calls that bind no clock (setup, recovery) read 0 at both ends.
    const uint64_t vtd = vt_end >= o.vt_start ? vt_end - o.vt_start : 0;
    Totals& t = totals_[{o.phase, o.name}];
    t.count++;
    t.host_ns += host;
    t.host_self_ns += host - std::min(host, o.child_host_ns);
    t.vt_ns += vtd;
    if (!stack_.empty()) stack_.back().child_host_ns += host;
    if (phase_kept_ < kPerPhase && spans_.size() < kCapacity) {
      phase_kept_++;
      spans_.push_back({o.name, o.phase, o.id, o.parent, o.host_start,
                        host_end, o.vt_start, vt_end, o.core});
    } else {
      dropped_++;
    }
  }

  // Totals for (phase, name); zero when no such span ran.
  Totals Get(const char* phase, const char* name) const {
    Totals sum;
    for (const auto& [key, t] : totals_) {
      if (std::strcmp(key.first, phase) == 0 &&
          std::strcmp(key.second, name) == 0) {
        sum.count += t.count;
        sum.host_ns += t.host_ns;
        sum.host_self_ns += t.host_self_ns;
        sum.vt_ns += t.vt_ns;
      }
    }
    return sum;
  }

  uint64_t kept() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Chrome trace-event JSON: "X" complete events with microsecond host
  // timestamps, one track per simulated core (tid = core + 1; tid 0 is
  // the benchmark's own calls); vt, span id and parent id ride in args.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
          "\"args\": {\"id\": %llu, \"parent\": %lld, \"vt_start_ns\": "
          "%llu, \"vt_end_ns\": %llu}}",
          i == 0 ? "" : ",\n", s.name, s.phase,
          static_cast<double>(s.host_start) / 1000.0,
          static_cast<double>(s.host_end - s.host_start) / 1000.0,
          s.core + 1, static_cast<unsigned long long>(s.id),
          static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.vt_start),
          static_cast<unsigned long long>(s.vt_end));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  // Per-(phase, layer) table: calls, host total and self time, vt total.
  bool WriteSelfTable(const std::string& path) const {
    std::vector<std::pair<std::string, Totals>> rows;
    for (const auto& [key, t] : totals_) {
      rows.emplace_back(std::string(key.first) + " " + key.second, t);
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%-34s %10s %12s %14s %16s\n", "phase layer", "calls",
                 "host_ms", "host_self_ms", "vt_ns");
    for (const auto& [name, t] : rows) {
      std::fprintf(f, "%-34s %10llu %12.3f %14.3f %16llu\n", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.host_ns) / 1e6,
                   static_cast<double>(t.host_self_ns) / 1e6,
                   static_cast<unsigned long long>(t.vt_ns));
    }
    std::fprintf(f, "spans kept %llu, dropped %llu (%zu per phase)\n",
                 static_cast<unsigned long long>(spans_.size()),
                 static_cast<unsigned long long>(dropped_), kPerPhase);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* phase;
    uint64_t id;
    int64_t parent;  // -1 for a root span
    uint64_t host_start;
    uint64_t host_end;
    uint64_t vt_start;
    uint64_t vt_end;
    int core;
  };
  struct Open {
    uint64_t id;
    int64_t parent;
    const char* name;
    const char* phase;
    uint64_t host_start;
    uint64_t vt_start;
    uint64_t child_host_ns = 0;
    int core;
  };

  uint64_t HostNow() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  std::chrono::steady_clock::time_point t0_;
  const char* phase_ = "setup";
  size_t phase_kept_ = 0;  // spans kept since the phase began
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  // Keyed by literal addresses: a lookup per span end costs a few pointer
  // compares, no string building.
  std::map<std::pair<const char*, const char*>, Totals> totals_;
  uint64_t dropped_ = 0;
};

// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int core = -1) : t_(t) {
    if (t_ != nullptr) t_->Begin(name, core);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
}  // namespace flatstore

#endif  // FLATSTORE_PERFBENCH_TRACE_H_
