// In-memory spans for the traced run.
//
// The benchmark records spans from its own code, around its calls into each
// layer's public functions; nothing inside the library is instrumented.
// Spans stay in memory until the run ends and are then summarized. One
// thread records; completion times measured on other threads are handed
// over as plain timestamps.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;    // index into Tracer::names()
  std::uint32_t parent = 0;  // id of the parent span; 0 = a root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // 0 while open
};

class Tracer {
 public:
  /// Open a span now; returns its id (>= 1).
  std::uint32_t begin(std::string_view name, std::uint64_t request,
                      std::uint32_t parent = 0);
  void end(std::uint32_t id);
  /// Add an already finished span.
  std::uint32_t record(std::string_view name, std::uint64_t request,
                       std::uint32_t parent, Clock::time_point start,
                       Clock::time_point end);

  /// Durations in µs of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  struct LayerTime {
    std::string name;
    std::size_t count = 0;
    double median_us = 0.0;  // median span duration
    double self_ms = 0.0;    // total self time
  };
  /// Per span name: count, median duration and total self time, where a
  /// span's self time is its duration minus the part of it that its child
  /// spans cover.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

 private:
  std::uint32_t intern(std::string_view name);

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  Scope(Tracer& t, std::string_view name, std::uint64_t request,
        std::uint32_t parent)
      : t_(t), id_(t.begin(name, request, parent)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

/// The q-quantile (0..1) of `v`, linearly interpolated; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
