#include "trace.hpp"

#include <algorithm>

namespace perfbench {

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(std::string_view name, std::uint64_t request,
                            std::uint32_t parent) {
  spans_.push_back({intern(name), parent, request, to_ns(Clock::now()), 0});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = to_ns(Clock::now());
}

std::uint32_t Tracer::record(std::string_view name, std::uint64_t request,
                             std::uint32_t parent, Clock::time_point start,
                             Clock::time_point end) {
  spans_.push_back({intern(name), parent, request, to_ns(start), to_ns(end)});
  return static_cast<std::uint32_t>(spans_.size());
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (names_[s.name] == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

std::vector<Tracer::LayerTime> Tracer::layer_times() const {
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);

  std::vector<LayerTime> out(names_.size());
  std::vector<std::vector<double>> durations(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out[s.name].self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    durations[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  for (std::size_t n = 0; n < names_.size(); ++n) {
    out[n].name = names_[n];
    out[n].count = durations[n].size();
    out[n].median_us = median(std::move(durations[n]));
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
