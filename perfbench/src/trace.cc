#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

DistanceCounters operator-(const DistanceCounters& a,
                           const DistanceCounters& b) {
  return {a.evals - b.evals, a.abandons - b.abandons, a.ns - b.ns};
}

namespace {
std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

double TimedDistance::Distance(std::string_view x, std::string_view y) const {
  const std::uint64_t t0 = NowNs();
  const double d = inner_->Distance(x, y);
  ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  evals_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

double TimedDistance::DistanceBounded(std::string_view x, std::string_view y,
                                      double bound) const {
  const std::uint64_t t0 = NowNs();
  const double d = inner_->DistanceBounded(x, y, bound);
  ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  evals_.fetch_add(1, std::memory_order_relaxed);
  if (d >= bound) abandons_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

DistanceCounters TimedDistance::Read() const {
  return {evals_.load(std::memory_order_relaxed),
          abandons_.load(std::memory_order_relaxed),
          ns_.load(std::memory_order_relaxed)};
}

int Tracer::Begin(std::string name, std::uint64_t request, int parent) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.parent = parent;
  open_.push_back(timed_ != nullptr ? timed_->Read() : DistanceCounters{});
  s.start_s = NowSeconds();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  Span& s = spans_[id];
  s.end_s = NowSeconds();
  if (timed_ != nullptr) {
    const DistanceCounters d = timed_->Read() - open_[id];
    s.dist_evals = d.evals;
    s.dist_abandons = d.abandons;
    s.dist_ns = d.ns;
  }
}

int Tracer::Add(Span span) {
  spans_.push_back(std::move(span));
  open_.emplace_back();
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::SelfSeconds(int id) const {
  std::vector<std::pair<double, double>> kids;
  std::uint64_t kid_dist_ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) {
      kids.emplace_back(s.start_s, s.end_s);
      kid_dist_ns += s.dist_ns;
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = -1e300;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  const Span& me = spans_[id];
  const double own_dist =
      static_cast<double>(me.dist_ns - std::min(me.dist_ns, kid_dist_ns)) * 1e-9;
  return DurationSeconds(id) - covered - own_dist;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"dist_evals\":%llu,"
                 "\"dist_ns\":%llu}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                 s.parent, s.start_s, s.end_s,
                 static_cast<unsigned long long>(s.dist_evals),
                 static_cast<unsigned long long>(s.dist_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
