#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing from the outside: a forwarding timing decorator for
// StringDistance, and in-memory spans recorded around calls into each
// layer's public entry points, written out when the run ends.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "distances/distance.h"

namespace perfbench {

/// Totals a TimedDistance has seen.
struct DistanceCounters {
  std::uint64_t evals = 0;     // Distance + DistanceBounded calls
  std::uint64_t abandons = 0;  // bounded calls whose result reached the bound
  std::uint64_t ns = 0;        // wall time inside those calls
};
DistanceCounters operator-(const DistanceCounters& a, const DistanceCounters& b);

/// Forwards every StringDistance virtual to `inner`, so the search takes
/// exactly the decisions it takes on the bare distance (length bounds
/// included), and counts and times the evaluations.
class TimedDistance final : public cned::StringDistance {
 public:
  explicit TimedDistance(cned::StringDistancePtr inner)
      : inner_(std::move(inner)) {}

  double Distance(std::string_view x, std::string_view y) const override;
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override;
  double LengthLowerBound(std::size_t x_len, std::size_t y_len) const override {
    return inner_->LengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    inner_->LengthLowerBounds(x_len, y_lens, n, out);
  }
  std::string name() const override { return inner_->name(); }
  bool is_metric() const override { return inner_->is_metric(); }

  DistanceCounters Read() const;

 private:
  cned::StringDistancePtr inner_;
  // Atomic because index builds evaluate from ParallelFor workers.
  mutable std::atomic<std::uint64_t> evals_{0}, abandons_{0}, ns_{0};
};

/// Monotonic seconds (steady clock).
double NowSeconds();

struct Span {
  std::string name;
  std::uint64_t request = 0;  // spans of one request share it
  int parent = -1;            // index into the tracer's spans, -1 = root
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t dist_evals = 0;  // distance calls inside [start, end]
  std::uint64_t dist_abandons = 0;
  std::uint64_t dist_ns = 0;     // their summed time, children included
};

/// Spans of one thread of calls (the traced ladder runs one client at a
/// time). Distance time is attributed by reading the decorator's totals at
/// both span ends.
class Tracer {
 public:
  explicit Tracer(const TimedDistance* timed = nullptr) : timed_(timed) {}

  int Begin(std::string name, std::uint64_t request, int parent = -1);
  void End(int id);
  /// Appends a finished span as is (tests build trees by hand).
  int Add(Span span);

  /// Duration minus the time its direct children cover (their union) minus
  /// the distance time that is not inside a child.
  double SelfSeconds(int id) const;
  double DurationSeconds(int id) const {
    return spans_[id].end_s - spans_[id].start_s;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const TimedDistance* timed_;
  std::vector<Span> spans_;
  std::vector<DistanceCounters> open_;  // counters at Begin, per span
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
