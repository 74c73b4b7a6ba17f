// Statistics and tracing helpers of the end-to-end benchmark (main.cpp).
//
// Everything here is a pure function of its inputs so stats_test.cpp can pin
// it on hand-built data: medians and quartiles, the tail-percentile rule,
// bench-side host spans with self time, per-step normalisation, and the
// simulated-timeline fractions computed from a sim::Node trace.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace e2e {

/// Median of `v` (mean of the two middle values for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("median of no samples");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First, second and third quartile with the same interpolation as Python's
/// statistics.quantiles(values, n=4) (its default "exclusive" method), so the
/// spreads this program reports match the ones computed over its outputs.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
inline Quartiles quartiles(std::vector<double> v) {
  const long ld = static_cast<long>(v.size());
  if (ld < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(v.begin(), v.end());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Fewest samples a reported tail percentile must have beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`
/// samples (the value at rank ceil(pct/100 * n)).
inline std::size_t samples_beyond(std::size_t n, int pct) {
  const std::size_t rank =
      (static_cast<std::size_t>(pct) * n + 99) / 100; // ceil(pct * n / 100)
  return n - std::min(n, rank);
}

/// Nearest-rank `pct`-th percentile. Throws when fewer than kTailSamples
/// samples lie beyond it: such a tail value rests on too few samples.
inline double tail_percentile(std::vector<double> v, int pct) {
  if (pct < 1 || pct > 99 || samples_beyond(v.size(), pct) < kTailSamples) {
    throw std::invalid_argument("p" + std::to_string(pct) + " of " +
                                std::to_string(v.size()) +
                                " samples has fewer than 10 beyond it");
  }
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      (static_cast<std::size_t>(pct) * v.size() + 99) / 100;
  return v[rank - 1];
}

/// `total` spread over `steps` steps (0 steps is a caller bug).
inline double per_step(double total, std::uint64_t steps) {
  if (steps == 0) {
    throw std::invalid_argument("per-step value over zero steps");
  }
  return total / static_cast<double>(steps);
}

/// `part / whole`, 0 when nothing was attempted.
inline double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// --- Bench-side host spans ---------------------------------------------------

/// One host span recorded around a call into the program. Times are
/// nanoseconds on the steady clock since the recorder was created.
struct Span {
  std::string name;
  int parent = -1; ///< index of the enclosing span, -1 at top level
  std::int64_t start_ns = 0, end_ns = 0;
};

/// In-memory span log. Spans nest by scope (the innermost open span is the
/// parent of the next one); nothing is written until the caller asks.
class SpanRecorder {
public:
  using Clock = std::chrono::steady_clock;

  /// RAII guard: opens a span on construction, closes it on destruction.
  /// A disabled recorder makes the guard a no-op.
  class Scope {
  public:
    Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
      if (rec_.enabled_) {
        index_ = rec_.open(name);
      }
    }
    ~Scope() {
      if (index_ >= 0) {
        rec_.close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder& rec_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Appends an already-timed span (tests build span trees this way).
  int add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

private:
  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Length of the union of `intervals` (half-open [first, second)).
inline double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) {
      continue;
    }
    if (!open || lo > cur_hi) {
      if (open) {
        total += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  return open ? total + (cur_hi - cur_lo) : total;
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval that its direct children cover.
inline std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      children[static_cast<std::size_t>(s.parent)].emplace_back(
          static_cast<double>(std::max(s.start_ns, p.start_ns)),
          static_cast<double>(std::min(s.end_ns, p.end_ns)));
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
              union_length(std::move(children[i]));
  }
  return self;
}

/// Sum of the durations of all spans called `name`, in nanoseconds.
inline double total_ns(const std::vector<Span>& spans,
                       const std::string& name) {
  double sum = 0;
  for (const Span& s : spans) {
    if (s.name == name) {
      sum += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return sum;
}

// --- Simulated timeline ------------------------------------------------------

/// Kernel busy seconds (summed over devices, so possibly above 1) per
/// simulated second in [t0, t1], from a Node trace. Kernels are clipped to
/// the window.
inline double kernel_busy_frac(const std::vector<sim::TraceEvent>& trace,
                               double t0, double t1) {
  double busy = 0;
  for (const sim::TraceEvent& e : trace) {
    if (e.kind == 'K') {
      busy += std::max(0.0, std::min(e.end, t1) - std::max(e.start, t0));
    }
  }
  return ratio(busy, t1 - t0);
}

/// Share of simulated time in [t0, t1] during which no kernel ran on any
/// device.
inline double compute_idle_frac(const std::vector<sim::TraceEvent>& trace,
                                double t0, double t1) {
  std::vector<std::pair<double, double>> kernels;
  for (const sim::TraceEvent& e : trace) {
    if (e.kind == 'K') {
      kernels.emplace_back(std::max(e.start, t0), std::min(e.end, t1));
    }
  }
  return 1.0 - ratio(union_length(std::move(kernels)), t1 - t0);
}

} // namespace e2e
