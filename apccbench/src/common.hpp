// Shared helpers of the APCC benchmark: clocks, order statistics, the
// seeded input generators (Poisson arrival schedule, Zipf key stream),
// the span tracer, and the metric report. Everything here is the
// benchmark's own code; none of it calls into the library.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace apccbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds since an arbitrary fixed origin.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}
[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

/// Nearest-rank percentile, p in [0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------ inputs

/// Uniform double in [0, 1) from 53 random bits (portable: no
/// implementation-defined distribution objects, so a seed means the
/// same inputs on every standard library).
[[nodiscard]] inline double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// `count` arrival offsets (ns from phase start) of a Poisson process
/// at `rate_per_s`, conditioned on the count: the last arrival lands
/// exactly at count / rate_per_s.
[[nodiscard]] std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                                         double rate_per_s,
                                                         std::size_t count);

/// Zipf(s) sampler over ranks 0..n-1 (rank r has weight 1/(r+1)^s).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// `count` Zipf(s) ranks over n keys drawn from `seed`.
[[nodiscard]] std::vector<std::size_t> zipf_stream(std::uint64_t seed,
                                                   std::size_t n, double s,
                                                   std::size_t count);

// ------------------------------------------------------------- spans

/// One traced interval: a name ("<layer>.<operation>"), its start and
/// end, the span it was opened inside (-1 at top level), and the job it
/// belongs to (0 = none).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

/// In-memory span recorder for the thread that drives the benchmark.
/// Disabled, it records nothing and ScopedSpan costs one branch.
class Tracer {
 public:
  bool enabled = false;

  /// Open a span now, nested in the innermost open span.
  int open(std::string name, std::uint64_t job = 0);
  void close(int index);
  /// Record an already-measured interval (nested in the innermost open
  /// span).
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t job = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Total duration (ms) of the spans with exactly this name.
  [[nodiscard]] double total_ms(const std::string& name) const;

  /// Chrome trace-event JSON of every span (viewable in Perfetto).
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t job = 0)
      : index_(tracer().enabled ? tracer().open(name, job) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Self time of every span (ns): its duration minus the part of its
/// interval that the union of its children's intervals covers.
/// Children may nest or overlap; only the part inside the parent
/// counts.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Self time (ms) summed per layer, the span-name prefix before '.',
/// leaving out the layer named `skip`.
[[nodiscard]] std::map<std::string, double> layer_self_ms(
    const std::vector<Span>& spans, const std::string& skip = "");

// ------------------------------------------------------------ report

/// The run's metrics, printed one per line as they are added and, at
/// the end, as the JSON result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A free-form line of the human-readable report.
  static void note(const std::string& text);

  [[nodiscard]] double value(const std::string& name) const;

  /// The final line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the `names` metrics. Throws if one was never added.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed,
                                 const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
};

/// Shortest-round-trip decimal text of a double (all its digits).
[[nodiscard]] std::string format_double(double value);

}  // namespace apccbench
