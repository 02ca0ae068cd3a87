// The benchmark's named workloads. Each runner sets its server up,
// checks every reply against the direct reference, and adds its
// end-to-end metrics (untraced run) or per-layer metrics (traced run)
// to the report. See NOTES.md for why each workload exists.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common.hpp"
#include "harness.hpp"

namespace apccbench {

/// What the result line says about correctness.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const PhaseStats& stats) {
    attempted += stats.sent;
    failed += stats.failed;
    if (stats.failed != 0) correct = false;
  }
};

/// A run whose load generator fell too far behind its schedule: the
/// figures would describe the generator, not the server.
struct InvalidRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using Runner = std::function<Outcome(const Args&, Report&)>;

Outcome run_serve_mixed(const Args& args, Report& report);
Outcome run_campaign_suite(const Args& args, Report& report);
Outcome run_artifact_churn(const Args& args, Report& report);

/// Workloads by name (registered in-process, independent of any
/// workload namespace the program itself grows).
[[nodiscard]] const std::map<std::string, Runner>& registry();

/// A derived seed for one phase of a run, so phases draw independent
/// streams from the one --seed.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt);

/// Build programs, timing each build as a "workloads.build" span.
template <typename Make>
auto timed_build(Make make) {
  const ScopedSpan span("workloads.build");
  return make();
}

/// The end-to-end metrics shared by every workload's result line. The
/// workload-specific ones are defined for all three; NOTES.md gives
/// each definition per workload.
void report_common_e2e(Report& report, double setup_s,
                       const std::vector<double>& normal_ms,
                       const std::vector<double>& bulk_ms,
                       double max_rate, double jobs_per_s,
                       double steps_per_s, const Outcome& outcome);

/// The load-generator, cache and tracing-overhead metrics of a traced
/// run's timed phase.
void report_timed_layers(Report& report, const PhaseStats& traced,
                         const CacheDelta& cache,
                         const apcc::serving::CacheStats& after,
                         double untraced_p50_ms, double traced_p50_ms);

/// Write the traced run's spans (Chrome trace-event JSON) to `path`.
void write_trace(const std::string& path);

}  // namespace apccbench
