// apccbench: the APCC end-to-end benchmark.
//
//   apccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   apccbench --self-test
//
// Runs one named workload against an in-process serving::Service behind
// a net::Server on loopback, checks every reply against the direct
// core::CodeCompressionSystem path, prints every metric by name and
// unit, and ends with one JSON result line: the end-to-end metrics
// (--trace 0) or the per-layer metrics of the traced run (--trace 1).
// Exit codes: 0 result printed, 1 error, 2 usage or failed self-test,
// 3 run void because the load generator fell behind its schedule.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace apccbench {

bool run_self_tests();

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",         "p50_ms",          "p99_ms",
    "bulk_p99_ms",     "max_rate_jobs_per_s", "jobs_per_s",
    "sim_steps_per_s", "peak_rss_mb",     "sim_peak_memory_pct",
    "sim_slowdown"};

std::vector<std::string> per_layer_metrics() {
  std::vector<std::string> names = {
      "net.rtt_p50_us",
      "net.frontdoor_us",
      "net.bytes_in_per_job",
      "net.bytes_out_per_job",
      "wire.result_bytes",
      "serving.submit_wait_p50_us",
      "serving.submit_wait_p99_us",
      "serving.overhead_us",
      "serving.queue_wait_p99_ms",
      "cache.image_hit_ratio",
      "cache.frontier_hit_ratio",
      "cache.image_builds",
      "cache.frontier_builds",
      "cache.evictions",
      "cache.evicted_bytes",
      "cache.resident_bytes",
      "sim.engine_ns_per_step",
      "sim.cell_ms_p50",
      "sim.block_entries",
      "sim.exceptions",
      "sim.predecompressions",
      "sim.deletions",
      "sweep.parallel_efficiency",
      "sweep.service_over_direct",
      "workloads.build_ms",
      "loadgen.lag_p99_ms",
      "loadgen.jobs_sent",
      "loadgen.jobs_ok",
      "loadgen.jobs_failed",
      "trace.overhead_pct"};
  for (const char* kind : {"run", "sweep", "campaign"}) {
    names.push_back(std::string("wire.parse_job_us.") + kind);
    names.push_back(std::string("wire.serialize_result_us.") + kind);
  }
  for (const char* codec : {"huffman-shared", "lzss", "codepack", "field-split"}) {
    names.push_back(std::string("runtime.image_build_ms.") + codec);
    names.push_back(std::string("compress.train_ms.") + codec);
    names.push_back(std::string("compress.encode_mb_per_s.") + codec);
  }
  for (const char* k : {"k1", "k2", "k3", "k4", "k8"}) {
    names.push_back(std::string("runtime.frontier_build_ms.") + k);
  }
  return names;
}

int usage(const std::string& why) {
  std::cerr << "apccbench: " << why
            << "\nusage: apccbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out <file>]\n"
               "       apccbench --self-test\nworkloads:";
  for (const auto& [name, runner] : registry()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

const std::map<std::string, Runner>& registry() {
  static const std::map<std::string, Runner> runners = {
      {"serve-mixed", run_serve_mixed},
      {"campaign-suite", run_campaign_suite},
      {"artifact-churn", run_artifact_churn}};
  return runners;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void report_common_e2e(Report& report, double setup_s,
                       const std::vector<double>& normal_ms,
                       const std::vector<double>& bulk_ms, double max_rate,
                       double jobs_per_s, double steps_per_s,
                       const Outcome& outcome) {
  Report::note("latency samples: " + std::to_string(normal_ms.size()) + " (" +
               std::to_string(normal_ms.size() / 100) +
               " beyond p99), batch-class samples " +
               std::to_string(bulk_ms.size()));
  report.add("setup_s", setup_s, "s");
  report.add("p50_ms", percentile(normal_ms, 50.0), "ms");
  report.add("p99_ms", percentile(normal_ms, 99.0), "ms");
  report.add("bulk_p99_ms", percentile(bulk_ms, 99.0), "ms");
  report.add("max_rate_jobs_per_s", max_rate, "1/s");
  report.add("jobs_per_s", jobs_per_s, "1/s");
  report.add("sim_steps_per_s", steps_per_s, "1/s");
  report.add("failed_frac",
             outcome.attempted == 0
                 ? 1.0
                 : static_cast<double>(outcome.failed) /
                       static_cast<double>(outcome.attempted),
             "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_timed_layers(Report& report, const PhaseStats& traced,
                         const CacheDelta& cache,
                         const apcc::serving::CacheStats& after,
                         double untraced_p50_ms, double traced_p50_ms) {
  const double sent = static_cast<double>(std::max<std::size_t>(traced.sent, 1));
  report.add("loadgen.lag_p99_ms", percentile(traced.lag_ms, 99.0), "ms");
  report.add("loadgen.jobs_sent", static_cast<double>(traced.sent), "count");
  report.add("loadgen.jobs_ok", static_cast<double>(traced.ok), "count");
  report.add("loadgen.jobs_failed", static_cast<double>(traced.failed),
             "count");
  report.add("net.bytes_in_per_job", static_cast<double>(traced.bytes_out) / sent,
             "B");
  report.add("net.bytes_out_per_job", static_cast<double>(traced.bytes_in) / sent,
             "B");
  report.add("wire.result_bytes", static_cast<double>(traced.bytes_in) / sent,
             "B");
  report.add("cache.image_hit_ratio", hit_ratio(cache.images), "ratio");
  report.add("cache.frontier_hit_ratio", hit_ratio(cache.frontiers), "ratio");
  report.add("cache.image_builds", static_cast<double>(cache.images.built),
             "count");
  report.add("cache.frontier_builds",
             static_cast<double>(cache.frontiers.built), "count");
  report.add("cache.evictions",
             static_cast<double>(cache.images.evictions +
                                 cache.frontiers.evictions),
             "count");
  report.add("cache.evicted_bytes",
             static_cast<double>(cache.images.evicted_bytes +
                                 cache.frontiers.evicted_bytes),
             "B");
  report.add("cache.resident_bytes",
             static_cast<double>(after.images.bytes + after.frontiers.bytes),
             "B");
  report.add("trace.overhead_pct",
             100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms, "%");
}

void write_trace(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << tracer().to_json();
  if (!out) throw std::runtime_error("cannot write the trace to " + path);
  Report::note("trace: " + std::to_string(tracer().spans().size()) +
               " spans written to " + path);
}

}  // namespace apccbench

int main(int argc, char** argv) {
  using namespace apccbench;
  Args args;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return run_self_tests() ? 0 : 2;
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (!have_workload || !have_trace) return usage("--workload and --trace are required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  const auto it = registry().find(args.workload);
  if (it == registry().end()) return usage("unknown workload " + args.workload);
  if (!run_self_tests()) return 2;

  try {
    Report report;
    Report::note("workload " + args.workload + " seed " +
                 std::to_string(args.seed) + " seconds " +
                 format_double(args.seconds) +
                 (args.trace ? " (traced)" : ""));
    const Outcome outcome = it->second(args, report);
    if (args.trace) {
      note_layer_self_times();
      write_trace(args.trace_out);
    }
    std::cout << report.json(outcome.correct, outcome.attempted,
                             outcome.failed,
                             args.trace ? per_layer_metrics() : kEndToEnd)
              << std::endl;
    return 0;
  } catch (const InvalidRun& e) {
    std::cerr << "apccbench: run void: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "apccbench: " << e.what() << "\n";
    return 1;
  }
}
