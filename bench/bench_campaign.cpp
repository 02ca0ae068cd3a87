// Campaign throughput: suite x grid sweeps on one shared pool, with
// per-(workload, k) FrontierCache geometry shared across engines.
//
// sweep::run_campaign flattens the whole (workload x task) matrix into
// one work-stealing queue -- the paper's fig3/E10-style design-space
// exploration run over every suite workload at once -- and optionally
// builds each (workload, predecompress_k) FrontierCache once,
// materialized, for every engine over that key to borrow. This bench
// compares per-workload sequential sweeps against the campaign at
// several worker counts, with geometry sharing on and off; the
// google-benchmark registrations emit the stable series for
// BENCH_campaign.json. Campaign outcomes are byte-identical to the
// sequential per-workload grids (tests/sweep/campaign_test.cpp pins
// that); the checksum column makes a divergence visible here too.
//
// Caveat (docs/PERFORMANCE.md): wall-clock speedup saturates at the
// host's hardware threads (4 on the reference container); the
// checksums (determinism) and the shared-geometry delta (fewer BFS
// rebuilds, visible even single-threaded) hold at any width.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.hpp"
#include "support/table.hpp"
#include "sweep/campaign.hpp"

namespace {

using namespace apcc;

const std::vector<workloads::WorkloadKind>& campaign_kinds() {
  static const auto* quick = new std::vector<workloads::WorkloadKind>{
      workloads::WorkloadKind::kAdpcmLike, workloads::WorkloadKind::kCrcLike};
  static const auto* full = new std::vector<workloads::WorkloadKind>{
      workloads::WorkloadKind::kAdpcmLike, workloads::WorkloadKind::kGsmLike,
      workloads::WorkloadKind::kG721Like, workloads::WorkloadKind::kCrcLike};
  return bench::quick_mode() ? *quick : *full;
}

struct CampaignSetup {
  std::vector<core::CodeCompressionSystem> systems;
  std::vector<core::CampaignEntry> entries;
  std::vector<sweep::SweepTask> grid;
};

const CampaignSetup& setup() {
  static const auto* s = [] {
    auto* out = new CampaignSetup();
    std::uint64_t largest = 0;
    for (const auto kind : campaign_kinds()) {
      const auto& w = bench::cached_workload(kind);
      for (const auto b : w.trace) {
        largest = std::max(largest, w.cfg.block(b).size_bytes());
      }
      out->systems.push_back(
          core::CodeCompressionSystem::from_workload(w, {}));
    }
    for (std::size_t i = 0; i < out->systems.size(); ++i) {
      out->entries.push_back(
          {bench::cached_workload(campaign_kinds()[i]).name,
           &out->systems[i]});
    }
    // The shared grid: strategy x k x budget. The tight budget is sized
    // off the largest executed block across *all* campaign workloads so
    // one grid stays valid for every workload.
    const auto ks = bench::quick_mode()
                        ? std::vector<std::uint32_t>{1u, 4u}
                        : std::vector<std::uint32_t>{1u, 2u, 4u, 8u, 16u};
    for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                                runtime::DecompressionStrategy::kPreAll,
                                runtime::DecompressionStrategy::kPreSingle}) {
      for (const std::uint32_t k : ks) {
        for (const bool tight : {false, true}) {
          sweep::SweepTask task;
          task.config = out->systems.front().engine_config();
          task.config.policy.strategy = strategy;
          task.config.policy.compress_k = k;
          task.config.policy.predecompress_k = k;
          if (tight) task.config.policy.memory_budget = largest * 3 + 32;
          task.label = std::string(runtime::strategy_name(strategy)) +
                       "/k=" + std::to_string(k) +
                       (tight ? "/tight" : "/unbounded");
          out->grid.push_back(std::move(task));
        }
      }
    }
    return out;
  }();
  return *s;
}

/// Order-sensitive digest over every workload's outcomes: any divergence
/// (dropped cell, reordering, crosstalk, geometry-induced drift) changes
/// it.
std::uint64_t campaign_checksum(
    const std::vector<sweep::CampaignResult>& results) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : results) {
    mix(r.outcomes.size());
    for (const auto& o : r.outcomes) {
      mix(o.index);
      mix(o.result.total_cycles);
      mix(o.result.exceptions);
      mix(o.result.predecompressions);
      mix(o.result.evictions);
      mix(o.result.peak_occupancy_bytes);
    }
  }
  return h;
}

void print_tables() {
  bench::print_header(
      "Campaign throughput",
      "suite x grid campaign on one shared pool vs per-workload\n"
      "sequential sweeps; FrontierCache geometry shared vs owned");
  const auto& s = setup();
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << "; " << s.entries.size() << " workloads x " << s.grid.size()
            << " grid points = " << s.entries.size() * s.grid.size()
            << " matrix cells\n(speedup saturates at the hardware threads;\n"
               "the checksum column must be identical everywhere)\n\n";

  TextTable table;
  table.row()
      .cell("mode")
      .cell("workers")
      .cell("wall ms")
      .cell("speedup")
      .cell("checksum");
  double baseline_ms = 0.0;
  auto add_row = [&](const char* mode, unsigned workers, double ms,
                     std::uint64_t checksum) {
    if (baseline_ms == 0.0) baseline_ms = ms;
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(checksum));
    table.row()
        .cell(mode)
        .cell(std::uint64_t{workers})
        .cell(ms, 1)
        .cell(baseline_ms > 0 ? baseline_ms / ms : 1.0, 2)
        .cell(digest);
  };

  {
    // Baseline: each workload's grid as its own sequential sweep --
    // what running the suite through run_sweep one workload at a time
    // costs.
    const auto start = std::chrono::steady_clock::now();
    std::vector<sweep::CampaignResult> results;
    for (const auto& entry : s.entries) {
      sweep::SweepOptions options;
      options.workers = 1;
      results.push_back(sweep::CampaignResult{
          entry.name, entry.system->run_sweep(s.grid, options)});
    }
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    add_row("sequential sweeps", 1, elapsed.count(),
            campaign_checksum(results));
  }

  for (const bool shared : {false, true}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      sweep::CampaignOptions options;
      options.workers = workers;
      options.share_frontiers = shared;
      const auto start = std::chrono::steady_clock::now();
      const auto results = core::run_campaign(s.entries, s.grid, options);
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      add_row(shared ? "campaign/shared-geometry" : "campaign/owned-geometry",
              workers, elapsed.count(), campaign_checksum(results));
    }
  }
  std::cout << table.render() << '\n';
  std::cout << "Shape check: one checksum everywhere (campaign ==\n"
               "sequential suite, geometry sharing changes nothing);\n"
               "shared-geometry rows at or below owned-geometry rows\n"
               "(each (workload, k) frontier BFS runs once, not per\n"
               "engine).\n\n";
}

void bm_campaign(benchmark::State& state) {
  const auto& s = setup();
  sweep::CampaignOptions options;
  options.workers = static_cast<unsigned>(state.range(0));
  options.share_frontiers = state.range(1) != 0;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto results = core::run_campaign(s.entries, s.grid, options);
    benchmark::DoNotOptimize(results.data());
    for (const auto& r : results) cells += r.outcomes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetLabel(std::to_string(options.workers) + "-worker/" +
                 (options.share_frontiers ? "shared" : "owned"));
}
BENCHMARK(bm_campaign)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

APCC_BENCH_MAIN(print_tables)
