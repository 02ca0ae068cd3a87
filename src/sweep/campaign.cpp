#include "sweep/campaign.hpp"

#include <algorithm>
#include <map>

#include "runtime/artifact_slot.hpp"
#include "sim/engine.hpp"
#include "support/assert.hpp"
#include "sweep/pool.hpp"

namespace apcc::sweep {

namespace {

/// One geometry slot per runtime::FrontierKey -- (CFG identity,
/// predecompress_k) -- the grid needs. The submitting thread only
/// creates the (cheap, empty) slots; the first pool worker whose cell
/// needs a key claims its build and materializes on the worker, so
/// geometry construction overlaps with simulation of cells over other
/// keys instead of serializing on the caller before the pool starts.
using GeometrySlot = runtime::ArtifactSlot<runtime::FrontierCache>;
using GeometryMap =
    std::map<runtime::FrontierKey, std::unique_ptr<GeometrySlot>>;

GeometryMap make_geometry_slots(const std::vector<CampaignWorkload>& workloads,
                                const std::vector<SweepTask>& grid) {
  GeometryMap geometry;
  for (const CampaignWorkload& workload : workloads) {
    for (const SweepTask& task : grid) {
      auto& slot = geometry[runtime::FrontierKey{
          workload.cfg, task.config.policy.predecompress_k}];
      if (!slot) slot = std::make_unique<GeometrySlot>();
    }
  }
  return geometry;
}

}  // namespace

std::vector<CampaignResult> run_campaign(
    const std::vector<CampaignWorkload>& workloads,
    const std::vector<SweepTask>& grid, const CampaignOptions& options) {
  std::vector<CampaignResult> results(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const CampaignWorkload& workload = workloads[w];
    APCC_CHECK(workload.cfg != nullptr && workload.image != nullptr &&
                   workload.trace != nullptr,
               "campaign workload '" + workload.name +
                   "' has a null cfg/image/trace");
    results[w].workload = workload.name;
  }
  if (workloads.empty() || grid.empty()) return results;

  GeometryMap geometry;
  if (options.share_frontiers) geometry = make_geometry_slots(workloads, grid);

  // Flatten the (workload x task) matrix workload-major: cell i is
  // workload i / |grid|, task i % |grid| -- so the one-worker inline
  // order is exactly "each workload's grid sequentially".
  const std::size_t total = workloads.size() * grid.size();
  SweepOptions pool_options;
  pool_options.workers = options.workers;
  const unsigned workers = resolve_workers(pool_options, total);

  std::vector<ResultSink> sinks(workloads.size());
  detail::parallel_for_index(total, workers, [&](std::size_t i) {
    const std::size_t w = i / grid.size();
    const std::size_t t = i % grid.size();
    const CampaignWorkload& workload = workloads[w];
    sim::EngineConfig config = grid[t].config;
    // On-demand cells never plan, so materializing geometry for them
    // would be pure waste; their engines keep a lazy cache of their own.
    const bool plans =
        config.policy.strategy != runtime::DecompressionStrategy::kOnDemand;
    if (options.share_frontiers && plans) {
      // Claim-build or wait: first cell over this (workload, k) key
      // materializes the cache on its worker, everyone later borrows.
      // The campaign owns its slots for their whole life and never
      // evicts, so the borrow is unpinned.
      const unsigned k = config.policy.predecompress_k;
      config.shared_frontiers =
          geometry.at(runtime::FrontierKey{workload.cfg, k})
              ->acquire([] {},
                        [&](bool) {
                          auto cache = std::make_unique<runtime::FrontierCache>(
                              *workload.cfg, k);
                          cache->materialize();
                          return cache;
                        },
                        /*pin=*/false)
              .artifact;
    }
    sim::Engine engine(*workload.cfg, *workload.image, config);
    sinks[w].push(SweepOutcome{t, grid[t].label, engine.run(*workload.trace)});
  });

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    results[w].outcomes = sinks[w].take_sorted();
  }
  return results;
}

}  // namespace apcc::sweep
