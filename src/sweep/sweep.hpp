// Sharded policy-grid sweeps.
//
// The paper's evaluation (and the fig3 / E10 benches) is a grid of
// policy configurations run over the same workload. Each grid point is
// an independent single-shot Engine run, and everything an Engine reads
// -- the Cfg, the BlockImage, the trace -- is immutable after
// construction, so the grid shards across a thread pool with one Engine
// per in-flight task and zero shared mutable state. Results funnel into
// a thread-safe ResultSink and come back in task order, so the parallel
// sweep is byte-identical to running the grid sequentially (the
// differential test in tests/sweep pins that).
//
// A sweep is a one-workload campaign (sweep/campaign.hpp): it runs on
// the campaign's pool loop and borrows the campaign's one materialized
// FrontierCache per predecompress_k instead of every engine rebuilding
// identical planner geometry.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/trace.hpp"
#include "runtime/block_image.hpp"
#include "sim/engine.hpp"
#include "sim/result.hpp"

namespace apcc::sweep {

/// One grid point: a label for reports plus the full engine knob set.
struct SweepTask {
  std::string label;
  sim::EngineConfig config{};
};

/// One grid point's outcome. `index` is the task's position in the
/// submitted list, so ordered collection is deterministic regardless of
/// which worker ran it.
struct SweepOutcome {
  std::size_t index = 0;
  std::string label;
  sim::RunResult result{};
};

struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (and
  /// never more than there are tasks). 1 runs inline on the caller's
  /// thread with no pool at all.
  unsigned workers = 0;
};

/// Thread-safe collection point for sweep outcomes.
class ResultSink {
 public:
  void push(SweepOutcome outcome);

  [[nodiscard]] std::size_t size() const;

  /// Drain the sink, returning the outcomes sorted by task index.
  [[nodiscard]] std::vector<SweepOutcome> take_sorted();

 private:
  mutable std::mutex mutex_;
  std::vector<SweepOutcome> outcomes_;
};

/// Number of workers a sweep of `task_count` tasks would actually use
/// under `options` (benches report it next to their scaling numbers).
[[nodiscard]] unsigned resolve_workers(const SweepOptions& options,
                                       std::size_t task_count);

/// Run every task against (cfg, image, trace), sharded across a thread
/// pool, and return the outcomes in task order. The image, cfg and
/// planner geometry are shared read-only across workers; each task gets
/// a fresh Engine. A CheckError thrown by any run is rethrown on the
/// calling thread after the pool drains.
[[nodiscard]] std::vector<SweepOutcome> run_sweep(
    const cfg::Cfg& cfg, const runtime::BlockImage& image,
    const cfg::BlockTrace& trace, const std::vector<SweepTask>& tasks,
    const SweepOptions& options = {});

}  // namespace apcc::sweep
