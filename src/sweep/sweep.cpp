#include "sweep/sweep.hpp"

#include <algorithm>
#include <thread>

#include "sweep/campaign.hpp"

namespace apcc::sweep {

void ResultSink::push(SweepOutcome outcome) {
  const std::lock_guard<std::mutex> lock(mutex_);
  outcomes_.push_back(std::move(outcome));
}

std::size_t ResultSink::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return outcomes_.size();
}

std::vector<SweepOutcome> ResultSink::take_sorted() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SweepOutcome> out = std::move(outcomes_);
  outcomes_.clear();
  std::sort(out.begin(), out.end(),
            [](const SweepOutcome& a, const SweepOutcome& b) {
              return a.index < b.index;
            });
  return out;
}

unsigned resolve_workers(const SweepOptions& options,
                         std::size_t task_count) {
  // hardware_concurrency() is allowed to return 0 ("not computable"), so
  // the 0-means-auto default clamps to at least one worker.
  unsigned workers = options.workers != 0
                         ? options.workers
                         : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  if (task_count < workers) workers = static_cast<unsigned>(task_count);
  return std::max(1u, workers);
}

std::vector<SweepOutcome> run_sweep(const cfg::Cfg& cfg,
                                    const runtime::BlockImage& image,
                                    const cfg::BlockTrace& trace,
                                    const std::vector<SweepTask>& tasks,
                                    const SweepOptions& options) {
  CampaignOptions campaign;
  campaign.workers = options.workers;
  std::vector<CampaignResult> results =
      run_campaign({CampaignWorkload{"", &cfg, &image, &trace}}, tasks,
                   campaign);
  return std::move(results.front().outcomes);
}

}  // namespace apcc::sweep
