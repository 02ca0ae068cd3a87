#include "serving/job_spec.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace apcc::serving {

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kRun: return "run";
    case JobKind::kSweep: return "sweep";
    case JobKind::kCampaign: return "campaign";
  }
  return "?";
}

const char* status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kError: return "error";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

void validate(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kRun:
      APCC_CHECK(spec.workloads.size() == 1,
                 "run job needs exactly one workload, got " +
                     std::to_string(spec.workloads.size()));
      APCC_CHECK(spec.tasks.empty(),
                 "run job takes a single configuration, not a task grid");
      break;
    case JobKind::kSweep:
      APCC_CHECK(spec.workloads.size() == 1,
                 "sweep job needs exactly one workload, got " +
                     std::to_string(spec.workloads.size()));
      break;
    case JobKind::kCampaign:
      break;
    default:
      APCC_CHECK(false, "unknown job kind " +
                            std::to_string(static_cast<int>(spec.kind)));
  }
  APCC_CHECK(std::ranges::find(sweep::kAllPriorities, spec.priority) !=
                 sweep::kAllPriorities.end(),
             "unknown priority class " +
                 std::to_string(static_cast<int>(spec.priority)));
  for (const std::string& ref : spec.workloads) {
    APCC_CHECK(!ref.empty(), "empty workload reference");
  }
}

std::vector<sweep::SweepTask> strategy_k_grid(const sim::EngineConfig& base) {
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : runtime::kAllStrategies) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      sweep::SweepTask task;
      task.label = std::string(runtime::strategy_name(strategy)) +
                   "/k=" + std::to_string(k);
      task.config = base;
      task.config.policy.strategy = strategy;
      task.config.policy.compress_k = k;
      task.config.policy.predecompress_k = k;
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

}  // namespace apcc::serving
