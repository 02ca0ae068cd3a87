// Service differentials: a job submitted through serving::Service must
// produce outcomes byte-identical to the equivalent direct
// CodeCompressionSystem::run / run_sweep / core::run_campaign call --
// cold cache and warm cache, shared pool, workers 1/2/4 -- while the
// artifact cache deduplicates builds and geometry materialization stays
// off the submitting thread. Two campaigns in flight on one Service
// must interleave without ordering or outcome divergence (the TSan CI
// job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/system.hpp"
#include "serving/service.hpp"
#include "support/assert.hpp"
#include "workloads/suite.hpp"

#include "test_support.hpp"

namespace apcc::serving {
namespace {

using namespace testsupport;

TEST(Service, RunJobMatchesDirectRunColdAndWarm) {
  const sim::RunResult direct = reference_systems()[0].run();
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const bool share : {true, false}) {
      Fixture fx(workers);
      RunJob job;
      job.workload = fx.ids[0];
      job.share_frontiers = share;
      SCOPED_TRACE(std::to_string(workers) + " workers, share=" +
                   std::to_string(share));
      // Cold: first submit builds the image (and geometry, if shared).
      expect_identical(fx.service.submit(job).wait(), direct);
      // Warm: resubmission borrows every artifact, same bytes out.
      expect_identical(fx.service.submit(job).wait(), direct);
      const auto stats = fx.service.cache_stats();
      EXPECT_EQ(stats.images.built, 1u);
      EXPECT_EQ(stats.images.borrows, 1u);
      EXPECT_EQ(stats.images.evictions, 0u);  // no budget, no eviction
      if (share) {
        EXPECT_EQ(stats.frontiers.built, 1u);
        EXPECT_EQ(stats.frontiers.borrows, 1u);
        EXPECT_EQ(stats.frontiers.evictions, 0u);
      } else {
        EXPECT_EQ(stats.frontiers.built, 0u);
      }
    }
  }
}

TEST(Service, SweepJobMatchesDirectRunSweep) {
  const auto grid = test_grid();
  sweep::SweepOptions sequential;
  sequential.workers = 1;
  const auto direct = reference_systems()[0].run_sweep(grid, sequential);
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const bool share : {true, false}) {
      Fixture fx(workers);
      SweepJob job;
      job.workload = fx.ids[0];
      job.tasks = grid;
      job.share_frontiers = share;
      const auto outcomes = fx.service.submit(job).wait();
      SCOPED_TRACE(std::to_string(workers) + " workers, share=" +
                   std::to_string(share));
      ASSERT_EQ(outcomes.size(), direct.size());
      for (std::size_t i = 0; i < direct.size(); ++i) {
        expect_identical(direct[i], outcomes[i]);
      }
    }
  }
}

TEST(Service, CampaignJobMatchesDirectRunCampaign) {
  const auto grid = test_grid();
  std::vector<core::CampaignEntry> entries;
  const auto& systems = reference_systems();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    entries.push_back({workloads::workload_name(kinds_under_test()[i]),
                       &systems[i]});
  }
  sweep::CampaignOptions sequential;
  sequential.workers = 1;
  const auto direct = core::run_campaign(entries, grid, sequential);

  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    CampaignJob job;
    job.workloads = fx.ids;
    job.grid = grid;
    const auto results = fx.service.submit(job).wait();
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t w = 0; w < direct.size(); ++w) {
      EXPECT_EQ(results[w].workload, direct[w].workload);
      ASSERT_EQ(results[w].outcomes.size(), direct[w].outcomes.size());
      for (std::size_t i = 0; i < direct[w].outcomes.size(); ++i) {
        expect_identical(direct[w].outcomes[i], results[w].outcomes[i]);
      }
    }
  }
}

TEST(Service, TwoCampaignsInFlightInterleaveWithoutDivergence) {
  // Two different grids over the same workloads, both submitted before
  // either is waited on: the scheduler interleaves their cells on one
  // pool, the artifact cache serves both, and each result must still be
  // byte-identical to its own direct sequential reference.
  const auto grid_a = test_grid();
  auto grid_b = test_grid();
  grid_b.resize(grid_b.size() / 2);
  for (auto& task : grid_b) {
    task.config.policy.predictor = runtime::PredictorKind::kStatic;
    task.label += "/static";
  }

  std::vector<core::CampaignEntry> entries;
  const auto& systems = reference_systems();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    entries.push_back({workloads::workload_name(kinds_under_test()[i]),
                       &systems[i]});
  }
  sweep::CampaignOptions sequential;
  sequential.workers = 1;
  const auto direct_a = core::run_campaign(entries, grid_a, sequential);
  const auto direct_b = core::run_campaign(entries, grid_b, sequential);

  for (const unsigned workers : {2u, 4u}) {
    Fixture fx(workers);
    CampaignJob job_a;
    job_a.workloads = fx.ids;
    job_a.grid = grid_a;
    CampaignJob job_b;
    job_b.workloads = fx.ids;
    job_b.grid = grid_b;
    const auto handle_a = fx.service.submit(job_a);
    const auto handle_b = fx.service.submit(job_b);
    EXPECT_NE(handle_a.id(), handle_b.id());
    const auto results_b = handle_b.wait();  // wait out of order on purpose
    const auto results_a = handle_a.wait();
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const auto check = [](const std::vector<sweep::CampaignResult>& want,
                          const std::vector<sweep::CampaignResult>& got) {
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t w = 0; w < want.size(); ++w) {
        EXPECT_EQ(got[w].workload, want[w].workload);
        ASSERT_EQ(got[w].outcomes.size(), want[w].outcomes.size());
        for (std::size_t i = 0; i < want[w].outcomes.size(); ++i) {
          expect_identical(want[w].outcomes[i], got[w].outcomes[i]);
        }
      }
    };
    check(direct_a, results_a);
    check(direct_b, results_b);
  }
}

TEST(Service, GeometryMaterializesOffTheSubmittingThread) {
  Fixture fx(2);
  SweepJob job;
  job.workload = fx.ids[0];
  job.tasks = test_grid();
  (void)fx.service.submit(job).wait();
  // Every k the grid touched has a ready slot whose builder was a pool
  // worker, never this (submitting) thread.
  bool saw_slot = false;
  for (const std::uint32_t k : {1u, 4u}) {
    const Service::FrontierSlot* slot =
        fx.service.frontier_slot(fx.ids[0], k);
    ASSERT_NE(slot, nullptr) << "k=" << k;
    EXPECT_TRUE(slot->ready());
    EXPECT_NE(slot->builder(), std::this_thread::get_id());
    saw_slot = true;
  }
  EXPECT_TRUE(saw_slot);
  EXPECT_EQ(fx.service.frontier_slot(fx.ids[0], 99u), nullptr);
}

TEST(Service, ArtifactCacheDeduplicatesAcrossJobs) {
  Fixture fx(2);
  SweepJob job;
  job.workload = fx.ids[0];
  job.tasks = test_grid();
  const auto first = fx.service.submit(job);
  const auto second = fx.service.submit(job);
  (void)first.wait();
  (void)second.wait();
  const auto stats = fx.service.cache_stats();
  // One image and one geometry cache per distinct key, no matter how
  // many cells or jobs borrowed them.
  EXPECT_EQ(stats.images.built, 1u);
  EXPECT_EQ(stats.frontiers.built, 2u);  // k=1 and k=4
  EXPECT_EQ(stats.images.borrows + stats.images.built,
            2 * job.tasks.size());
  EXPECT_EQ(stats.frontiers.borrows + stats.frontiers.built,
            2 * job.tasks.size());
  // The hit/miss ledger tells the same story: every build was a miss,
  // every borrow a hit, and nothing was ever rebuilt.
  EXPECT_EQ(stats.images.misses, stats.images.built);
  EXPECT_EQ(stats.images.hits, stats.images.borrows);
  EXPECT_EQ(stats.frontiers.misses, stats.frontiers.built);
  EXPECT_EQ(stats.frontiers.hits, stats.frontiers.borrows);
  EXPECT_EQ(stats.images.rebuilds, 0u);
  EXPECT_EQ(stats.frontiers.rebuilds, 0u);
  // The default budget is unbounded -- these are exactly the counters
  // the pre-budget Service produced, and nothing was ever evicted
  // (the acceptance pin for "budget 0 reproduces today's behaviour").
  EXPECT_EQ(stats.images.evictions, 0u);
  EXPECT_EQ(stats.frontiers.evictions, 0u);
  EXPECT_EQ(stats.images.evicted_bytes, 0u);
  EXPECT_EQ(stats.frontiers.evicted_bytes, 0u);
  EXPECT_EQ(stats.images.entries, 1u);
  EXPECT_EQ(stats.frontiers.entries, 2u);
}

TEST(Service, RunResultIdenticalAcrossCodecs) {
  // Image artifacts are keyed by codec: jobs with different codecs get
  // different images, each matching the direct path for that codec.
  for (const auto codec :
       {compress::CodecKind::kSharedHuffman, compress::CodecKind::kLzss}) {
    core::SystemConfig config;
    config.codec = codec;
    const auto direct = core::CodeCompressionSystem::from_workload(
                            workloads::make_workload(kinds_under_test()[0]),
                            config)
                            .run();
    Fixture fx(2);
    RunJob job;
    job.workload = fx.ids[0];
    job.config = config;
    expect_identical(fx.service.submit(job).wait(), direct);
  }
}

TEST(Service, FailurePropagatesAndServiceSurvives) {
  Fixture fx(2);
  SweepJob poisoned;
  poisoned.workload = fx.ids[0];
  poisoned.tasks = test_grid();
  // A budget smaller than any executed block: the engine's placement
  // loop finds no victim and throws -- from a pool worker, which must
  // surface on wait() without wedging the pool.
  poisoned.tasks[1].config.policy.memory_budget = 1;
  const auto bad = fx.service.submit(poisoned);
  EXPECT_THROW({ (void)bad.wait(); }, apcc::CheckError);

  RunJob job;
  job.workload = fx.ids[0];
  expect_identical(fx.service.submit(job).wait(),
                   reference_systems()[0].run());
}

TEST(Service, ImageBuildFailureRollsBackTheSlotWithoutDeadlock) {
  // An artifact build that throws (unknown codec kind -> make_codec
  // asserts) must roll the claim-build handshake back: concurrent
  // waiters on the same slot re-claim and surface the failure
  // themselves instead of blocking on a ready flip that never comes,
  // and the slot stays usable for later (valid) jobs.
  Fixture fx(2);
  RunJob bad;
  bad.workload = fx.ids[0];
  bad.config.codec = static_cast<compress::CodecKind>(250);
  const auto first = fx.service.submit(bad);
  const auto second = fx.service.submit(bad);
  EXPECT_THROW({ (void)first.wait(); }, apcc::AssertionError);
  EXPECT_THROW({ (void)second.wait(); }, apcc::AssertionError);

  RunJob good;
  good.workload = fx.ids[0];
  expect_identical(fx.service.submit(good).wait(),
                   reference_systems()[0].run());
}

TEST(Service, SubmitValidatesWorkloadIds) {
  Fixture fx(1);
  RunJob run;
  run.workload = 99;
  EXPECT_THROW({ (void)fx.service.submit(run); }, apcc::CheckError);
  CampaignJob campaign;
  campaign.workloads = {fx.ids[0], 99};
  campaign.grid = test_grid();
  EXPECT_THROW({ (void)fx.service.submit(campaign); }, apcc::CheckError);
}

TEST(Service, EmptyJobsRetireImmediately) {
  Fixture fx(1);
  SweepJob sweep_job;
  sweep_job.workload = fx.ids[0];
  const auto sweep_handle = fx.service.submit(sweep_job);
  EXPECT_TRUE(sweep_handle.ready());
  EXPECT_TRUE(sweep_handle.wait().empty());

  CampaignJob campaign;
  campaign.workloads = fx.ids;
  const auto campaign_handle = fx.service.submit(campaign);
  const auto& results = campaign_handle.wait();
  ASSERT_EQ(results.size(), fx.ids.size());
  for (std::size_t w = 0; w < results.size(); ++w) {
    EXPECT_EQ(results[w].workload, fx.service.workload(fx.ids[w]).name);
    EXPECT_TRUE(results[w].outcomes.empty());
  }
}

TEST(Service, HandlesAreReusableAndShareState) {
  Fixture fx(1);
  RunJob job;
  job.workload = fx.ids[0];
  const auto handle = fx.service.submit(job);
  const auto copy = handle;
  expect_identical(handle.wait(), copy.wait());
  EXPECT_TRUE(copy.ready());
  EXPECT_EQ(handle.id(), copy.id());
  EXPECT_FALSE(JobHandle<sim::RunResult>{}.valid());
}

TEST(Service, DrainWaitsForEverything) {
  Fixture fx(2);
  std::vector<JobHandle<sim::RunResult>> handles;
  for (int i = 0; i < 4; ++i) {
    RunJob job;
    job.workload = fx.ids[i % fx.ids.size()];
    handles.push_back(fx.service.submit(job));
  }
  fx.service.drain();
  for (const auto& handle : handles) EXPECT_TRUE(handle.ready());
}

TEST(Service, RegisterWhileJobsInFlight) {
  Fixture fx(2);
  SweepJob job;
  job.workload = fx.ids[0];
  job.tasks = test_grid();
  const auto handle = fx.service.submit(job);
  const auto late = fx.service.register_workload(
      workloads::make_workload(workloads::WorkloadKind::kG721Like));
  RunJob run;
  run.workload = late;
  const auto late_result = fx.service.submit(run).wait();
  (void)handle.wait();
  expect_identical(late_result,
                   core::CodeCompressionSystem::from_workload(
                       workloads::make_workload(
                           workloads::WorkloadKind::kG721Like))
                       .run());
}

}  // namespace
}  // namespace apcc::serving
