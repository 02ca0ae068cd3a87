// Budgeted artifact cache, end to end: eviction under byte budgets
// never changes any job outcome -- only when artifacts are rebuilt.
// These tests drive the Service with budgets small enough to force
// constant thrash and pin four things:
//
//  * differential byte-identity: the same sweep under a tiny budget
//    matches the direct one-shot path at several worker counts, while
//    the eviction counters prove the budget machinery actually ran;
//  * pinning: artifacts borrowed by in-flight cells survive any
//    eviction pressure (a cell's own geometry publish cannot evict the
//    image it is running on), and retired cells let go of them;
//  * fault interaction: an injected build failure under eviction
//    pressure still rolls back cleanly, and the rebuilt artifact is
//    byte-identical;
//  * the fault plan's evict_at_publish forced flush drives the
//    evict-then-rebuild path deterministically, without budget tuning.
//
// The whole binary runs under TSan in CI, so the pin refcounts and the
// publish-time eviction pass get race coverage for free.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serving/fault_plan.hpp"
#include "serving/service.hpp"
#include "workloads/suite.hpp"

#include "test_support.hpp"

namespace apcc::serving {
namespace {

using namespace testsupport;

ServiceOptions budgeted(unsigned workers, CacheBudget budget) {
  ServiceOptions options;
  options.workers = workers;
  options.cache_budget = budget;
  return options;
}

TEST(Eviction, TinyBudgetSweepIsByteIdenticalToDirect) {
  // The acceptance differential: per-kind budgets of one byte mean
  // every publish finds the cache over budget, so every unpinned
  // artifact is evicted as soon as a new one lands -- maximum thrash.
  // Outcomes must still match the direct one-shot sweep byte for byte
  // at every worker count.
  const auto grid = test_grid();
  sweep::SweepOptions sequential;
  sequential.workers = 1;
  const auto direct = reference_systems()[0].run_sweep(grid, sequential);
  CacheBudget tiny;
  tiny.image_bytes = 1;
  tiny.frontier_bytes = 1;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    Fixture fx(budgeted(workers, tiny));
    SweepJob job;
    job.workload = fx.ids[0];
    job.tasks = grid;
    const auto outcomes = fx.service.submit(job).wait();
    ASSERT_EQ(outcomes.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      expect_identical(outcomes[i], direct[i]);
    }
    const auto stats = fx.service.cache_stats();
    // Eviction changes counters, never bytes: every rebuild is also
    // a fresh miss, so misses == built still holds (no build failed).
    EXPECT_EQ(stats.frontiers.misses, stats.frontiers.built);
    EXPECT_EQ(stats.images.misses, stats.images.built);
    if (workers == 1) {
      // One worker runs the cells in grid order, which alternates
      // k=1 / k=4, so each geometry publish finds the other key
      // resident and unpinned: guaranteed thrash. (At higher worker
      // counts concurrent cells may pin both keys at every publish,
      // so only byte-identity is deterministic.)
      EXPECT_GT(stats.frontiers.evictions, 0u);
      EXPECT_GT(stats.frontiers.evicted_bytes, 0u);
      EXPECT_GT(stats.frontiers.built, 2u);  // rebuilt after eviction
    }
  }
}

TEST(Eviction, SharedTotalBudgetIsByteIdenticalToDirect) {
  // Same differential through the shared-ceiling pass (total_bytes
  // covers both kinds at once; per-kind ceilings unset).
  const auto grid = test_grid();
  sweep::SweepOptions sequential;
  sequential.workers = 1;
  const auto direct = reference_systems()[0].run_sweep(grid, sequential);
  CacheBudget shared;
  shared.total_bytes = 1;
  Fixture fx(budgeted(1, shared));
  SweepJob job;
  job.workload = fx.ids[0];
  job.tasks = grid;
  const auto outcomes = fx.service.submit(job).wait();
  ASSERT_EQ(outcomes.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_identical(outcomes[i], direct[i]);
  }
  EXPECT_GT(fx.service.cache_stats().frontiers.evictions, 0u);
}

TEST(Eviction, ImageEvictionAcrossWorkloadsRebuildsByteIdentical) {
  // Two workloads, one-byte image ceiling, one worker: workload B's
  // image publish evicts workload A's (unpinned) image, and vice versa
  // on the rebuild -- the deterministic image-eviction sequence.
  CacheBudget tiny;
  tiny.image_bytes = 1;
  Fixture fx(budgeted(1, tiny));
  const sim::RunResult direct_a = reference_systems()[0].run();
  const sim::RunResult direct_b = reference_systems()[1].run();

  expect_identical(fx.service.submit(RunJob{fx.ids[0]}).wait(), direct_a);
  expect_identical(fx.service.submit(RunJob{fx.ids[1]}).wait(), direct_b);
  {
    // B's publish found A's image resident and unpinned: evicted.
    const auto stats = fx.service.cache_stats();
    EXPECT_EQ(stats.images.built, 2u);
    EXPECT_EQ(stats.images.evictions, 1u);
    EXPECT_GT(stats.images.evicted_bytes, 0u);
    EXPECT_EQ(stats.images.entries, 1u);  // only B resident
  }
  // A transparently rebuilds -- an ordinary miss, not a failure-path
  // rebuild -- and the rebuilt image serves byte-identical results.
  expect_identical(fx.service.submit(RunJob{fx.ids[0]}).wait(), direct_a);
  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.built, 3u);
  EXPECT_EQ(stats.images.misses, 3u);
  EXPECT_EQ(stats.images.rebuilds, 0u);  // eviction is not a failure
  EXPECT_EQ(stats.images.evictions, 2u);  // A's rebuild evicted B
  EXPECT_EQ(stats.images.entries, 1u);
}

TEST(Eviction, PinnedArtifactsSurviveWhileBorrowed) {
  // A cell pins its image before it claims its geometry, so its own
  // geometry publish runs an eviction pass while the cell is in flight.
  // Under one-byte ceilings both of job A's artifacts are over budget
  // at that pass, and both must survive because A's single cell pins
  // them. Once the cell retires its pins are gone: job B's publishes
  // (another workload) evict A's image and geometry. One worker keeps
  // the publish order fixed.
  CacheBudget tiny;
  tiny.image_bytes = 1;
  tiny.frontier_bytes = 1;
  Fixture fx(budgeted(1, tiny));
  const unsigned k = core::SystemConfig{}.policy.predecompress_k;

  RunJob job_a;
  job_a.workload = fx.ids[0];
  expect_identical(fx.service.submit(job_a).wait(),
                   reference_systems()[0].run());
  const Service::FrontierSlot* slot_a = fx.service.frontier_slot(fx.ids[0], k);
  ASSERT_NE(slot_a, nullptr);
  {
    const auto stats = fx.service.cache_stats();
    EXPECT_EQ(stats.images.built, 1u);
    EXPECT_EQ(stats.frontiers.built, 1u);
    EXPECT_EQ(stats.images.evictions, 0u);
    EXPECT_EQ(stats.frontiers.evictions, 0u);
    EXPECT_TRUE(slot_a->ready());
    EXPECT_EQ(slot_a->pins(), 0u);  // the retired cell let go
  }

  RunJob job_b;
  job_b.workload = fx.ids[1];
  expect_identical(fx.service.submit(job_b).wait(),
                   reference_systems()[1].run());
  {
    const auto stats = fx.service.cache_stats();
    // B's in-flight cell survived its own geometry publish too, while
    // A's unpinned artifacts went.
    EXPECT_EQ(stats.images.evictions, 1u);
    EXPECT_EQ(stats.frontiers.evictions, 1u);
    EXPECT_EQ(stats.images.entries, 1u);
    EXPECT_EQ(stats.frontiers.entries, 1u);
    EXPECT_FALSE(slot_a->ready());
  }
}

TEST(Eviction, InjectedBuildFailureUnderPressureRollsBackCleanly) {
  // Build failure and eviction pressure interleaved: build 2 (workload
  // B's image) fails injected; the claim rolls back; the retry is a
  // failure-path rebuild; its publish then evicts A's image; A's
  // transparent rebuild evicts B's in turn. Every surviving result is
  // byte-identical -- neither machinery corrupts the other.
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 17;
  plan->fail_image_build = 2;
  CacheBudget tiny;
  tiny.image_bytes = 1;
  ServiceOptions options = budgeted(1, tiny);
  options.faults = plan;
  Fixture fx(options);
  const sim::RunResult direct_a = reference_systems()[0].run();
  const sim::RunResult direct_b = reference_systems()[1].run();

  expect_identical(fx.service.submit(RunJob{fx.ids[0]}).wait(), direct_a);

  const auto poisoned = fx.service.submit(RunJob{fx.ids[1]});
  try {
    (void)poisoned.wait();
    FAIL() << "expected the injected build failure to rethrow";
  } catch (const apcc::CheckError& e) {
    EXPECT_STREQ(e.what(), "injected fault: image build 2 failed (seed 17)");
  }
  {
    // The rollback left A's image untouched -- a failed build is not a
    // publish, so no eviction pass ran for it.
    const auto stats = fx.service.cache_stats();
    EXPECT_EQ(stats.images.evictions, 0u);
    EXPECT_EQ(stats.images.entries, 1u);
  }

  expect_identical(fx.service.submit(RunJob{fx.ids[1]}).wait(), direct_b);
  expect_identical(fx.service.submit(RunJob{fx.ids[0]}).wait(), direct_a);

  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.built, 3u);     // A, B's retry, A's rebuild
  EXPECT_EQ(stats.images.misses, 4u);    // + the failed claim
  EXPECT_EQ(stats.images.rebuilds, 1u);  // only the failure-path retry
  EXPECT_EQ(stats.images.evictions, 2u); // B's publish took A, A's took B
  EXPECT_EQ(stats.images.entries, 1u);
}

TEST(Eviction, FaultPlanForcedFlushDrivesRebuildDeterministically) {
  // evict_at_publish = 3, one worker, the k-alternating grid: publishes
  // land as (1) image, (2) k=1 geometry, (3) k=4 geometry. The forced
  // flush at publish 3 reclaims exactly the unpinned k=1 geometry --
  // the publishing cell's image and k=4 borrows are pinned -- so the
  // next k=1 cell rebuilds it. No budget tuning, same outcome bytes.
  auto plan = std::make_shared<FaultPlan>();
  plan->evict_at_publish = 3;
  ServiceOptions options;
  options.workers = 1;
  options.faults = plan;
  Fixture fx(options);
  const auto grid = test_grid();
  sweep::SweepOptions sequential;
  sequential.workers = 1;
  const auto direct = reference_systems()[0].run_sweep(grid, sequential);

  SweepJob job;
  job.workload = fx.ids[0];
  job.tasks = grid;
  const auto outcomes = fx.service.submit(job).wait();
  ASSERT_EQ(outcomes.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_identical(outcomes[i], direct[i]);
  }

  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.evictions, 0u);     // pinned at the flush
  EXPECT_EQ(stats.frontiers.evictions, 1u);  // exactly the k=1 geometry
  EXPECT_GT(stats.frontiers.evicted_bytes, 0u);
  EXPECT_EQ(stats.frontiers.built, 3u);      // k=1, k=4, k=1 again
  EXPECT_EQ(stats.frontiers.misses, 3u);
  EXPECT_EQ(stats.frontiers.rebuilds, 0u);   // eviction is not a failure
  EXPECT_EQ(stats.frontiers.entries, 2u);    // both resident at the end
}

}  // namespace
}  // namespace apcc::serving
