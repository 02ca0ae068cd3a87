// runtime::ArtifactSlot -- the claim-build/wait handshake behind every
// shared artifact (serving images and geometry, campaign geometry),
// tested directly. Concurrency is sequenced with latches, never sleeps:
// a builder parks inside its build until the test releases it, and a
// waiter signals from its poll, which runs before every claim attempt,
// so the waiter is inside acquire() while the build is still claimed.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "runtime/artifact_slot.hpp"

namespace apcc::runtime {
namespace {

using Slot = ArtifactSlot<int>;

constexpr auto kNoPoll = [] {};

/// A build that must not run (the caller is expected to borrow).
constexpr auto kNoBuild = [](bool) -> std::unique_ptr<int> {
  ADD_FAILURE() << "unexpected build";
  return std::make_unique<int>(-1);
};

/// Runs one acquire on its own thread whose build parks between two
/// latches: `building` opens once the build has started (the slot is
/// then claimed), and the build finishes -- with `value`, or by
/// throwing when `value` is negative -- once `release` opens.
class ParkedBuilder {
 public:
  ParkedBuilder(Slot& slot, int value) {
    thread_ = std::thread([this, &slot, value] {
      try {
        result_ = slot.acquire(
            kNoPoll,
            [this, value](bool) {
              building_.count_down();
              release_.wait();
              if (value < 0) throw std::runtime_error("build failed");
              return std::make_unique<int>(value);
            },
            /*pin=*/true);
      } catch (const std::runtime_error&) {
        threw_ = true;
      }
    });
    building_.wait();
  }
  ~ParkedBuilder() {
    if (thread_.joinable()) finish();
  }

  void finish() {
    release_.count_down();
    thread_.join();
  }
  [[nodiscard]] const Slot::Acquired& result() const { return result_; }
  [[nodiscard]] bool threw() const { return threw_; }
  [[nodiscard]] std::thread::id id() const { return thread_.get_id(); }

 private:
  std::latch building_{1};
  std::latch release_{1};
  Slot::Acquired result_;
  bool threw_ = false;
  std::thread thread_;
};

/// Opens `latch` on the first call only (a latch must not go negative).
struct SignalOnce {
  std::latch* latch;
  std::atomic<bool>* fired;
  void operator()() const {
    if (!fired->exchange(true)) latch->count_down();
  }
};

TEST(ArtifactSlot, WaiterBorrowsWhatTheBuilderPublishes) {
  Slot slot;
  ParkedBuilder builder(slot, 42);
  const std::thread::id builder_id = builder.id();
  EXPECT_FALSE(slot.ready());

  std::latch waiter_in{1};
  std::atomic<bool> fired{false};
  Slot::Acquired borrowed;
  std::thread waiter([&] {
    borrowed = slot.acquire(SignalOnce{&waiter_in, &fired}, kNoBuild,
                            /*pin=*/true);
  });
  // The waiter is inside acquire() while the build is claimed; only now
  // may the builder publish. Whether it then waits or finds the slot
  // ready, it must borrow, never build.
  waiter_in.wait();
  builder.finish();
  waiter.join();

  EXPECT_TRUE(builder.result().built);
  ASSERT_NE(borrowed.artifact, nullptr);
  EXPECT_FALSE(borrowed.built);
  EXPECT_EQ(borrowed.artifact, builder.result().artifact);
  EXPECT_EQ(*borrowed.artifact, 42);
  EXPECT_TRUE(slot.ready());
  EXPECT_EQ(slot.pins(), 2u);
  EXPECT_EQ(slot.builder(), builder_id);
}

TEST(ArtifactSlot, FailedBuildRollsBackAndTheWaiterRebuilds) {
  Slot slot;
  ParkedBuilder builder(slot, -1);

  std::latch waiter_in{1};
  std::atomic<bool> fired{false};
  bool rebuild = false;
  Slot::Acquired reclaimed;
  std::thread waiter([&] {
    reclaimed = slot.acquire(
        SignalOnce{&waiter_in, &fired},
        [&](bool r) {
          rebuild = r;
          return std::make_unique<int>(7);
        },
        /*pin=*/true);
  });
  const std::thread::id waiter_id = waiter.get_id();
  waiter_in.wait();
  builder.finish();  // the build throws; the claim rolls back
  waiter.join();

  EXPECT_TRUE(builder.threw());
  EXPECT_TRUE(reclaimed.built);
  EXPECT_TRUE(rebuild);
  ASSERT_NE(reclaimed.artifact, nullptr);
  EXPECT_EQ(*reclaimed.artifact, 7);
  EXPECT_EQ(slot.pins(), 1u);  // the failed builder holds no pin
  EXPECT_EQ(slot.builder(), waiter_id);
}

TEST(ArtifactSlot, PollThrowingBeforeTheClaimLeavesTheSlotIdle) {
  Slot slot;
  bool built_anyway = false;
  EXPECT_THROW(slot.acquire([] { throw std::runtime_error("cancelled"); },
                            [&](bool) {
                              built_anyway = true;
                              return std::make_unique<int>(1);
                            },
                            /*pin=*/true),
               std::runtime_error);
  EXPECT_FALSE(built_anyway);
  EXPECT_FALSE(slot.ready());
  EXPECT_EQ(slot.pins(), 0u);

  // Nothing was claimed, so the next claim is an ordinary first build.
  bool rebuild = true;
  const Slot::Acquired acquired = slot.acquire(
      kNoPoll,
      [&](bool r) {
        rebuild = r;
        return std::make_unique<int>(2);
      },
      /*pin=*/false);
  EXPECT_TRUE(acquired.built);
  EXPECT_FALSE(rebuild);
  EXPECT_EQ(slot.pins(), 0u);
}

TEST(ArtifactSlot, EvictOnlyAReadyUnpinnedSlot) {
  Slot slot;
  EXPECT_FALSE(slot.evict());  // idle: nothing resident

  ParkedBuilder builder(slot, 5);
  EXPECT_FALSE(slot.evict());  // building
  builder.finish();
  ASSERT_TRUE(slot.ready());
  EXPECT_EQ(slot.pins(), 1u);
  EXPECT_FALSE(slot.evict());  // pinned by the builder's borrow
  EXPECT_TRUE(slot.ready());

  slot.unpin();
  EXPECT_TRUE(slot.evict());
  EXPECT_FALSE(slot.ready());
  EXPECT_FALSE(slot.evict());  // already idle

  // An evicted artifact comes back through an ordinary build: a miss,
  // not a rebuild -- nothing failed.
  bool rebuild = true;
  const Slot::Acquired acquired = slot.acquire(
      kNoPoll,
      [&](bool r) {
        rebuild = r;
        return std::make_unique<int>(5);
      },
      /*pin=*/true);
  EXPECT_TRUE(acquired.built);
  EXPECT_FALSE(rebuild);
  EXPECT_EQ(*acquired.artifact, 5);
  EXPECT_EQ(slot.builder(), std::this_thread::get_id());

  // A later borrow sees the published artifact and builds nothing.
  EXPECT_FALSE(slot.acquire(kNoPoll, kNoBuild, /*pin=*/true).built);
  EXPECT_EQ(slot.pins(), 2u);
}

TEST(ArtifactSlot, UnpinWithoutAPinThrows) {
  Slot slot;
  EXPECT_THROW(slot.unpin(), apcc::CheckError);
  (void)slot.acquire(
      kNoPoll, [](bool) { return std::make_unique<int>(3); },
      /*pin=*/true);
  slot.unpin();
  EXPECT_THROW(slot.unpin(), apcc::CheckError);
  EXPECT_EQ(slot.pins(), 0u);
}

}  // namespace
}  // namespace apcc::runtime
