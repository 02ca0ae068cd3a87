// One build-once, borrow-many artifact slot.
//
// The paper's runtime keeps a block compressed until an access needs
// it, decompresses it once, lets every access borrow the decompressed
// copy, and reclaims it under a memory budget once no access holds it.
// The serving layer does the same for its expensive, immutable
// artifacts -- a compressed BlockImage per (workload, codec), a
// materialized FrontierCache per (CFG, k) -- and ArtifactSlot<T> is
// that lifecycle written once:
//
//   idle --claim--> building --publish--> ready --evict--> idle
//                      |                                    ^
//                      +------------ rollback --------------+
//
//  * acquire() is the claim-build/wait handshake. The first caller that
//    finds the slot idle claims it and runs the build on its own thread,
//    off the slot lock, so callers over other slots keep working;
//    concurrent callers block until the builder publishes and then
//    borrow. A build that throws (it failed, or its caller was
//    cancelled) rolls the claim back to idle and wakes the waiters,
//    which re-claim -- nobody deadlocks on a publish that never comes.
//    The next claim after a rollback is flagged as a *rebuild*.
//  * Pins are the eviction guard. acquire(pin=true) increments the pin
//    count under the same lock hold as the ready check (or the
//    builder's publish), so an evictor can never slip between them;
//    unpin() releases it. evict() drops a ready, unpinned artifact and
//    returns the slot to idle, so the next acquire() rebuilds it -- an
//    ordinary miss, not a rebuild. Owners that keep the slot for its
//    whole life (sweep::run_campaign) never evict and skip pinning.
//  * The ledger fields (bytes, rebuild_cost, last_use) belong to the
//    owner's eviction policy and are guarded by the *owner's* lock,
//    never by the slot's (serving::Service reads them under its mutex).
//
// A published artifact is immutable: the mutex release at publish
// happens-before every borrower's acquire, so borrowers read it with no
// further locking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "support/assert.hpp"

namespace apcc::runtime {

/// The kind-independent half of an ArtifactSlot: state, pins, rollback
/// flag, builder identity and the owner's ledger entry. Owners that
/// manage several artifact kinds (the eviction pass, a cell's lease)
/// hold slots through this type.
class ArtifactSlotBase {
 public:
  ArtifactSlotBase() = default;
  ArtifactSlotBase(const ArtifactSlotBase&) = delete;
  ArtifactSlotBase& operator=(const ArtifactSlotBase&) = delete;

  // -- eviction ledger, guarded by the owner's lock, NOT by the slot's --
  std::uint64_t bytes = 0;         // resident bytes (0 = not resident)
  std::uint64_t rebuild_cost = 0;  // owner's rebuild estimate at publish
  std::uint64_t last_use = 0;      // owner's clock at last borrow/publish

  /// Release one acquire(pin=true) borrow.
  void unpin() {
    const std::lock_guard<std::mutex> lock(mutex_);
    APCC_CHECK(pins_ > 0, "ArtifactSlot::unpin() without a pin");
    --pins_;
  }

  /// Drop the artifact and return to idle, so the next acquire()
  /// rebuilds it. Returns false -- and does nothing -- when the slot is
  /// not ready (nothing resident) or pinned (a borrower still holds it).
  bool evict() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::kReady || pins_ != 0) return false;
    drop();
    state_ = State::kIdle;
    builder_ = {};
    return true;
  }

  /// True once a build has published and not been evicted (never blocks).
  [[nodiscard]] bool ready() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return state_ == State::kReady;
  }

  /// Live borrows (acquire(pin=true) calls not yet unpinned).
  [[nodiscard]] std::size_t pins() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pins_;
  }

  /// The thread that ran the current artifact's build; meaningful once
  /// ready(). Tests pin that this is a pool worker.
  [[nodiscard]] std::thread::id builder() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return builder_;
  }

 protected:
  enum class State : std::uint8_t { kIdle, kBuilding, kReady };

  ~ArtifactSlotBase() = default;

  /// Release the artifact (called with mutex_ held, from evict()).
  virtual void drop() = 0;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  State state_ = State::kIdle;
  std::size_t pins_ = 0;
  /// The last claim rolled back (build threw or was cancelled); the
  /// next claim is a rebuild.
  bool failed_before_ = false;
  std::thread::id builder_{};
};

template <typename T>
class ArtifactSlot final : public ArtifactSlotBase {
 public:
  struct Acquired {
    const T* artifact = nullptr;
    bool built = false;  // this call ran the build (else it borrowed)
  };

  /// Claim-build or wait, then borrow the ready artifact.
  ///
  /// `poll()` runs before every claim attempt (the first, and each one
  /// after a wait), off the slot lock; it may throw (a cancelled job)
  /// and the exception propagates with the slot untouched.
  /// `build(bool rebuild)` runs off the lock on the claiming thread and
  /// returns the artifact (a std::unique_ptr convertible to
  /// std::unique_ptr<const T>); `rebuild` says the previous claim rolled
  /// back. If it throws, the claim rolls back and the exception
  /// propagates. With `pin` the borrow is pinned (see the file
  /// comment); balance it with unpin().
  template <typename Poll, typename Build>
  Acquired acquire(Poll&& poll, Build&& build, bool pin) {
    for (;;) {
      poll();
      std::unique_lock<std::mutex> lock(mutex_);
      if (state_ == State::kReady) {
        if (pin) ++pins_;
        return {artifact_.get(), false};
      }
      if (state_ == State::kIdle) {
        const bool rebuild = failed_before_;
        state_ = State::kBuilding;
        builder_ = std::this_thread::get_id();
        lock.unlock();
        std::unique_ptr<const T> built;
        try {
          built = build(rebuild);
        } catch (...) {
          lock.lock();
          state_ = State::kIdle;
          failed_before_ = true;
          ready_cv_.notify_all();
          throw;
        }
        lock.lock();
        artifact_ = std::move(built);
        state_ = State::kReady;
        failed_before_ = false;
        // Pinned before anyone can observe the publish, so an eviction
        // pass can never reclaim the artifact from the caller that
        // built it.
        if (pin) ++pins_;
        ready_cv_.notify_all();
        return {artifact_.get(), true};
      }
      ready_cv_.wait(lock, [&] { return state_ != State::kBuilding; });
    }
  }

 private:
  void drop() override { artifact_.reset(); }

  std::unique_ptr<const T> artifact_;
};

}  // namespace apcc::runtime
