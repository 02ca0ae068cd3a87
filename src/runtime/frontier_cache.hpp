// Memoized k-edge frontiers for the decompression planner.
//
// The planner's candidate set at a block exit -- every block within k
// edges of the exit, with its minimum edge distance -- is static given
// (CFG, predecompress_k). The seed re-ran a bounded BFS per frontier
// block per exit; this cache computes each block's candidate list once
// (lazily, on the first exit of that block) and hands out a span the
// planner filters by the *dynamic* part of the query, the current
// BlockForm. Entries are pre-sorted by (distance, id), the planner's
// request order, so the filter preserves ordering for free.
//
// Ownership and thread-safety: a lazily-filled cache is not thread-safe
// and is owned by one DecompressionPlanner / StaticPredictor inside one
// single-threaded Engine. But the geometry is keyed on (CFG, k) alone,
// so campaign runs (sweep::run_campaign) and serving::Service build one
// cache per FrontierKey in a runtime::ArtifactSlot, call materialize()
// -- which computes every block's list eagerly and freezes the cache --
// and hand a `const FrontierCache*` to every engine sharing that key.
// Eviction drops the whole cache; a rebuild is a fresh, bit-identical
// materialize(). A materialized cache is immutable, so
// concurrent candidates() calls are pure reads; the borrowed lists are
// the exact values an owned cache would compute, which keeps borrowed
// and owned runs bit-identical (pinned by tests/sweep and the engine
// equivalence grid).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/analysis.hpp"

namespace apcc::runtime {

class FrontierCache {
 public:
  FrontierCache(const cfg::Cfg& cfg, unsigned k);

  /// Candidate list for the exit of `block`: every block within k edges,
  /// with its distance, sorted by (distance, id). Computed on first use,
  /// O(1) afterwards. The span stays valid for the cache's lifetime.
  [[nodiscard]] std::span<const cfg::FrontierEntry> candidates(
      cfg::BlockId block) const;

  /// Eagerly compute every block's candidate list. After this the cache
  /// is immutable: candidates() never writes, so the cache may be shared
  /// read-only across threads (the contract EngineConfig::
  /// shared_frontiers relies on).
  void materialize();

  [[nodiscard]] bool materialized() const { return materialized_; }

  [[nodiscard]] unsigned k() const { return k_; }

  /// Approximate resident size of the computed candidate lists. Only a
  /// pure read on a materialized cache (on a lazy one it reflects what
  /// has been computed so far); serving::Service reports it for the
  /// ROADMAP's eviction budgeting.
  [[nodiscard]] std::uint64_t approx_bytes() const;

  /// The CFG this geometry was computed on; borrowers check identity.
  [[nodiscard]] const cfg::Cfg& cfg() const { return cfg_; }

 private:
  const cfg::Cfg& cfg_;
  unsigned k_;
  bool materialized_ = false;
  // Lazily filled; entries_[b] is meaningful only once computed_[b].
  mutable std::vector<std::vector<cfg::FrontierEntry>> entries_;
  mutable std::vector<bool> computed_;
};

/// The geometry cache key: frontier candidate lists depend on the CFG
/// (by identity -- campaign/serving workloads hold their Cfg at a stable
/// address) and predecompress_k, nothing else. This is the key both the
/// campaign runner and serving::Service deduplicate artifacts under.
struct FrontierKey {
  const cfg::Cfg* cfg = nullptr;
  unsigned k = 0;

  [[nodiscard]] bool operator==(const FrontierKey&) const = default;
  /// Ordered so the key works in std::map (deterministic iteration).
  [[nodiscard]] bool operator<(const FrontierKey& other) const {
    return cfg != other.cfg ? cfg < other.cfg : k < other.k;
  }
};

}  // namespace apcc::runtime
