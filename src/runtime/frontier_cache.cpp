#include "runtime/frontier_cache.hpp"

#include "support/assert.hpp"

namespace apcc::runtime {

FrontierCache::FrontierCache(const cfg::Cfg& cfg, unsigned k)
    : cfg_(cfg),
      k_(k),
      entries_(cfg.block_count()),
      computed_(cfg.block_count(), false) {}

std::span<const cfg::FrontierEntry> FrontierCache::candidates(
    cfg::BlockId block) const {
  APCC_CHECK(block < computed_.size(), "block id out of range");
  if (!computed_[block]) {
    entries_[block] = cfg::frontier_distances(cfg_, block, k_);
    computed_[block] = true;
  }
  return entries_[block];
}

void FrontierCache::materialize() {
  for (cfg::BlockId b = 0; b < computed_.size(); ++b) {
    (void)candidates(b);
  }
  materialized_ = true;
}

std::uint64_t FrontierCache::approx_bytes() const {
  std::uint64_t bytes = 0;
  for (cfg::BlockId b = 0; b < computed_.size(); ++b) {
    if (!computed_[b]) continue;
    bytes += entries_[b].size() * sizeof(cfg::FrontierEntry) +
             sizeof(entries_[b]);
  }
  return bytes;
}

}  // namespace apcc::runtime
