#include "runtime/state.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace apcc::runtime {

const char* block_form_name(BlockForm f) {
  switch (f) {
    case BlockForm::kCompressed: return "compressed";
    case BlockForm::kDecompressing: return "decompressing";
    case BlockForm::kDecompressed: return "decompressed";
  }
  return "?";
}

namespace detail {

bool PatchSet::contains(cfg::BlockId pred) const {
  return std::binary_search(sorted.begin(), sorted.end(), pred);
}

void PatchSet::add(cfg::BlockId pred) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), pred);
  if (it != sorted.end() && *it == pred) return;
  sorted.insert(it, pred);
  order.push_back(pred);
}

}  // namespace detail

StateTable::StateTable(std::size_t block_count)
    : blocks_(block_count),
      form_(block_count, BlockForm::kCompressed),
      executing_(block_count, 0),
      address_(block_count, 0),
      ready_time_(block_count, 0),
      last_use_(block_count, 0),
      kedge_(block_count, 0),
      sizes_(block_count, 0),
      patches_(block_count),
      decomp_pos_(block_count, kNotInList) {
  form_counts_[static_cast<std::size_t>(BlockForm::kCompressed)] = block_count;
}

BlockRef StateTable::operator[](cfg::BlockId id) {
  APCC_CHECK(id < blocks_, "block id out of range");
  return BlockRef(address_[id], ready_time_[id], kedge_[id], form_[id],
                  last_use_[id], executing_[id], patches_[id]);
}

ConstBlockRef StateTable::operator[](cfg::BlockId id) const {
  APCC_CHECK(id < blocks_, "block id out of range");
  return ConstBlockRef(address_[id], ready_time_[id], kedge_[id], form_[id],
                       last_use_[id], executing_[id], patches_[id]);
}

bool StateTable::eligible(cfg::BlockId id, cfg::BlockId protect) const {
  return id != protect && executing_[id] == 0;
}

void StateTable::index_insert(cfg::BlockId id) {
  decomp_pos_[id] = static_cast<std::uint32_t>(decomp_list_.size());
  decomp_list_.push_back(id);
  lru_index_.emplace(last_use_[id], id);
  size_index_.emplace(sizes_[id], id);
}

void StateTable::index_erase(cfg::BlockId id) {
  const std::uint32_t pos = decomp_pos_[id];
  const cfg::BlockId moved = decomp_list_.back();
  decomp_list_[pos] = moved;
  decomp_pos_[moved] = pos;
  decomp_list_.pop_back();
  decomp_pos_[id] = kNotInList;
  lru_index_.erase(Key{last_use_[id], id});
  size_index_.erase(Key{sizes_[id], id});
}

void StateTable::set_form(cfg::BlockId id, BlockForm form) {
  APCC_CHECK(id < blocks_, "block id out of range");
  BlockForm& current = form_[id];
  if (current == form) return;
  if (current == BlockForm::kDecompressed) index_erase(id);
  --form_counts_[static_cast<std::size_t>(current)];
  ++form_counts_[static_cast<std::size_t>(form)];
  current = form;
  if (form == BlockForm::kDecompressed) index_insert(id);
}

void StateTable::touch(cfg::BlockId id, std::uint64_t time) {
  APCC_CHECK(id < blocks_, "block id out of range");
  std::uint64_t& last_use = last_use_[id];
  if (form_[id] == BlockForm::kDecompressed && last_use != time) {
    lru_index_.erase(Key{last_use, id});
    lru_index_.emplace(time, id);
  }
  last_use = time;
}

void StateTable::set_executing(cfg::BlockId id, bool executing) {
  APCC_CHECK(id < blocks_, "block id out of range");
  executing_[id] = executing ? 1 : 0;
}

void StateTable::set_block_sizes(std::vector<std::uint64_t> sizes) {
  APCC_CHECK(sizes.size() == blocks_, "size table does not match block count");
  // Re-key the size index for any currently decompressed blocks.
  for (const cfg::BlockId id : decomp_list_) {
    size_index_.erase(Key{sizes_[id], id});
  }
  sizes_ = std::move(sizes);
  for (const cfg::BlockId id : decomp_list_) {
    size_index_.emplace(sizes_[id], id);
  }
}

std::vector<cfg::BlockId> StateTable::decompressed_blocks() const {
  std::vector<cfg::BlockId> out(decomp_list_.begin(), decomp_list_.end());
  std::sort(out.begin(), out.end());
  return out;
}

cfg::BlockId StateTable::lru_victim(cfg::BlockId protect) const {
  for (const auto& [time, id] : lru_index_) {
    if (eligible(id, protect)) return id;
  }
  return cfg::kInvalidBlock;
}

cfg::BlockId StateTable::max_key_victim(const std::set<Key>& index,
                                        cfg::BlockId protect,
                                        bool require_positive_key) const {
  auto group_end = index.end();
  while (group_end != index.begin()) {
    const std::uint64_t key = std::prev(group_end)->first;
    if (require_positive_key && key == 0) break;
    // Entries share keys; the historical scan breaks ties toward the
    // lowest id, so walk the whole max-key group in id order.
    const auto group_begin = index.lower_bound(Key{key, 0});
    for (auto it = group_begin; it != group_end; ++it) {
      if (eligible(it->second, protect)) return it->second;
    }
    group_end = group_begin;
  }
  return cfg::kInvalidBlock;
}

cfg::BlockId StateTable::mru_victim(cfg::BlockId protect) const {
  return max_key_victim(lru_index_, protect, /*require_positive_key=*/false);
}

cfg::BlockId StateTable::largest_victim(cfg::BlockId protect) const {
  return max_key_victim(size_index_, protect, /*require_positive_key=*/true);
}

cfg::BlockId StateTable::lru_victim_reference(cfg::BlockId protect) const {
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t oldest = UINT64_MAX;
  for (std::size_t i = 0; i < blocks_; ++i) {
    if (form_[i] != BlockForm::kDecompressed || executing_[i]) {
      continue;
    }
    if (static_cast<cfg::BlockId>(i) == protect) continue;
    if (last_use_[i] < oldest) {
      oldest = last_use_[i];
      victim = static_cast<cfg::BlockId>(i);
    }
  }
  return victim;
}

cfg::BlockId StateTable::mru_victim_reference(cfg::BlockId protect) const {
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t newest = 0;
  bool found = false;
  for (std::size_t i = 0; i < blocks_; ++i) {
    if (form_[i] != BlockForm::kDecompressed ||
        executing_[i] || static_cast<cfg::BlockId>(i) == protect) {
      continue;
    }
    if (!found || last_use_[i] > newest) {
      newest = last_use_[i];
      victim = static_cast<cfg::BlockId>(i);
      found = true;
    }
  }
  return victim;
}

cfg::BlockId StateTable::largest_victim_reference(cfg::BlockId protect) const {
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t biggest = 0;
  for (std::size_t i = 0; i < blocks_; ++i) {
    if (form_[i] != BlockForm::kDecompressed ||
        executing_[i] || static_cast<cfg::BlockId>(i) == protect) {
      continue;
    }
    if (sizes_[i] > biggest) {
      biggest = sizes_[i];
      victim = static_cast<cfg::BlockId>(i);
    }
  }
  return victim;
}

}  // namespace apcc::runtime
