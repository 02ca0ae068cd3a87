#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/state.hpp"
#include "support/assert.hpp"

namespace apcc::sim {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kBlockEnter: return "enter";
    case EventKind::kBlockExit: return "exit";
    case EventKind::kException: return "exception";
    case EventKind::kDemandDecompress: return "demand-decompress";
    case EventKind::kPredecompressIssue: return "pre-decompress-issue";
    case EventKind::kPredecompressDone: return "pre-decompress-done";
    case EventKind::kDelete: return "delete";
    case EventKind::kEvict: return "evict";
    case EventKind::kPatch: return "patch";
    case EventKind::kUnpatch: return "unpatch";
    case EventKind::kStall: return "stall";
    case EventKind::kRequestDropped: return "request-dropped";
  }
  return "?";
}

namespace {

/// Per-block execution cost for `costs.cycles_per_instruction`, hoisted
/// out of the step loop.
std::vector<std::uint64_t> exec_cycles_table(const cfg::Cfg& cfg,
                                             const runtime::CostModel& costs) {
  std::vector<std::uint64_t> out;
  out.reserve(cfg.block_count());
  for (cfg::BlockId b = 0; b < cfg.block_count(); ++b) {
    out.push_back(static_cast<std::uint64_t>(
        std::llround(costs.cycles_per_instruction *
                     static_cast<double>(cfg.block(b).word_count))));
  }
  return out;
}

}  // namespace

Engine::Engine(const cfg::Cfg& cfg, const runtime::BlockImage& image,
               EngineConfig config)
    : cfg_(cfg),
      image_(image),
      config_(config),
      exec_cycles_(exec_cycles_table(cfg, config.costs)) {
  APCC_CHECK(image_.block_count() == cfg_.block_count(),
             "image and CFG disagree on block count");
  // Note: the memory budget is not validated against block sizes here --
  // a budget smaller than some cold block is fine as long as that block
  // is never executed. run() raises CheckError if an executed block
  // cannot be placed even after evicting every victim.
}

void Engine::emit(EventKind kind, std::uint64_t time,
                      cfg::BlockId block, cfg::BlockId aux,
                      std::uint64_t value) const {
  if (sink_) {
    sink_(Event{kind, time, block, aux, value});
  }
}

cfg::BlockId Engine::select_victim(cfg::BlockId protect) const {
  const runtime::StateTable& states = *states_;
  switch (config_.policy.victim_policy) {
    case runtime::VictimPolicy::kLru:
      return config_.reference_scans ? states.lru_victim_reference(protect)
                                      : states.lru_victim(protect);
    case runtime::VictimPolicy::kMru:
      return config_.reference_scans ? states.mru_victim_reference(protect)
                                      : states.mru_victim(protect);
    case runtime::VictimPolicy::kLargest:
      return config_.reference_scans
                 ? states.largest_victim_reference(protect)
                 : states.largest_victim(protect);
  }
  return cfg::kInvalidBlock;
}

std::size_t Engine::earliest_decomp_unit() const {
  std::size_t best = 0;
  for (std::size_t u = 1; u < decomp_free_.size(); ++u) {
    if (decomp_free_[u] < decomp_free_[best]) best = u;
  }
  return best;
}

std::optional<std::uint64_t> Engine::earliest_inflight_ready() {
  if (config_.reference_scans) {
    std::uint64_t earliest = UINT64_MAX;
    for (cfg::BlockId b = 0; b < states_->size(); ++b) {
      const auto s = (*states_)[b];
      if (s.form() == runtime::BlockForm::kDecompressing) {
        earliest = std::min(earliest, s.ready_time);
      }
    }
    if (earliest == UINT64_MAX) return std::nullopt;
    return earliest;
  }
  while (!ready_queue_.empty()) {
    const auto [time, block] = ready_queue_.top();
    const auto s = (*states_)[block];
    if (s.form() == runtime::BlockForm::kDecompressing &&
        s.ready_time == time) {
      return time;
    }
    ready_queue_.pop();  // stale: settled early, deleted, or re-issued
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Engine::place_with_eviction(
    cfg::BlockId block) {
  for (;;) {
    if (auto address = layout_->place_decompressed(block, now_)) {
      return address;
    }
    const cfg::BlockId victim = select_victim(block);
    if (victim == cfg::kInvalidBlock) {
      return std::nullopt;
    }
    delete_block(victim, block);
    ++result_.evictions;
  }
}

void Engine::delete_block(cfg::BlockId block,
                              cfg::BlockId evicted_for) {
  auto s = (*states_)[block];
  APCC_ASSERT(s.form() == runtime::BlockForm::kDecompressed,
              "delete of non-resident block");
  // Cost: metadata delete + one unpatch per remember-set entry, plus the
  // real codec compression time under the recompress_for_real ablation.
  std::uint64_t cost = config_.costs.delete_block_cycles;
  const auto patches = static_cast<std::uint64_t>(s.remember_set().size());
  if (config_.policy.use_remember_sets) {
    cost += patches * config_.costs.unpatch_branch_cycles;
    for (const cfg::BlockId pred : s.remember_set()) {
      emit(EventKind::kUnpatch, now_, block, pred);
    }
    result_.unpatches += patches;
  }
  if (config_.policy.recompress_for_real) {
    cost += image_.codec().costs().compress_cycles(
        image_.original_size(block));
  }
  if (config_.policy.background_compression) {
    const std::uint64_t start = std::max(now_, comp_free_at_);
    comp_free_at_ = start + cost;
    result_.comp_helper_busy_cycles += cost;
  } else {
    now_ += cost;
  }
  // The memory itself is released immediately: in the paper's design the
  // compressed original never moved, so "compressing back" is dropping
  // the copy (§5) -- the helper cost above models the bookkeeping.
  layout_->drop_decompressed(s.address, now_);
  states_->set_form(block, runtime::BlockForm::kCompressed);
  s.address = 0;
  s.kedge_counter = 0;
  s.clear_patches();
  if (!extra_[block].used_since_decomp && extra_[block].from_predecomp) {
    ++result_.wasted_predecompressions;
  }
  extra_[block] = ExtraBlockInfo{};
  ++result_.deletions;
  if (evicted_for != cfg::kInvalidBlock) {
    emit(EventKind::kEvict, now_, block, evicted_for);
  } else {
    emit(EventKind::kDelete, now_, block);
  }
}

void Engine::issue_predecompression(cfg::BlockId block,
                                        cfg::BlockId from) {
  auto s = (*states_)[block];
  if (s.form() != runtime::BlockForm::kCompressed) return;

  now_ += config_.costs.dispatch_job_cycles;
  const auto address = place_with_eviction(block);
  if (!address) {
    ++result_.dropped_requests;
    emit(EventKind::kRequestDropped, now_, block, from);
    return;
  }
  const std::uint64_t duration =
      config_.costs.alloc_block_cycles +
      image_.codec().costs().decompress_cycles(image_.original_size(block));

  emit(EventKind::kPredecompressIssue, now_, block, from, duration);
  if (config_.policy.background_decompression) {
    std::uint64_t& unit = decomp_free_[earliest_decomp_unit()];
    const std::uint64_t start = std::max(now_, unit);
    unit = start + duration;
    result_.decomp_helper_busy_cycles += duration;
    states_->set_form(block, runtime::BlockForm::kDecompressing);
    s.ready_time = start + duration;
    if (!config_.reference_scans) {
      // The reference path settles by scanning; feeding the queue there
      // would only grow an unread heap for the whole run.
      ready_queue_.emplace(s.ready_time, block);
    }
  } else {
    // Single-threaded ablation: the work lands in the critical path.
    now_ += duration;
    s.ready_time = now_;
    complete_decompression(block, now_, /*inline_cost=*/true);
  }
  s.address = *address;
  extra_[block].from_predecomp = true;
  extra_[block].used_since_decomp = false;
  ++result_.predecompressions;
  if (config_.paranoid_verify) {
    image_.verify_block(block);
  }
}

void Engine::complete_decompression(cfg::BlockId block,
                                        std::uint64_t completion_time,
                                        bool inline_cost) {
  auto s = (*states_)[block];
  states_->set_form(block, runtime::BlockForm::kDecompressed);
  s.kedge_counter = 0;  // its k-edge window starts now
  emit(EventKind::kPredecompressDone, completion_time, block);
  if (!config_.policy.use_remember_sets) return;
  // Patch the branch sites of already-decompressed predecessors so the
  // execution thread can enter without a fault. Compressed predecessors
  // cannot be patched (their branch bytes are immutable); entries from
  // them pay the exception-and-patch path on arrival instead.
  std::uint64_t patch_cost = 0;
  for (const cfg::BlockId pred : cfg_.predecessor_ids(block)) {
    const auto ps = (*states_)[pred];
    if (ps.form() != runtime::BlockForm::kDecompressed) continue;
    if (s.is_patched_for(pred)) continue;
    s.add_patch(pred);
    ++result_.patches;
    patch_cost += config_.costs.patch_branch_cycles;
    emit(EventKind::kPatch, completion_time, block, pred);
  }
  if (patch_cost == 0) return;
  if (inline_cost) {
    now_ += patch_cost;
    result_.patch_cycles += patch_cost;
  } else {
    // The unit that produced the copy applies the patches right after
    // completion; approximate it as the earliest-free unit.
    std::uint64_t& unit = decomp_free_[earliest_decomp_unit()];
    unit = std::max(unit, completion_time) + patch_cost;
    result_.decomp_helper_busy_cycles += patch_cost;
  }
}

void Engine::settle_ready_blocks() {
  if (config_.reference_scans) {
    for (cfg::BlockId b = 0; b < states_->size(); ++b) {
      const auto s = (*states_)[b];
      if (s.form() == runtime::BlockForm::kDecompressing &&
          s.ready_time <= now_) {
        complete_decompression(b, s.ready_time, /*inline_cost=*/false);
      }
    }
    return;
  }
  if (ready_queue_.empty() || ready_queue_.top().first > now_) return;
  // Pop everything due, drop stale entries, and settle in ascending block
  // id -- the reference scan's order, which fixes the order of the
  // completion events and of the patch costs landing on helper units.
  settle_scratch_.clear();
  while (!ready_queue_.empty() && ready_queue_.top().first <= now_) {
    const auto [time, block] = ready_queue_.top();
    ready_queue_.pop();
    const auto s = (*states_)[block];
    if (s.form() == runtime::BlockForm::kDecompressing &&
        s.ready_time == time) {
      settle_scratch_.push_back(block);
    }
  }
  std::sort(settle_scratch_.begin(), settle_scratch_.end());
  for (const cfg::BlockId block : settle_scratch_) {
    const auto s = (*states_)[block];
    if (s.form() != runtime::BlockForm::kDecompressing) continue;  // dup entry
    complete_decompression(block, s.ready_time, /*inline_cost=*/false);
  }
}

void Engine::ensure_executable(cfg::BlockId block,
                                   cfg::BlockId pred) {
  auto s = (*states_)[block];

  // Settle an in-flight copy first: if the helper has already finished by
  // the execution thread's clock, the block is simply decompressed;
  // otherwise the execution thread stalls until it is ready.
  if (s.form() == runtime::BlockForm::kDecompressing) {
    const std::uint64_t wait =
        s.ready_time > now_ ? s.ready_time - now_ : 0;
    const std::uint64_t demand_cost =
        config_.costs.exception_cycles + config_.costs.alloc_block_cycles +
        image_.codec().costs().decompress_cycles(
            image_.original_size(block));
    if (wait > demand_cost) {
      // The helper is backlogged: the fetch faults and the handler
      // decompresses in the critical path, beating the queued job (the
      // helper's later completion finds the block already resident).
      // The copy's memory was already allocated at issue time.
      ++result_.exceptions;
      result_.exception_cycles += config_.costs.exception_cycles;
      ++result_.demand_decompressions;
      result_.critical_decompress_cycles +=
          demand_cost - config_.costs.exception_cycles;
      now_ += demand_cost;
      emit(EventKind::kException, now_, block, pred);
      emit(EventKind::kDemandDecompress, now_, block, pred, demand_cost);
      complete_decompression(block, now_, /*inline_cost=*/true);
    } else {
      if (wait > 0) {
        result_.stall_cycles += wait;
        emit(EventKind::kStall, now_, block, cfg::kInvalidBlock, wait);
        now_ = s.ready_time;
        ++result_.predecompress_partial;
      } else {
        ++result_.predecompress_hits;
      }
      complete_decompression(block, now_, /*inline_cost=*/false);
    }
  } else if (s.form() == runtime::BlockForm::kDecompressed &&
             extra_[block].from_predecomp &&
             !extra_[block].used_since_decomp) {
    ++result_.predecompress_hits;
  }

  if (s.form() == runtime::BlockForm::kDecompressed) {
    if (config_.policy.use_remember_sets) {
      // Re-entry through an already patched branch is exception-free;
      // a new branch site pays one exception + one patch.
      if (pred != cfg::kInvalidBlock && !s.is_patched_for(pred)) {
        ++result_.exceptions;
        result_.exception_cycles += config_.costs.exception_cycles;
        result_.patch_cycles += config_.costs.patch_branch_cycles;
        now_ += config_.costs.exception_cycles +
                 config_.costs.patch_branch_cycles;
        s.add_patch(pred);
        ++result_.patches;
        emit(EventKind::kException, now_, block, pred);
        emit(EventKind::kPatch, now_, block, pred);
      }
    } else {
      // Ablation: every entry to a relocated block faults (the handler
      // redirects the PC but never patches).
      ++result_.exceptions;
      result_.exception_cycles += config_.costs.exception_cycles;
      now_ += config_.costs.exception_cycles;
      emit(EventKind::kException, now_, block, pred);
    }
    return;
  }

  // Compressed: the fetch faults and the handler decompresses in the
  // critical path (on-demand / lazy decompression, §4).
  APCC_ASSERT(s.form() == runtime::BlockForm::kCompressed,
              "unexpected block form");
  ++result_.exceptions;
  result_.exception_cycles += config_.costs.exception_cycles;
  now_ += config_.costs.exception_cycles;
  emit(EventKind::kException, now_, block, pred);

  auto address = place_with_eviction(block);
  while (!address) {
    // Every decompressed victim is gone; the remaining occupants are
    // in-flight helper jobs, which become evictable once complete. Wait
    // for the earliest one, settle it, and retry.
    const auto earliest_ready = earliest_inflight_ready();
    APCC_CHECK(earliest_ready.has_value(),
               "decompressed area exhausted with no evictable victim "
               "(budget too small for the working set)");
    const std::uint64_t earliest = *earliest_ready;
    if (earliest > now_) {
      result_.stall_cycles += earliest - now_;
      emit(EventKind::kStall, now_, block, cfg::kInvalidBlock,
           earliest - now_);
      now_ = earliest;
    }
    settle_ready_blocks();
    address = place_with_eviction(block);
  }
  const std::uint64_t cost =
      config_.costs.alloc_block_cycles +
      image_.codec().costs().decompress_cycles(image_.original_size(block));
  now_ += cost;
  result_.critical_decompress_cycles += cost;
  ++result_.demand_decompressions;
  states_->set_form(block, runtime::BlockForm::kDecompressed);
  s.address = *address;
  extra_[block].from_predecomp = false;
  extra_[block].used_since_decomp = false;
  emit(EventKind::kDemandDecompress, now_, block, pred, cost);
  if (config_.paranoid_verify) {
    image_.verify_block(block);
  }

  if (config_.policy.use_remember_sets && pred != cfg::kInvalidBlock) {
    now_ += config_.costs.patch_branch_cycles;
    result_.patch_cycles += config_.costs.patch_branch_cycles;
    s.add_patch(pred);
    ++result_.patches;
    emit(EventKind::kPatch, now_, block, pred);
  }
}

RunResult Engine::run(const cfg::BlockTrace& trace) {
  APCC_CHECK(!trace.empty(), "cannot run an empty trace");
  cfg::validate_trace(cfg_, trace);
  APCC_CHECK(config_.policy.decompress_units >= 1,
             "at least one decompression unit is required");

  now_ = 0;
  decomp_free_.assign(config_.policy.decompress_units, 0);
  comp_free_at_ = 0;
  ready_queue_ = {};
  result_ = RunResult{};
  layout_ = std::make_unique<memory::MemoryLayout>(
      memory::layout_slots(image_.slot_sizes()),
      config_.policy.memory_budget == runtime::Policy::kUnbounded
          ? memory::MemoryLayout::kUnbounded
          : config_.policy.memory_budget,
      config_.fit);
  states_ = std::make_unique<runtime::StateTable>(cfg_.block_count());
  {
    std::vector<std::uint64_t> sizes;
    sizes.reserve(cfg_.block_count());
    for (cfg::BlockId b = 0; b < cfg_.block_count(); ++b) {
      sizes.push_back(image_.original_size(b));
    }
    states_->set_block_sizes(std::move(sizes));
  }
  kedge_ = std::make_unique<runtime::KEdgeCompressionManager>(
      *states_, config_.policy.compress_k, config_.reference_scans);
  predictor_ = runtime::make_predictor(config_.policy.predictor, cfg_,
                                       config_.policy.predecompress_k, trace,
                                       config_.shared_frontiers);
  planner_ = std::make_unique<runtime::DecompressionPlanner>(
      cfg_, *states_, config_.policy, predictor_.get(),
      config_.reference_frontiers, config_.shared_frontiers);
  extra_.assign(cfg_.block_count(), ExtraBlockInfo{});

  result_.original_image_bytes = layout_->original_image_bytes();
  result_.compressed_area_bytes = layout_->compressed_area_bytes();
  result_.codec_ratio = image_.ratio();

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const cfg::BlockId block = trace[i];
    const cfg::BlockId pred = (i == 0) ? cfg::kInvalidBlock : trace[i - 1];

    settle_ready_blocks();
    ensure_executable(block, pred);

    // Execute the block.
    states_->set_executing(block, true);
    states_->touch(block, now_);
    extra_[block].used_since_decomp = true;
    kedge_->on_block_executed(block);
    ++result_.block_entries;
    emit(EventKind::kBlockEnter, now_, block, pred);
    const std::uint64_t exec_cycles = exec_cycles_[block];
    now_ += exec_cycles;
    result_.busy_cycles += exec_cycles;
    result_.baseline_cycles += exec_cycles;
    states_->set_executing(block, false);

    if (i + 1 == trace.size()) break;
    const cfg::BlockId next = trace[i + 1];
    emit(EventKind::kBlockExit, now_, block, next);

    // Pre-decompression planning happens at the block's exit (§4).
    for (const cfg::BlockId req : planner_->plan_on_exit(block, i)) {
      if (req == next) {
        // The next block is entered immediately; issuing a background
        // job for it cannot complete in time -- the demand path will
        // handle it (and the helper would only duplicate the work).
        continue;
      }
      issue_predecompression(req, block);
    }

    // k-edge compression on the traversed edge (§3, §5).
    for (const cfg::BlockId victim : kedge_->on_edge_traversed(next)) {
      delete_block(victim);
    }
  }

  // Drain helper threads: the run is over when all three threads are done.
  std::uint64_t decomp_drain = 0;
  for (const std::uint64_t unit : decomp_free_) {
    decomp_drain = std::max(decomp_drain, unit);
  }
  result_.total_cycles = std::max({now_, decomp_drain, comp_free_at_});
  result_.peak_occupancy_bytes = layout_->peak_occupancy_bytes();
  result_.avg_occupancy_bytes =
      layout_->average_occupancy_bytes(result_.total_cycles);
  result_.allocator = layout_->allocator().stats();
  return result_;
}

}  // namespace apcc::sim
