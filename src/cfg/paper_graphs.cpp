#include "cfg/paper_graphs.hpp"

#include <string>
#include <utility>

namespace apcc::cfg {

namespace {

/// Create `count` blocks named B0..B(count-1) laid out back to back.
Cfg make_blocks(std::uint32_t count, const PaperGraphOptions& options) {
  Cfg cfg;
  std::uint32_t word = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t size =
        options.base_words_per_block + (options.vary_sizes ? i : 0);
    std::string name = "B";
    name += std::to_string(i);
    cfg.add_block(word, size, std::move(name));
    word += size;
  }
  cfg.set_entry(0);
  return cfg;
}

}  // namespace

Cfg figure1_cfg(const PaperGraphOptions& options) {
  Cfg cfg = make_blocks(6, options);
  cfg.add_edge(0, 1, EdgeKind::kBranchTaken);   // B0 -> B1 (left arm)
  cfg.add_edge(0, 2, EdgeKind::kFallThrough);   // B0 -> B2 (right arm)
  cfg.add_edge(1, 3, EdgeKind::kJump);          // edge "a"
  cfg.add_edge(2, 3, EdgeKind::kJump);          // join
  cfg.add_edge(3, 4, EdgeKind::kBranchTaken);   // edge "b"
  cfg.add_edge(3, 5, EdgeKind::kFallThrough);
  cfg.add_edge(4, 3, EdgeKind::kJump);          // inner loop B3<->B4
  cfg.add_edge(5, 0, EdgeKind::kJump);          // outer loop back to B0
  cfg.normalize_probabilities();
  cfg.validate();
  return cfg;
}

BlockTrace figure1_trace() { return {0, 1, 3, 4}; }

Cfg figure2_cfg(const PaperGraphOptions& options) {
  Cfg cfg = make_blocks(10, options);
  cfg.add_edge(0, 1, EdgeKind::kBranchTaken);   // B0 -> B1
  cfg.add_edge(0, 2, EdgeKind::kFallThrough);   // B0 -> B2
  cfg.add_edge(1, 3, EdgeKind::kBranchTaken);   // B1 -> B3
  cfg.add_edge(1, 4, EdgeKind::kFallThrough);   // B1 -> B4
  cfg.add_edge(2, 4, EdgeKind::kBranchTaken);   // B2 -> B4
  cfg.add_edge(2, 5, EdgeKind::kFallThrough);   // B2 -> B5
  cfg.add_edge(2, 8, EdgeKind::kJump);          // early exit to B8
  cfg.add_edge(2, 9, EdgeKind::kBranchTaken);   // early exit to B9
  cfg.add_edge(3, 6, EdgeKind::kJump);          // B3 -> B6
  cfg.add_edge(4, 6, EdgeKind::kJump);          // B4 -> B6
  cfg.add_edge(5, 6, EdgeKind::kFallThrough);   // B5 -> B6
  cfg.add_edge(6, 7, EdgeKind::kBranchTaken);   // B6 -> B7
  cfg.add_edge(6, 8, EdgeKind::kFallThrough);   // B6 -> B8
  cfg.add_edge(7, 9, EdgeKind::kJump);          // B7 -> B9
  cfg.add_edge(8, 9, EdgeKind::kFallThrough);   // B8 -> B9
  cfg.block(9).is_exit = true;
  cfg.normalize_probabilities();
  cfg.validate();
  return cfg;
}

BlockTrace figure4_trace() { return {0, 2, 5, 6, 8, 9}; }

Cfg figure5_cfg(const PaperGraphOptions& options) {
  Cfg cfg = make_blocks(4, options);
  cfg.add_edge(0, 1, EdgeKind::kBranchTaken);   // B0 -> B1
  cfg.add_edge(0, 2, EdgeKind::kFallThrough);   // B0 -> B2
  cfg.add_edge(1, 0, EdgeKind::kBranchTaken);   // loop back B1 -> B0
  cfg.add_edge(1, 3, EdgeKind::kFallThrough);   // B1 -> B3
  cfg.add_edge(2, 3, EdgeKind::kJump);          // B2 -> B3
  cfg.block(3).is_exit = true;
  cfg.normalize_probabilities();
  cfg.validate();
  return cfg;
}

BlockTrace figure5_trace() { return {0, 1, 0, 1, 3}; }

}  // namespace apcc::cfg
