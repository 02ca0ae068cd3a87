// The APCC execution engine: a discrete-event model of the paper's
// three-thread runtime (Figure 4).
//
//  * The execution thread walks the block trace; entering a block in
//    compressed form raises a memory-protection exception whose handler
//    decompresses it in the critical path (on-demand), or waits for the
//    background decompressor if the block is in flight.
//  * The decompression thread consumes pre-decompression requests issued
//    by the planner at each block exit; it is modelled as a single helper
//    that is busy for the codec's decompression time per job.
//  * The compression thread applies the k-edge deletions; in the paper's
//    design "compression" is deleting the decompressed copy (§5), so the
//    job cost is metadata work plus remember-set unpatching -- unless the
//    recompress_for_real ablation charges the codec's compression time.
//
// Timing rules:
//  * helper work overlaps execution when background_* is set, otherwise
//    it stalls the execution thread inline;
//  * an execution-thread arrival at an in-flight block stalls until the
//    helper's completion time;
//  * memory is allocated when a decompression starts and freed when a
//    deletion is applied, with the §2 LRU budget loop on allocation
//    failure.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <queue>

#include "cfg/trace.hpp"
#include "memory/layout.hpp"
#include "runtime/block_image.hpp"
#include "runtime/kedge.hpp"
#include "runtime/planner.hpp"
#include "runtime/policy.hpp"
#include "sim/result.hpp"

namespace apcc::sim {

/// Structured events for tests and the figure benches.
enum class EventKind : std::uint8_t {
  kBlockEnter,          // block begins executing
  kBlockExit,           // block finished; edge to `aux` traversed
  kException,           // protection fault on entering `block`
  kDemandDecompress,    // critical-path decompression of `block`
  kPredecompressIssue,  // planner requested `block` (issued from `aux`)
  kPredecompressDone,   // helper finished decompressing `block`
  kDelete,              // k-edge deleted `block`'s decompressed copy
  kEvict,               // LRU evicted `block` to make room for `aux`
  kPatch,               // branch in `aux` patched to `block`'s copy
  kUnpatch,             // branch in `aux` restored to compressed `block`
  kStall,               // execution waited on in-flight `block`
  kRequestDropped,      // no room and no victim for `block`
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

struct Event {
  EventKind kind{};
  std::uint64_t time = 0;          // execution-thread clock (cycles)
  cfg::BlockId block = cfg::kInvalidBlock;
  cfg::BlockId aux = cfg::kInvalidBlock;
  std::uint64_t value = 0;         // kind-specific (cost, duration, ...)
};

using EventSink = std::function<void(const Event&)>;

/// Engine configuration: policy + cost model + allocator behaviour.
struct EngineConfig {
  runtime::Policy policy{};
  runtime::CostModel costs{};
  memory::FitPolicy fit = memory::FitPolicy::kFirstFit;
  /// Debug: route settle / victim-selection / earliest-ready / k-edge
  /// queries through the pre-index O(B) full-table scans instead of the
  /// indexed structures. Both paths produce bit-identical RunResults and
  /// event streams; the differential test pins that.
  bool reference_scans = false;
  /// Debug: have the planner re-run the per-exit frontier BFS instead of
  /// reading the memoized FrontierCache. Same bit-identical guarantee,
  /// pinned by the same differential test.
  bool reference_frontiers = false;
  /// Debug: decompress every block the engine places and verify it
  /// against the original (BlockImage::verify_block). Charges nothing
  /// and changes no result; like the reference paths it is a test-only
  /// knob, off core::SystemConfig and the wire.
  bool paranoid_verify = false;
  /// Optional shared read-only planner geometry: a *materialized*
  /// FrontierCache built on this engine's CFG with
  /// k == policy.predecompress_k. Campaign runs (sweep::run_campaign)
  /// set this so every engine over the same (workload, k) borrows one
  /// cache instead of rebuilding it; null means the planner/predictor
  /// own their own. Borrowed runs are bit-identical to owned runs.
  const runtime::FrontierCache* shared_frontiers = nullptr;
};

/// Simulates one trace against one compressed image. Engines are
/// single-shot state machines: construct, optionally attach a sink, run.
class Engine {
 public:
  Engine(const cfg::Cfg& cfg, const runtime::BlockImage& image,
         EngineConfig config);

  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

  /// Run the trace to completion and return the metrics.
  [[nodiscard]] RunResult run(const cfg::BlockTrace& trace);

 private:
  struct ExtraBlockInfo {
    bool from_predecomp = false;
    bool used_since_decomp = false;
  };

  void emit(EventKind kind, std::uint64_t time, cfg::BlockId block,
            cfg::BlockId aux = cfg::kInvalidBlock,
            std::uint64_t value = 0) const;

  /// Place a decompressed copy of `block`, evicting victims (per the
  /// policy's VictimPolicy) if the budget requires it. Returns nullopt
  /// when impossible.
  [[nodiscard]] std::optional<std::uint64_t> place_with_eviction(
      cfg::BlockId block);

  /// Choose the budget-mode eviction victim; kInvalidBlock if none.
  [[nodiscard]] cfg::BlockId select_victim(cfg::BlockId protect) const;

  /// Index of the decompression unit that frees up first.
  [[nodiscard]] std::size_t earliest_decomp_unit() const;

  /// Completion time of the earliest in-flight decompression, if any.
  /// Indexed path: lazily prunes stale ready-queue entries, O(log B).
  [[nodiscard]] std::optional<std::uint64_t> earliest_inflight_ready();

  /// Apply a deletion ("compress back"): free memory, unpatch branches,
  /// reset state; charges the compression thread (or the execution
  /// thread when inline). `evicted_for` marks budget evictions.
  void delete_block(cfg::BlockId block,
                    cfg::BlockId evicted_for = cfg::kInvalidBlock);

  /// Issue one pre-decompression request to the helper.
  void issue_predecompression(cfg::BlockId block, cfg::BlockId from);

  /// Make `block` executable at the execution thread's clock; `pred` is
  /// the block the edge came from (kInvalidBlock for the trace start).
  void ensure_executable(cfg::BlockId block, cfg::BlockId pred);

  /// Flip in-flight blocks whose helper completion time has passed into
  /// the decompressed state, so the k-edge manager sees (and can later
  /// delete) them. Called as the execution clock advances.
  void settle_ready_blocks();

  /// Finalise a decompression of `block` at `completion_time`: mark it
  /// resident and patch the branch sites of its currently-decompressed
  /// predecessors (Figure 4's ideal case -- the execution thread "finds
  /// the blocks directly in the executable state"). Patching cost lands
  /// on the decompression helper (or inline when `inline_cost`).
  void complete_decompression(cfg::BlockId block,
                              std::uint64_t completion_time,
                              bool inline_cost);

  // Immutable inputs.
  const cfg::Cfg& cfg_;
  const runtime::BlockImage& image_;
  EngineConfig config_;
  EventSink sink_;
  std::vector<std::uint64_t> exec_cycles_;  // per-block execution cost,
                                            // hoisted out of the step loop

  // Mutable per-run state (reset by run()).
  std::uint64_t now_ = 0;  // execution-thread clock
  // Min-heap of (completion time, block) for in-flight decompressions.
  // Entries are invalidated lazily: an entry is live only while its
  // block is still kDecompressing with the same ready_time, so settling
  // and earliest-ready queries pop stale entries as they surface.
  using ReadyEntry = std::pair<std::uint64_t, cfg::BlockId>;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                      std::greater<ReadyEntry>>
      ready_queue_;
  std::vector<cfg::BlockId> settle_scratch_;
  std::vector<std::uint64_t> decomp_free_;  // per-unit availability
  std::uint64_t comp_free_at_ = 0;          // compression helper availability
  std::unique_ptr<memory::MemoryLayout> layout_;
  std::unique_ptr<runtime::StateTable> states_;
  std::unique_ptr<runtime::KEdgeCompressionManager> kedge_;
  std::unique_ptr<runtime::Predictor> predictor_;
  std::unique_ptr<runtime::DecompressionPlanner> planner_;
  std::vector<ExtraBlockInfo> extra_;
  RunResult result_;
};

}  // namespace apcc::sim
