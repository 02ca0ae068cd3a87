#include "serving/service.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "compress/codec.hpp"
#include "sim/engine.hpp"
#include "support/strings.hpp"

namespace apcc::serving {

namespace {

/// Thrown inside a work item when its job's cancellation was observed
/// mid-artifact-resolution: unwinds back to the item wrapper (rolling
/// back any claimed-but-unbuilt artifact on the way), where it is
/// swallowed -- a cancelled item retires quietly, it does not fail the
/// job. Never escapes service.cpp.
struct JobCancelled {};

/// RAII record of one grid cell's borrowed artifacts. Every borrow
/// (and every publish -- the builder borrows what it built) pins the
/// artifact's slot; the lease unpins at destruction, after the cell's
/// engine run. While a lease is live its artifacts are never eviction
/// victims, so engines hold plain references with no locking. Only
/// slot-level locks here (never Service::mutex_): the newly unpinned
/// artifact stays resident until the next publish re-evaluates the
/// budget -- eviction is publish-driven.
struct CellLease {
  runtime::ArtifactSlotBase* image = nullptr;
  runtime::ArtifactSlotBase* frontier = nullptr;

  CellLease() = default;
  CellLease(const CellLease&) = delete;
  CellLease& operator=(const CellLease&) = delete;
  ~CellLease() {
    for (runtime::ArtifactSlotBase* held : {image, frontier}) {
      if (held != nullptr) held->unpin();
    }
  }
};

}  // namespace

/// One registered workload plus its image artifacts. The workload lives
/// behind a unique_ptr so its Cfg / trace / bytes keep stable addresses
/// for the cache keys and the borrowing engines; map nodes are stable
/// too, so slot pointers stay valid while other keys are inserted.
/// (Frontier geometry lives in the service-wide frontiers_ map, keyed
/// by runtime::FrontierKey -- CFG identity + k.)
struct Service::Registered {
  std::unique_ptr<const workloads::Workload> workload;
  std::map<compress::CodecKind, std::unique_ptr<ImageSlot>> images;
};

Service::Service(ServiceOptions options)
    : limits_(options.limits),
      client_weights_(std::move(options.client_weights)),
      budget_(options.cache_budget),
      faults_(std::move(options.faults)) {
  unsigned workers = options.workers != 0
                         ? options.workers
                         : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  pool_ = std::make_shared<sweep::Pool>(
      sweep::PoolOptions{workers, options.fair_share});
}

Service::~Service() { shutdown(std::nullopt); }

WorkloadId Service::register_workload(workloads::Workload workload) {
  auto entry = std::make_unique<Registered>();
  entry->workload =
      std::make_unique<const workloads::Workload>(std::move(workload));
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_.push_back(std::move(entry));
  return registry_.size() - 1;
}

std::size_t Service::workload_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return registry_.size();
}

const workloads::Workload& Service::workload(WorkloadId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  return *registry_[id]->workload;
}

WorkloadId Service::resolve(const std::string& ref) const {
  APCC_CHECK(!ref.empty(), "empty workload reference");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ref[0] == '@') {
    // Literal id, the exact form the typed veneers emit.
    const std::int64_t id = parse_int(ref.substr(1));
    APCC_CHECK(id >= 0 && static_cast<std::size_t>(id) < registry_.size(),
               "unknown workload reference '" + ref + "'");
    return static_cast<WorkloadId>(id);
  }
  // Registered-name lookup, first registration wins (deterministic).
  for (std::size_t id = 0; id < registry_.size(); ++id) {
    if (registry_[id]->workload->name == ref) return id;
  }
  throw CheckError("unknown workload reference '" + ref +
                   "' (register it first, or use \"@<id>\")");
}

Service::Registered& Service::entry(WorkloadId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  return *registry_[id];
}

bool Service::task_boundary(detail::JobState& state) {
  if (state.token && state.token->cancelled()) return false;
  if (faults_) {
    const std::size_t n =
        fault_boundaries_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (faults_->on_boundary) faults_->on_boundary(n);
    if (faults_->cancel_at_boundary != 0 &&
        n == faults_->cancel_at_boundary) {
      // Self-cancel: the pool observes the token at its next claim (and
      // after this item retires), so the whole job resolves kCancelled.
      if (state.token) state.token->request();
      return false;
    }
    if (faults_->throw_in_task != 0 && n == faults_->throw_in_task) {
      throw CheckError("injected fault: task throw at boundary " +
                       std::to_string(n) + " (seed " +
                       std::to_string(faults_->seed) + ")");
    }
    // A gate in on_boundary may have parked this item across a cancel;
    // honour it before doing any work.
    if (state.token && state.token->cancelled()) return false;
  }
  return true;
}

template <typename Key, typename T, typename Build>
const T& Service::resolve_artifact(
    std::map<Key, std::unique_ptr<runtime::ArtifactSlot<T>>>& slots,
    const Key& key, ArtifactStats& stats, std::uint64_t rebuild_cost,
    const sweep::CancelToken* token, runtime::ArtifactSlotBase*& held,
    Build&& build) {
  runtime::ArtifactSlot<T>* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& owned = slots[key];
    if (!owned) owned = std::make_unique<runtime::ArtifactSlot<T>>();
    slot = owned.get();
  }
  // A cancelled job stops resolving artifacts: at the claim, at every
  // re-claim after a rolled-back build, and at the start of its own
  // build (a cancelled builder rolls back, so waiters re-claim).
  const auto poll = [token] {
    if (token && token->cancelled()) throw JobCancelled{};
  };
  // pin=true: the borrow (or the builder's own publish) is pinned
  // before the slot lock drops, and handed to the cell's lease.
  const auto acquired = slot->acquire(
      poll,
      [&](bool rebuild) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++stats.misses;
          if (rebuild) ++stats.rebuilds;
        }
        poll();
        return build();
      },
      /*pin=*/true);
  held = slot;
  const std::lock_guard<std::mutex> lock(mutex_);
  slot->last_use = ++cache_clock_;
  if (!acquired.built) {
    ++stats.borrows;
    ++stats.hits;
    return *acquired.artifact;
  }
  const std::uint64_t resident = acquired.artifact->approx_bytes();
  ++stats.built;
  stats.bytes += resident;
  slot->bytes = resident;
  slot->rebuild_cost = rebuild_cost;
  ++publish_count_;
  evict_over_budget_locked();
  return *acquired.artifact;
}

sim::RunResult Service::run_cell(Registered& entry, const JobSpec& spec,
                                 sim::EngineConfig config,
                                 const sweep::CancelToken* token) {
  const workloads::Workload& w = *entry.workload;
  CellLease lease;
  std::uint64_t original_bytes = 0;
  for (const compress::Bytes& b : w.block_bytes) original_bytes += b.size();
  const runtime::BlockImage& image = resolve_artifact(
      entry.images, spec.config.codec, stats_.images,
      estimate_image_cost(original_bytes), token, lease.image, [&] {
        if (faults_) {
          const std::size_t n =
              fault_builds_.fetch_add(1, std::memory_order_relaxed) + 1;
          if (faults_->fail_image_build != 0 &&
              n == faults_->fail_image_build) {
            throw CheckError("injected fault: image build " +
                             std::to_string(n) + " failed (seed " +
                             std::to_string(faults_->seed) + ")");
          }
        }
        // Exactly what from_workload does -- train the codec on a copy
        // of the block bytes, then freeze the image -- so a cached
        // image is byte-identical to a per-call one (and a rebuilt-
        // after-eviction image byte-identical to the first).
        std::vector<compress::Bytes> bytes = w.block_bytes;
        auto codec = compress::make_codec(spec.config.codec, bytes);
        return std::make_unique<const runtime::BlockImage>(
            w.cfg, std::move(bytes), std::move(codec));
      });
  if (spec.share_frontiers) {
    const unsigned k = config.policy.predecompress_k;
    config.shared_frontiers = &resolve_artifact(
        frontiers_, runtime::FrontierKey{&w.cfg, k}, stats_.frontiers,
        estimate_frontier_cost(w.cfg.block_count(), k), token,
        lease.frontier, [&] {
          auto cache = std::make_unique<runtime::FrontierCache>(w.cfg, k);
          cache->materialize();
          return cache;
        });
  }
  sim::Engine engine(w.cfg, image, config);
  return engine.run(w.trace);
}

void Service::evict_over_budget_locked() {
  const bool forced = faults_ != nullptr && faults_->evict_at_publish != 0 &&
                      publish_count_ == faults_->evict_at_publish;
  if (!forced && budget_.unbounded()) return;

  // Snapshot the resident artifacts into policy views, in deterministic
  // order (registry index, then codec key; then frontier key). Pins are
  // read under each slot's lock (mutex_ -> slot order); a borrow that
  // lands after the snapshot is caught by the apply-time re-check.
  struct Resident {
    runtime::ArtifactSlotBase* slot = nullptr;
    ArtifactStats* stats = nullptr;  // the slot's kind
    CacheEntry entry;
  };
  std::vector<Resident> residents;
  std::vector<std::size_t> image_indices;
  std::vector<std::size_t> frontier_indices;
  const auto snapshot = [&](runtime::ArtifactSlotBase& slot,
                            ArtifactStats& stats,
                            std::vector<std::size_t>& indices) {
    if (slot.bytes == 0) return;  // never published, or evicted
    indices.push_back(residents.size());
    residents.push_back({&slot, &stats,
                         CacheEntry{slot.bytes, slot.rebuild_cost,
                                    slot.last_use, slot.pins() != 0}});
  };
  for (const auto& registered : registry_) {
    for (const auto& [codec, slot] : registered->images) {
      snapshot(*slot, stats_.images, image_indices);
    }
  }
  for (const auto& [key, slot] : frontiers_) {
    snapshot(*slot, stats_.frontiers, frontier_indices);
  }

  const auto run_pass = [&](const std::vector<std::size_t>& subset,
                            std::uint64_t budget) {
    std::vector<CacheEntry> view;
    view.reserve(subset.size());
    for (const std::size_t idx : subset) view.push_back(residents[idx].entry);
    // The apply-time ready/pinned re-check under the slot's own lock is
    // authoritative (a racing borrow exempts the artifact this pass).
    // On success, zero the snapshot bytes so later passes see the
    // post-eviction resident set; on failure, mark the snapshot pinned
    // so they stop retrying it.
    for (const std::size_t victim :
         plan_evictions(view, budget, cache_clock_)) {
      Resident& r = residents[subset[victim]];
      if (!r.slot->evict()) {
        r.entry.pinned = true;
        continue;
      }
      ++r.stats->evictions;
      r.stats->evicted_bytes += r.slot->bytes;
      r.stats->bytes -= r.slot->bytes;
      r.slot->bytes = 0;
      r.entry.bytes = 0;
    }
  };

  std::vector<std::size_t> all(residents.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  if (forced) {
    // The fault plan's flush: every unpinned resident artifact goes,
    // whatever the configured budget -- budget 0 to the pure policy
    // means exactly that.
    run_pass(all, 0);
    return;
  }
  if (budget_.image_bytes != 0) run_pass(image_indices, budget_.image_bytes);
  if (budget_.frontier_bytes != 0) {
    run_pass(frontier_indices, budget_.frontier_bytes);
  }
  if (budget_.total_bytes != 0) run_pass(all, budget_.total_bytes);
}

JobHandle<JobResult> Service::submit(JobSpec spec) {
  validate(spec);

  /// Everything the pool items need, alive until the finalize runs.
  struct Ctx {
    JobSpec spec;
    std::vector<Registered*> entries;
    std::vector<std::string> names;
    std::vector<sweep::ResultSink> sinks;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->spec = std::move(spec);
  for (const std::string& ref : ctx->spec.workloads) {
    Registered& target = entry(resolve(ref));
    APCC_CHECK(!target.workload->trace.empty(),
               "workload '" + target.workload->name + "' has no default trace");
    ctx->entries.push_back(&target);
    ctx->names.push_back(target.workload->name);
  }

  auto state = std::make_shared<detail::JobState>();
  state->value.kind = ctx->spec.kind;
  const std::string client = ctx->spec.client;

  // Admission. Structural errors above threw (caller bugs); load is not
  // a caller bug, so over-limit submissions resolve as a structured
  // *rejected* result -- immediately, without ever touching the pool.
  // The rejection messages are fixed strings + configured limits, so
  // overload outcomes are byte-stable however the race to the last
  // queue slot resolves.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string reason;
    if (!accepting_) {
      reason = "rejected: service is shutting down";
    } else if (limits_.max_queued_jobs != 0 &&
               live_jobs_ >= limits_.max_queued_jobs) {
      reason = "rejected: job limit reached (" +
               std::to_string(limits_.max_queued_jobs) + " jobs in flight)";
    } else if (limits_.max_queued_per_client != 0 &&
               live_per_client_[client] >= limits_.max_queued_per_client) {
      reason = "rejected: client limit reached (" +
               std::to_string(limits_.max_queued_per_client) +
               " jobs in flight for client '" + client + "')";
    }
    if (!reason.empty()) {
      state->value.status = JobStatus::kRejected;
      state->value.error = std::move(reason);
      state->done = true;
      return JobHandle<JobResult>(std::move(state));
    }
    ++live_jobs_;
    ++live_per_client_[client];
    live_states_.emplace(state.get(), state);
  }

  state->token = std::make_shared<sweep::CancelToken>();
  state->pool = pool_;

  sweep::SubmitOptions options;
  options.priority = ctx->spec.priority;
  options.max_workers = ctx->spec.max_workers;
  options.client = client;
  const auto weight = client_weights_.find(client);
  if (weight != client_weights_.end()) options.weight = weight->second;
  options.cancel = state->token;
  const std::uint64_t deadline_ms = ctx->spec.deadline_ms != 0
                                        ? ctx->spec.deadline_ms
                                        : limits_.default_deadline_ms;
  if (deadline_ms != 0) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    // A deadline past the clock's range can never lapse: it means none,
    // rather than an overflowed time_point already in the past.
    const std::chrono::milliseconds headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now);
    if (faults_ && faults_->expire_deadlines) {
      // Deterministically already-expired: the first dispatch resolves
      // the job deadline-exceeded, no sleeping tests.
      options.deadline = now - std::chrono::hours(1);
    } else if (deadline_ms < static_cast<std::uint64_t>(headroom.count())) {
      options.deadline = now + std::chrono::milliseconds(
                                   static_cast<std::int64_t>(deadline_ms));
    }
  }

  std::size_t total = 0;
  sweep::Pool::ItemFn item;
  if (ctx->spec.kind == JobKind::kRun) {
    total = 1;
    item = [this, ctx, state](std::size_t) {
      if (!task_boundary(*state)) return;
      try {
        sim::RunResult result =
            run_cell(*ctx->entries[0], ctx->spec,
                     core::engine_config(ctx->spec.config), state->token.get());
        const std::lock_guard<std::mutex> lock(state->mutex);
        state->value.run = std::move(result);
      } catch (const JobCancelled&) {
        // The job is being cancelled; this item retires without a
        // result (the finalize reports kCancelled, payload-free).
      }
    };
  } else {
    // Sweep and campaign share sweep::run_campaign's workload-major
    // flattening (a sweep is the one-workload case): cell i is workload
    // i / |grid|, task i % |grid|.
    const std::size_t grid_size = ctx->spec.tasks.size();
    total = ctx->entries.size() * grid_size;
    ctx->sinks = std::vector<sweep::ResultSink>(ctx->entries.size());
    item = [this, ctx, state, grid_size](std::size_t i) {
      if (!task_boundary(*state)) return;
      try {
        const std::size_t w = i / grid_size;
        const std::size_t t = i % grid_size;
        const sweep::SweepTask& task = ctx->spec.tasks[t];
        ctx->sinks[w].push(sweep::SweepOutcome{
            t, task.label,
            run_cell(*ctx->entries[w], ctx->spec, task.config,
                     state->token.get())});
      } catch (const JobCancelled&) {
      }
    };
  }

  const JobId id = pool_->submit(
      total, std::move(item),
      [this, ctx, state, client](const sweep::FinalizeInfo& info) {
        std::function<void()> callback;
        {
          // Job accounting first, so a waiter that wakes on this job
          // can immediately submit into the freed queue slot.
          const std::lock_guard<std::mutex> lock(mutex_);
          --live_jobs_;
          const auto it = live_per_client_.find(client);
          if (it != live_per_client_.end() && --it->second == 0) {
            live_per_client_.erase(it);
          }
          live_states_.erase(state.get());
        }
        {
          const std::lock_guard<std::mutex> lock(state->mutex);
          switch (info.outcome) {
            case sweep::JobOutcome::kCompleted:
              switch (ctx->spec.kind) {
                case JobKind::kRun:
                  break;  // the single item wrote value.run already
                case JobKind::kSweep:
                  state->value.sweep = ctx->sinks[0].take_sorted();
                  break;
                case JobKind::kCampaign:
                  state->value.campaign.reserve(ctx->names.size());
                  for (std::size_t w = 0; w < ctx->names.size(); ++w) {
                    state->value.campaign.push_back(sweep::CampaignResult{
                        ctx->names[w], ctx->sinks[w].take_sorted()});
                  }
                  break;
              }
              break;
            case sweep::JobOutcome::kFailed:
              state->failure = info.failure;
              state->value.status = JobStatus::kError;
              try {
                std::rethrow_exception(info.failure);
              } catch (const std::exception& e) {
                state->value.error = e.what();
              } catch (...) {
                state->value.error = "unknown error";
              }
              break;
            // The non-ok, non-failure outcomes carry fixed messages and
            // no payload -- the record is byte-identical however many
            // items happened to run before the cancel landed.
            case sweep::JobOutcome::kCancelled:
              state->value.status = JobStatus::kCancelled;
              state->value.error = "job cancelled";
              break;
            case sweep::JobOutcome::kDeadlineExceeded:
              state->value.status = JobStatus::kDeadlineExceeded;
              state->value.error = "job deadline exceeded";
              break;
          }
          state->done = true;
          callback = std::move(state->callback);
        }
        state->cv.notify_all();
        // Outside the state mutex: the callback may take locks of its
        // own (the net layer's completion queue) and must never
        // deadlock against a concurrent ready()/wait().
        if (callback) callback();
      },
      options);

  bool accepting = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    state->id = id;
    accepting = accepting_;
  }
  if (!accepting) {
    // shutdown() raced between admission and enqueue and so missed this
    // job's id; apply its still-queued policy ourselves.
    pool_->cancel_if_unstarted(id);
  }
  return JobHandle<JobResult>(std::move(state));
}

JobHandle<sim::RunResult> Service::submit(RunJob job) {
  JobSpec spec;
  spec.kind = JobKind::kRun;
  spec.workloads.push_back("@" + std::to_string(job.workload));
  spec.config = job.config;
  spec.share_frontiers = job.share_frontiers;
  return JobHandle<sim::RunResult>(submit(std::move(spec)).state_);
}

JobHandle<std::vector<sweep::SweepOutcome>> Service::submit(SweepJob job) {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.workloads.push_back("@" + std::to_string(job.workload));
  spec.config = job.config;
  spec.tasks = std::move(job.tasks);
  spec.share_frontiers = job.share_frontiers;
  return JobHandle<std::vector<sweep::SweepOutcome>>(
      submit(std::move(spec)).state_);
}

JobHandle<std::vector<sweep::CampaignResult>> Service::submit(
    CampaignJob job) {
  JobSpec spec;
  spec.kind = JobKind::kCampaign;
  spec.workloads.reserve(job.workloads.size());
  for (const WorkloadId id : job.workloads) {
    std::string ref = "@";
    ref += std::to_string(id);
    spec.workloads.push_back(std::move(ref));
  }
  spec.config = job.config;
  spec.tasks = std::move(job.grid);
  spec.share_frontiers = job.share_frontiers;
  return JobHandle<std::vector<sweep::CampaignResult>>(
      submit(std::move(spec)).state_);
}

void Service::drain() { pool_->drain(); }

void Service::shutdown(
    std::optional<std::chrono::milliseconds> drain_deadline) {
  std::vector<std::pair<std::shared_ptr<detail::JobState>, JobId>> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    live.reserve(live_states_.size());
    for (const auto& [ptr, st] : live_states_) live.emplace_back(st, st->id);
  }
  // Still-queued (no item started) jobs fail fast as cancelled --
  // resolved on this thread, before the drain, so their handles are
  // ready even while in-flight jobs are still running. id 0 means the
  // submitter has not enqueued the job yet; its own post-enqueue
  // accepting_ check applies this same policy.
  for (const auto& [st, id] : live) {
    if (id != 0) pool_->cancel_if_unstarted(id);
  }
  if (drain_deadline && !pool_->drain_for(*drain_deadline)) {
    // Patience exhausted: cancel the stragglers cooperatively. Their
    // handles still resolve (as kCancelled) once running items hit a
    // task boundary or finish -- shutdown never abandons a handle.
    for (const auto& [st, id] : live) {
      if (st->token) st->token->request();
      if (id != 0) pool_->cancel(id);
    }
  }
  pool_->drain();
  pool_->stop(sweep::StopMode::kDrain);
}

Service::CacheStats Service::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats stats = stats_;
  // Resident-set sizes are counted at query time: the running counters
  // above survive artifact eviction, these reflect what eviction left.
  for (const auto& entry : registry_) {
    for (const auto& [codec, slot] : entry->images) {
      if (slot->ready()) ++stats.images.entries;
    }
  }
  for (const auto& [key, slot] : frontiers_) {
    if (slot->ready()) ++stats.frontiers.entries;
  }
  return stats;
}

unsigned Service::workers() const { return pool_->workers(); }

const Service::FrontierSlot* Service::frontier_slot(
    WorkloadId id, unsigned predecompress_k) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  const runtime::FrontierKey key{&registry_[id]->workload->cfg,
                                 predecompress_k};
  const auto it = frontiers_.find(key);
  return it == frontiers_.end() ? nullptr : it->second.get();
}

}  // namespace apcc::serving
