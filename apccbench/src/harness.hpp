// The benchmark harness: the in-process server under test (a
// serving::Service behind a net::Server on loopback), the one-thread
// load generator that drives it, the direct reference path every reply
// is checked against, and the per-layer probes of the traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "runtime/frontier_cache.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "workloads/suite.hpp"

namespace apccbench {

using apcc::compress::CodecKind;

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

/// One distinct job of a workload: the wire record the client sends,
/// its parsed spec, and the direct reference it must reproduce.
struct Key {
  std::string record;
  apcc::serving::JobSpec spec;
  std::size_t conn = 0;  // the client connection that sends it
  bool normal = true;    // latency class: normal (true) or batch
  /// Canonical result text of the direct reference, serialized with job
  /// number 0 and no client tag.
  std::string reference;
  apcc::serving::JobResult result;  // the direct reference itself
  std::uint64_t block_entries = 0;  // simulated steps over its cells
};

/// A wire job record from the fields every wire version keeps.
[[nodiscard]] std::string job_record(
    const char* kind, const std::vector<std::string>& workloads,
    CodecKind codec, const std::string& grid_or_tasks,
    const char* priority, const std::string& client);

/// Every engine cell of a result (run: one; sweep: its outcomes;
/// campaign: all groups' outcomes).
[[nodiscard]] std::vector<const apcc::sim::RunResult*> result_cells(
    const apcc::serving::JobResult& result);

/// The direct, non-serving path over a workload's programs: one
/// CodeCompressionSystem per (program, codec) and one materialized
/// FrontierCache per (program, codec, k), built on first use.
class Direct {
 public:
  explicit Direct(const std::vector<apcc::workloads::Workload>& programs);

  /// The job's result by the direct path (CodeCompressionSystem::run,
  /// run_sweep / core::run_campaign on `workers` threads).
  [[nodiscard]] apcc::serving::JobResult reference(
      const apcc::serving::JobSpec& spec, unsigned workers);

  /// Run every engine cell of `spec` once through sim::Engine on
  /// borrowed geometry, one "sim.engine" span each. Returns the cells'
  /// engine times (ns) in cell order.
  std::vector<std::int64_t> run_cells(const apcc::serving::JobSpec& spec,
                                      std::uint64_t job,
                                      std::vector<apcc::sim::RunResult>* out);

  [[nodiscard]] const apcc::core::CodeCompressionSystem& system(
      const std::string& name, CodecKind codec);

 private:
  /// Geometry on the CFG of system(name, codec): each system owns its
  /// CFG, and engines check the identity.
  const apcc::runtime::FrontierCache& frontiers(const std::string& name,
                                                CodecKind codec, unsigned k);

  std::map<std::string, const apcc::workloads::Workload*> programs_;
  std::map<std::pair<std::string, CodecKind>,
           std::unique_ptr<apcc::core::CodeCompressionSystem>>
      systems_;
  std::map<std::tuple<std::string, CodecKind, unsigned>,
           std::unique_ptr<apcc::runtime::FrontierCache>>
      frontiers_;
};

/// The server under test: a Service with the programs registered under
/// their names, behind a net::Server on an ephemeral loopback port whose
/// IO loop runs on its own thread.
class Frontend {
 public:
  Frontend(apcc::serving::ServiceOptions options,
           const std::vector<apcc::workloads::Workload>& programs);
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  apcc::serving::Service& service() { return service_; }

 private:
  apcc::serving::Service service_;
  std::optional<apcc::net::Server> server_;
  std::thread io_;
};

/// One job of a phase. Client::run fills the outcome fields.
struct Job {
  std::size_t key = 0;
  std::int64_t due_ns = 0;  // open loop: offset from the phase start
  std::uint64_t id = 0;     // trace job id
  std::uint64_t seq = 0;    // the session's sequence number for it
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;
  std::string reply;
};

struct Phase {
  bool open_loop = true;
  std::size_t window = 1;        // closed loop: jobs outstanding
  std::int64_t duration_ns = 0;  // closed loop: send for this long
};

struct PhaseStats {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;       // last reply
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;        // wrong, non-ok or unparsable
  std::vector<double> lag_ms;    // open loop: send time - due time
  /// Open loop: (seconds since start, jobs outstanding) at each send.
  std::vector<std::pair<double, double>> backlog;
  std::uint64_t bytes_out = 0;   // record bytes sent
  std::uint64_t bytes_in = 0;    // reply bytes received

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// The load generator: one thread, up to three persistent loopback
/// connections (one session each), nonblocking sockets polled with
/// microsecond timeouts.
class Client {
 public:
  Client(std::uint16_t port, std::size_t connections);

  /// Drive `jobs` (closed loop: the prefix that fits the duration; the
  /// rest is dropped) and check every reply against its key. Throws
  /// when a reply is still missing 60 s after the last send.
  PhaseStats run(const std::vector<Key>& keys, std::vector<Job>& jobs,
                 const Phase& phase);

 private:
  struct Conn {
    apcc::net::Fd fd;
    std::string tx;
    std::string rx;
    std::size_t rx_scan = 0;
    std::vector<std::size_t> inflight;  // job indices, send order
    std::size_t inflight_head = 0;
    std::uint64_t seq = 0;
  };
  bool flush(Conn& conn);
  std::vector<Conn> conns_;
};

/// Check one reply: parses, status ok, echoes the key's client tag and
/// the session sequence number, and its payload serializes
/// byte-for-byte like the key's direct reference.
[[nodiscard]] bool reply_matches(const Key& key, const Job& job);

/// Fill each key's spec (parsed from its record) and direct reference.
void compute_references(std::vector<Key>& keys, Direct& direct,
                        unsigned workers);

/// Cache counters between two Service::cache_stats() snapshots.
struct CacheDelta {
  apcc::serving::ArtifactStats images;
  apcc::serving::ArtifactStats frontiers;
};
[[nodiscard]] CacheDelta cache_delta(const apcc::serving::CacheStats& before,
                                     const apcc::serving::CacheStats& after);
[[nodiscard]] double hit_ratio(const apcc::serving::ArtifactStats& s);

/// Latencies (ms) of `jobs` matching `pick`, from due time (open loop)
/// or send time (closed loop).
template <typename Pick>
[[nodiscard]] std::vector<double> latencies_ms(const std::vector<Job>& jobs,
                                               std::int64_t start_ns,
                                               bool from_due, Pick pick) {
  std::vector<double> out;
  for (const Job& j : jobs) {
    if (j.done_ns < 0 || !pick(j)) continue;
    const std::int64_t from = from_due ? start_ns + j.due_ns : j.sent_ns;
    out.push_back(ns_to_ms(j.done_ns - from));
  }
  return out;
}

/// Least-squares slope (jobs/s) of the outstanding-job count over a
/// phase: how fast its backlog grew.
[[nodiscard]] double backlog_growth_per_s(const PhaseStats& stats);

/// Simulated steps of the completed jobs.
[[nodiscard]] std::uint64_t completed_steps(const std::vector<Key>& keys,
                                            const std::vector<Job>& jobs);

/// The paper's memory-vs-cycles result over the distinct cells of the
/// keys' references: mean peak saving (printed), mean peak memory as a
/// share of the uncompressed image, and geomean slowdown.
void report_paper_metrics(const std::vector<Key>& keys, Report& report);

/// "sent/ok/failed" line for a phase, plus its generator lateness.
void note_phase(const std::string& name, const PhaseStats& stats);

/// Median of `reps` timed calls of `setup` (seconds), keeping the last
/// instance it returns alive in `keep`.
template <typename T, typename Make>
double median_setup_s(int reps, std::unique_ptr<T>& keep, Make make) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    keep.reset();
    const std::int64_t t0 = now_ns();
    keep = make();
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(times);
}

// ------------------------------------------------------- traced run

/// Everything the per-layer probes need about one workload.
struct LayerInputs {
  const std::vector<apcc::workloads::Workload>* programs = nullptr;
  std::vector<Key>* keys = nullptr;
  Direct* direct = nullptr;
  Frontend* frontend = nullptr;
  Client* client = nullptr;
  unsigned workers = 1;
  /// The workload's own timed job stream (for the in-process replay).
  const std::vector<Job>* stream = nullptr;
  /// The traced timed phase: its jobs (for queue wait), start time, and
  /// whether latency runs from due time.
  const std::vector<Job>* timed = nullptr;
  std::int64_t timed_start_ns = 0;
  bool from_due = false;
  /// Campaign sets for the sweep layer: (codec, program names, grid).
  struct CampaignSet {
    CodecKind codec;
    std::vector<std::string> names;
    std::vector<apcc::sweep::SweepTask> grid;
  };
  std::vector<CampaignSet> campaigns;
  /// Cache counters over the traced timed phase.
  CacheDelta cache;
  double replay_seconds = 1.0;
};

/// Run every per-layer probe (net, wire, serving, runtime, compress,
/// sim, sweep) and add the per-layer metrics to `report`. Returns the
/// probe jobs sent over TCP and how many of their replies failed.
PhaseStats run_layer_probes(LayerInputs& in, Report& report);

/// Print each layer's self time over every span recorded so far.
void note_layer_self_times();

}  // namespace apccbench
