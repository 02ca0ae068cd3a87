#include "harness.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <set>
#include <stdexcept>

#include "runtime/block_image.hpp"
#include "sim/engine.hpp"

namespace apccbench {

using namespace apcc;

std::string job_record(const char* kind,
                       const std::vector<std::string>& workload_names,
                       CodecKind codec, const std::string& grid_or_tasks,
                       const char* priority, const std::string& client) {
  std::string out = serving::wire::kJobHeader + "\n";
  out += std::string("kind ") + kind + "\n";
  out += "client " + serving::wire::escape_field(client) + "\n";
  out += std::string("priority ") + priority + "\n";
  for (const auto& name : workload_names) {
    out += "workload " + serving::wire::escape_field(name) + "\n";
  }
  out += std::string("codec ") + compress::codec_kind_name(codec) + "\n";
  return out + grid_or_tasks + "end\n";
}

std::vector<const sim::RunResult*> result_cells(
    const serving::JobResult& result) {
  std::vector<const sim::RunResult*> cells;
  switch (result.kind) {
    case serving::JobKind::kRun:
      cells.push_back(&result.run);
      break;
    case serving::JobKind::kSweep:
      for (const auto& o : result.sweep) cells.push_back(&o.result);
      break;
    case serving::JobKind::kCampaign:
      for (const auto& group : result.campaign) {
        for (const auto& o : group.outcomes) cells.push_back(&o.result);
      }
      break;
  }
  return cells;
}

// ------------------------------------------------------------ direct

Direct::Direct(const std::vector<workloads::Workload>& programs) {
  for (const auto& w : programs) programs_[w.name] = &w;
}

const core::CodeCompressionSystem& Direct::system(const std::string& name,
                                                  CodecKind codec) {
  auto& slot = systems_[{name, codec}];
  if (!slot) {
    core::SystemConfig config;
    config.codec = codec;
    slot = std::make_unique<core::CodeCompressionSystem>(
        core::CodeCompressionSystem::from_workload(*programs_.at(name),
                                                   config));
  }
  return *slot;
}

const runtime::FrontierCache& Direct::frontiers(const std::string& name,
                                                CodecKind codec, unsigned k) {
  auto& slot = frontiers_[{name, codec, k}];
  if (!slot) {
    slot = std::make_unique<runtime::FrontierCache>(system(name, codec).cfg(),
                                                    k);
    slot->materialize();
  }
  return *slot;
}

// The records carry no policy line, so a job's base config is the
// default plus its codec -- exactly what system() builds.
serving::JobResult Direct::reference(const serving::JobSpec& spec,
                                     unsigned workers) {
  serving::JobResult r;
  r.kind = spec.kind;
  const CodecKind codec = spec.config.codec;
  switch (spec.kind) {
    case serving::JobKind::kRun:
      r.run = system(spec.workloads.at(0), codec).run();
      break;
    case serving::JobKind::kSweep: {
      sweep::SweepOptions options;
      options.workers = workers;
      r.sweep = system(spec.workloads.at(0), codec)
                    .run_sweep(spec.tasks, options);
      break;
    }
    case serving::JobKind::kCampaign: {
      std::vector<core::CampaignEntry> entries;
      for (const auto& name : spec.workloads) {
        entries.push_back({name, &system(name, codec)});
      }
      sweep::CampaignOptions options;
      options.workers = workers;
      r.campaign = core::run_campaign(entries, spec.tasks, options);
      break;
    }
  }
  return r;
}

std::vector<std::int64_t> Direct::run_cells(const serving::JobSpec& spec,
                                            std::uint64_t job,
                                            std::vector<sim::RunResult>* out) {
  std::vector<std::pair<std::string, sim::EngineConfig>> cells;
  if (spec.kind == serving::JobKind::kRun) {
    cells.emplace_back(spec.workloads.at(0), core::engine_config(spec.config));
  } else {
    for (const auto& name : spec.workloads) {
      for (const auto& task : spec.tasks) cells.emplace_back(name, task.config);
    }
  }
  std::vector<std::int64_t> times;
  for (auto& [name, config] : cells) {
    const auto& sys = system(name, spec.config.codec);
    config.shared_frontiers =
        &frontiers(name, spec.config.codec, config.policy.predecompress_k);
    const ScopedSpan span("sim.engine", job);
    const std::int64_t t0 = now_ns();
    sim::Engine engine(sys.cfg(), sys.image(), config);
    sim::RunResult result = engine.run(sys.default_trace());
    times.push_back(now_ns() - t0);
    if (out != nullptr) out->push_back(std::move(result));
  }
  return times;
}

// ---------------------------------------------------------- frontend

Frontend::Frontend(serving::ServiceOptions options,
                   const std::vector<workloads::Workload>& programs)
    : service_(std::move(options)) {
  for (const auto& w : programs) (void)service_.register_workload(w);
  server_.emplace(service_, net::ServerOptions{});
  io_ = std::thread([this] { server_->run(); });
}

Frontend::~Frontend() {
  server_->request_stop();
  io_.join();
}

// ------------------------------------------------------------ client

Client::Client(std::uint16_t port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    Conn conn;
    conn.fd = net::connect_tcp("127.0.0.1", port);
    const int one = 1;
    ::setsockopt(conn.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    net::set_nonblocking(conn.fd.get());
    conns_.push_back(std::move(conn));
  }
}

bool Client::flush(Conn& conn) {
  std::size_t sent = 0;
  while (sent < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.tx.data() + sent,
                             conn.tx.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  conn.tx.erase(0, sent);
  return true;
}

PhaseStats Client::run(const std::vector<Key>& keys, std::vector<Job>& jobs,
                       const Phase& phase) {
  constexpr std::int64_t kIdleWaitNs = 50'000'000;
  constexpr std::int64_t kDrainNs = 60'000'000'000;
  PhaseStats st;
  for (auto& c : conns_) {
    c.inflight.clear();
    c.inflight_head = 0;
  }
  Tracer& tr = tracer();
  const std::int64_t t0 = now_ns();
  st.start_ns = t0;
  const std::int64_t stop_send =
      phase.open_loop ? INT64_MAX : t0 + phase.duration_ns;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::int64_t drain_deadline = -1;
  std::int64_t last_done = t0;
  std::vector<pollfd> fds(conns_.size());
  std::vector<char> buf(1 << 16);

  for (;;) {
    std::int64_t now = now_ns();
    while (next < jobs.size()) {
      Job& j = jobs[next];
      if (phase.open_loop ? t0 + j.due_ns > now
                          : outstanding >= phase.window || now >= stop_send) {
        break;
      }
      const Key& key = keys[j.key];
      Conn& c = conns_[key.conn];
      c.tx += key.record;
      st.bytes_out += key.record.size();
      j.seq = ++c.seq;
      j.sent_ns = now;
      j.done_ns = -1;
      j.reply.clear();
      if (phase.open_loop) {
        st.lag_ms.push_back(ns_to_ms(now - (t0 + j.due_ns)));
        st.backlog.emplace_back(static_cast<double>(now - t0) / 1e9,
                                static_cast<double>(outstanding + 1));
      }
      c.inflight.push_back(next);
      ++next;
      ++outstanding;
      ++st.sent;
      if (!flush(c)) throw std::runtime_error("load generator: send failed");
      now = now_ns();
    }
    const bool sending_done = next == jobs.size() || now >= stop_send;
    if (sending_done) {
      if (drain_deadline < 0) drain_deadline = now + kDrainNs;
      if (outstanding == 0 || now >= drain_deadline) break;
    }
    std::int64_t wait_ns = kIdleWaitNs;
    if (!sending_done && phase.open_loop) {
      wait_ns = t0 + jobs[next].due_ns - now;
    } else if (sending_done) {
      wait_ns = std::min(wait_ns, drain_deadline - now);
    }
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd.get();
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].tx.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("load generator: poll failed");
    }
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if ((fds[i].revents & POLLOUT) != 0 && !flush(c)) {
        throw std::runtime_error("load generator: send failed");
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd.get(), buf.data(), buf.size(), 0);
        if (n > 0) {
          c.rx.append(buf.data(), static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("load generator: server closed a session");
      }
      const std::int64_t done = now_ns();
      std::size_t start = 0;
      for (std::size_t pos = c.rx.find("\nend\n", c.rx_scan);
           pos != std::string::npos; pos = c.rx.find("\nend\n", c.rx_scan)) {
        const std::size_t end = pos + 5;
        if (c.inflight_head >= c.inflight.size()) {
          throw std::runtime_error("load generator: unexpected reply");
        }
        Job& j = jobs[c.inflight[c.inflight_head++]];
        j.reply.assign(c.rx, start, end - start);
        j.done_ns = done;
        st.bytes_in += end - start;
        tr.add("loadgen.job", j.sent_ns, done, j.id);
        start = end;
        c.rx_scan = end;
        --outstanding;
        last_done = done;
      }
      c.rx.erase(0, start);
      c.rx_scan = c.rx.size() >= 4 ? c.rx.size() - 4 : 0;
    }
  }
  st.end_ns = last_done;
  if (outstanding != 0) {
    throw std::runtime_error("load generator: " + std::to_string(outstanding) +
                             " replies missing after the drain deadline");
  }
  jobs.resize(next);
  for (const Job& j : jobs) {
    if (reply_matches(keys[j.key], j)) {
      ++st.ok;
    } else {
      ++st.failed;
    }
  }
  return st;
}

bool reply_matches(const Key& key, const Job& job) {
  if (job.reply.empty()) return false;
  const ScopedSpan span("wire.parse_result", job.id);
  try {
    serving::wire::ResultRecord record = serving::wire::parse_result(job.reply);
    if (!record.ok() || record.client != key.spec.client ||
        record.job != job.seq) {
      return false;
    }
    record.job = 0;
    record.client.clear();
    return serving::wire::serialize_result(record) == key.reference;
  } catch (const std::exception&) {
    return false;
  }
}

void compute_references(std::vector<Key>& keys, Direct& direct,
                        unsigned workers) {
  std::map<std::string, const Key*> done;  // canonical spec -> first key
  for (Key& key : keys) {
    key.spec = serving::wire::parse_job(key.record);
    serving::JobSpec canonical = key.spec;
    canonical.client.clear();
    canonical.priority = sweep::Priority::kNormal;
    const std::string id = serving::wire::serialize_job(canonical);
    if (const auto it = done.find(id); it != done.end()) {
      key.result = it->second->result;
      key.reference = it->second->reference;
      key.block_entries = it->second->block_entries;
      continue;
    }
    key.result = direct.reference(key.spec, workers);
    serving::wire::ResultRecord record;
    record.result = key.result;
    key.reference = serving::wire::serialize_result(record);
    for (const auto* cell : result_cells(key.result)) {
      key.block_entries += cell->block_entries;
    }
    done[id] = &key;
  }
}

CacheDelta cache_delta(const serving::CacheStats& before,
                       const serving::CacheStats& after) {
  const auto diff = [](const serving::ArtifactStats& a,
                       const serving::ArtifactStats& b) {
    serving::ArtifactStats d = b;
    d.built -= a.built;
    d.borrows -= a.borrows;
    d.hits -= a.hits;
    d.misses -= a.misses;
    d.rebuilds -= a.rebuilds;
    d.evictions -= a.evictions;
    d.evicted_bytes -= a.evicted_bytes;
    return d;
  };
  return {diff(before.images, after.images),
          diff(before.frontiers, after.frontiers)};
}

double hit_ratio(const serving::ArtifactStats& s) {
  const std::size_t lookups = s.hits + s.misses;
  return lookups == 0 ? 1.0
                      : static_cast<double>(s.hits) /
                            static_cast<double>(lookups);
}

double backlog_growth_per_s(const PhaseStats& stats) {
  const auto& pts = stats.backlog;
  if (pts.size() < 2) return 0.0;
  double mx = 0;
  double my = 0;
  for (const auto& [x, y] : pts) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(pts.size());
  my /= static_cast<double>(pts.size());
  double sxy = 0;
  double sxx = 0;
  for (const auto& [x, y] : pts) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return sxx == 0 ? 0.0 : sxy / sxx;
}

std::uint64_t completed_steps(const std::vector<Key>& keys,
                              const std::vector<Job>& jobs) {
  std::uint64_t steps = 0;
  for (const Job& j : jobs) {
    if (j.done_ns >= 0) steps += keys[j.key].block_entries;
  }
  return steps;
}

void report_paper_metrics(const std::vector<Key>& keys, Report& report) {
  std::set<std::string> seen;
  double saving = 0.0;
  double log_slowdown = 0.0;
  std::size_t cells = 0;
  for (const Key& key : keys) {
    if (!seen.insert(key.reference).second) continue;
    for (const auto* cell : result_cells(key.result)) {
      saving += cell->peak_saving();
      log_slowdown += std::log(cell->slowdown());
      ++cells;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(cells, 1));
  Report::note("paper metrics over " + std::to_string(cells) +
               " distinct simulated cells");
  // The saving is negative on these grids (pre-all keeps every block
  // decompressed), so the gated figure is its positive complement: peak
  // code memory as a share of the uncompressed image.
  Report::note("sim_peak_saving_pct = " + format_double(100.0 * saving / n) +
               " %");
  report.add("sim_peak_memory_pct", 100.0 - 100.0 * saving / n, "%");
  report.add("sim_slowdown", std::exp(log_slowdown / n), "x");
}

void note_phase(const std::string& name, const PhaseStats& stats) {
  std::string line = "phase " + name + ": sent=" +
                     std::to_string(stats.sent) +
                     " ok=" + std::to_string(stats.ok) +
                     " failed=" + std::to_string(stats.failed) +
                     " seconds=" + format_double(stats.seconds());
  if (!stats.lag_ms.empty()) {
    line += " lag_p99_ms=" + format_double(percentile(stats.lag_ms, 99.0)) +
            " lag_max_ms=" + format_double(percentile(stats.lag_ms, 100.0));
  }
  Report::note(line);
}

}  // namespace apccbench
