// TCP front-door throughput and latency under mixed-tenant QoS.
//
// These benches drive the real thing end to end: a net::Server on an
// ephemeral loopback port, its IO loop on a helper thread, plain
// blocking client sockets speaking the stdin wire protocol. Each
// tenant is one connection pipelining `kind run` records; per-job
// latency is stamped at send and at the arrival of the job's result
// record (per-session ordering makes the i-th `end` the i-th job).
//
// bm_serve_mixed_qos is the acceptance series for BENCH_serve.json:
// three tenants -- latency-tier (normal, weight 4), standard (normal,
// weight 2), bulk (batch, weight 1) -- submit concurrent backlogs, so
// the p50/p99 counters price exactly what the scheduler decides:
// weighted fair share splits the normal class 4:2, the strict class
// order keeps bulk behind both. The fairness differential tests pin
// that none of this changes any outcome; what it changes is who waits,
// and this series measures the waiting.
//
// bm_serve_rtt is the round-trip series: one connection sends a burst
// of 1 or 2 records and waits for every result before the next burst,
// so its p50_us/p99_us counters are send-to-result time with nothing
// queued ahead -- what the pipelined series above cannot show.
//
// Caveat (docs/PERFORMANCE.md): jobs/sec here is the engine rate at the
// pool's width plus socket + scheduling overhead, and shared CI runners
// make it noisy. The tenant-relative latency split is the signal.
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "support/table.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace apcc;
using clock_type = std::chrono::steady_clock;

/// One tenant's load: a connection pipelining `jobs` run records under
/// `client` / `priority`. An empty client tag inherits the session's.
struct Tenant {
  std::string client;
  std::string priority;
  int jobs = 0;
};

std::string job_record(const Tenant& tenant) {
  std::string out = serving::wire::kJobHeader + "\nkind run\n";
  if (!tenant.client.empty()) out += "client " + tenant.client + "\n";
  out += "priority " + tenant.priority + "\nworkload crc-like\nend\n";
  return out;
}

void send_all(const net::Fd& fd, std::string_view text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd.get(), text.data() + sent, text.size() - sent, 0);
    if (n <= 0) throw std::runtime_error("bench_serve: send failed");
    sent += static_cast<std::size_t>(n);
  }
}

/// A Service with the CRC-like suite workload plus a net::Server on an
/// ephemeral loopback port, IO loop on a helper thread (the
/// tests/net/server_test.cpp fixture, minus gtest).
struct ServeFixture {
  explicit ServeFixture(serving::ServiceOptions options)
      : service(std::move(options)) {
    (void)service.register_workload(
        workloads::make_workload(workloads::WorkloadKind::kCrcLike));
    server.emplace(service, net::ServerOptions{});
    io = std::thread([this] { server->run(); });
  }

  ~ServeFixture() {
    server->request_stop();
    io.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }

  serving::Service service;
  std::optional<net::Server> server;
  std::thread io;
};

/// One warm-up round trip so the timed jobs all borrow cached
/// artifacts (the cold build is bm_service_cold_run's subject).
void prime(std::uint16_t port) {
  const net::Fd fd = net::connect_tcp("127.0.0.1", port);
  send_all(fd, job_record(Tenant{"", "normal", 1}));
  ::shutdown(fd.get(), SHUT_WR);
  char chunk[4096];
  while (::recv(fd.get(), chunk, sizeof(chunk), 0) > 0) {
  }
}

/// Pipeline the tenant's records and stamp each job at send and at the
/// arrival of its result record's terminating `end` line. Returns the
/// per-job latencies in milliseconds, submission order.
std::vector<double> drive_tenant(std::uint16_t port, const Tenant& tenant) {
  const net::Fd fd = net::connect_tcp("127.0.0.1", port);
  const std::string record = job_record(tenant);
  const int jobs = tenant.jobs;
  std::vector<clock_type::time_point> got(jobs);
  int seen = 0;
  std::thread reader([&] {
    std::string buffer;
    std::size_t scan = 0;
    char chunk[4096];
    while (seen < jobs) {
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      for (std::size_t pos = buffer.find("\nend\n", scan);
           pos != std::string::npos && seen < jobs;
           pos = buffer.find("\nend\n", scan)) {
        got[seen++] = clock_type::now();
        scan = pos + 5;
      }
    }
  });
  std::vector<clock_type::time_point> sent(jobs);
  for (int i = 0; i < jobs; ++i) {
    send_all(fd, record);
    sent[i] = clock_type::now();
  }
  ::shutdown(fd.get(), SHUT_WR);
  reader.join();
  std::vector<double> latencies_ms(static_cast<std::size_t>(seen));
  for (int i = 0; i < seen; ++i) {
    latencies_ms[static_cast<std::size_t>(i)] =
        std::chrono::duration<double, std::milli>(got[i] - sent[i]).count();
  }
  return latencies_ms;
}

/// Nearest-rank percentile (p in [0,100]) over a copy.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The mixed-QoS tenant set: two weighted tenants inside the normal
/// class plus a batch-class backlog twice their size.
std::vector<Tenant> mixed_tenants() {
  const int scale = bench::quick_mode() ? 1 : 2;
  return {
      {"latency-tier", "normal", 6 * scale},
      {"standard", "normal", 6 * scale},
      {"bulk", "batch", 12 * scale},
  };
}

serving::ServiceOptions mixed_options() {
  serving::ServiceOptions options;
  options.workers = 2;
  options.client_weights = {
      {"latency-tier", 4}, {"standard", 2}, {"bulk", 1}};
  return options;
}

/// Drive every tenant concurrently (one thread per connection) and
/// return the per-tenant latency vectors, tenant order preserved.
std::vector<std::vector<double>> drive_all(
    std::uint16_t port, const std::vector<Tenant>& tenants) {
  std::vector<std::vector<double>> latencies(tenants.size());
  std::vector<std::thread> threads;
  threads.reserve(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back(
        [&, i] { latencies[i] = drive_tenant(port, tenants[i]); });
  }
  for (auto& thread : threads) thread.join();
  return latencies;
}

void print_tables() {
  bench::print_header(
      "TCP serve under mixed QoS",
      "three weighted tenants pipeline concurrent backlogs over\n"
      "loopback; fair share vs FIFO changes who waits, never what\n"
      "any job returns");
  TextTable table;
  table.row()
      .cell("scheduler")
      .cell("tenant")
      .cell("class/weight")
      .cell("jobs")
      .cell("p50 ms")
      .cell("p99 ms");
  const char* kShares[] = {"4", "2", "1"};
  for (const bool fair : {true, false}) {
    serving::ServiceOptions options = mixed_options();
    options.fair_share = fair;
    ServeFixture fx(std::move(options));
    prime(fx.port());
    const auto tenants = mixed_tenants();
    const auto latencies = drive_all(fx.port(), tenants);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      table.row()
          .cell(fair ? "fair share" : "fifo")
          .cell(tenants[i].client)
          .cell(tenants[i].priority + "/" + kShares[i])
          .cell(std::uint64_t{static_cast<std::uint64_t>(tenants[i].jobs)})
          .cell(percentile(latencies[i], 50.0), 2)
          .cell(percentile(latencies[i], 99.0), 2);
    }
  }
  std::cout << table.render()
            << "(every tenant pipelines its whole backlog at t=0, so a\n"
               "job's latency is queueing + its engine run; fair share\n"
               "splits the normal class 4:2 toward latency-tier, FIFO\n"
               "serves the same class in arrival order)\n\n";
}

void bm_serve_tcp_sustained(benchmark::State& state) {
  // One session, one tenant: the front door's sustained pipelined
  // throughput with warm artifacts -- socket framing + submission +
  // in-order write-back on top of the engine rate.
  serving::ServiceOptions options;
  options.workers = 2;
  ServeFixture fx(std::move(options));
  prime(fx.port());
  const int jobs = bench::quick_mode() ? 8 : 32;
  std::uint64_t total = 0;
  std::vector<double> latencies;
  for (auto _ : state) {
    auto batch = drive_tenant(fx.port(), Tenant{"", "normal", jobs});
    total += batch.size();
    latencies.insert(latencies.end(), batch.begin(), batch.end());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = percentile(latencies, 50.0);
  state.counters["p99_ms"] = percentile(latencies, 99.0);
  state.SetLabel("single session, pipelined run jobs, warm artifacts");
}
// UseRealTime: the driving thread spends the iteration blocked on its
// client threads, so wall clock (not this thread's cpu time) is what
// the jobs_per_sec rate must divide by.
BENCHMARK(bm_serve_tcp_sustained)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void bm_serve_mixed_qos(benchmark::State& state) {
  // The acceptance series: sustained jobs/sec and p50/p99 latency with
  // three tenants under weighted fair share + strict classes. The
  // per-tenant p99 counters are the QoS split itself: latency-tier
  // (weight 4) ahead of standard (weight 2) inside the normal class,
  // bulk's batch class behind both.
  ServeFixture fx(mixed_options());
  prime(fx.port());
  const auto tenants = mixed_tenants();
  std::uint64_t total = 0;
  std::vector<double> all;
  std::vector<std::vector<double>> by_tenant(tenants.size());
  for (auto _ : state) {
    const auto latencies = drive_all(fx.port(), tenants);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      total += latencies[i].size();
      all.insert(all.end(), latencies[i].begin(), latencies[i].end());
      by_tenant[i].insert(by_tenant[i].end(), latencies[i].begin(),
                          latencies[i].end());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = percentile(all, 50.0);
  state.counters["p99_ms"] = percentile(all, 99.0);
  state.counters["latency_tier_p99_ms"] = percentile(by_tenant[0], 99.0);
  state.counters["standard_p99_ms"] = percentile(by_tenant[1], 99.0);
  state.counters["bulk_p99_ms"] = percentile(by_tenant[2], 99.0);
  state.SetLabel(
      "3 tenants: normal/w4 + normal/w2 + batch/w1, concurrent backlogs");
}
BENCHMARK(bm_serve_mixed_qos)->UseRealTime()->Unit(benchmark::kMillisecond);

void bm_serve_rtt(benchmark::State& state) {
  // The round trip is client send, framing, submission, a warm engine
  // run, and write-back. At depth 1 each result leaves with nothing
  // unacknowledged ahead of it; at depth 2 the second result follows
  // the first on the same socket, which is where a send-side hold
  // (Nagle's algorithm waiting for the first result's ACK) shows.
  const auto depth = static_cast<std::size_t>(state.range(0));
  serving::ServiceOptions options;
  options.workers = 2;
  ServeFixture fx(std::move(options));
  prime(fx.port());
  const net::Fd fd = net::connect_tcp("127.0.0.1", fx.port());
  std::string burst;
  for (std::size_t i = 0; i < depth; ++i) {
    burst += job_record(Tenant{"", "normal", 1});
  }
  std::vector<double> rtt_us;
  std::string reply;
  char chunk[4096];
  for (auto _ : state) {
    const auto sent = clock_type::now();
    send_all(fd, burst);
    reply.clear();
    std::size_t scan = 0;
    for (std::size_t seen = 0; seen < depth;) {
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("bench_serve: recv failed");
      reply.append(chunk, static_cast<std::size_t>(n));
      const auto now = clock_type::now();
      for (std::size_t pos = reply.find("\nend\n", scan);
           pos != std::string::npos; pos = reply.find("\nend\n", scan)) {
        rtt_us.push_back(
            std::chrono::duration<double, std::micro>(now - sent).count());
        ++seen;
        scan = pos + 5;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rtt_us.size()));
  state.counters["p50_us"] = percentile(rtt_us, 50.0);
  state.counters["p99_us"] = percentile(rtt_us, 99.0);
  state.SetLabel("single session, " + std::to_string(depth) +
                 " run job(s) per burst, warm artifacts");
}
BENCHMARK(bm_serve_rtt)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

APCC_BENCH_MAIN(print_tables)
