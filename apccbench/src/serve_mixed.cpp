// serve-mixed: small jobs from many users, open loop.
//
// Three connections -- `interactive` (normal class, weight 4),
// `standard` (normal, weight 1) and `bulk` (batch class) -- send jobs
// on a seeded Poisson schedule. Normal jobs are `run` jobs on the 8
// suite kernels at scale 1; about 5% of jobs are bulk 12-cell
// `grid strategy-k` sweeps. Every artifact is warm before timing, so
// the cache only hits and the front door's share of each job shows.
// A fixed ladder of rates then finds the highest rate whose
// normal-class p99 stays under the latency limit without a growing
// backlog.
#include <algorithm>
#include <cmath>
#include <memory>

#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace apccbench {
namespace {

using namespace apcc;

constexpr unsigned kWorkers = 2;
constexpr double kNominalRate = 350.0;  // jobs/s
constexpr double kLatencyLimitMs = 50.0;  // normal-class p99
/// Generator lateness (p99) above this share of the limit voids a phase.
constexpr double kMaxLagShare = 0.2;
constexpr double kLadder[] = {1000, 1120, 1250, 1400, 1580, 1780, 2000, 2240, 2500};

enum Class : std::size_t { kInteractive = 0, kStandard = 1, kBulk = 2 };
const char* const kClients[] = {"interactive", "standard", "bulk"};

std::vector<workloads::Workload> make_programs() {
  std::vector<workloads::Workload> programs;
  for (const auto kind : workloads::all_workload_kinds()) {
    programs.push_back(timed_build([&] { return workloads::make_workload(kind); }));
  }
  return programs;
}

/// Key index = kernel * 3 + class.
std::vector<Key> make_keys(const std::vector<workloads::Workload>& programs) {
  std::vector<Key> keys;
  for (const auto& w : programs) {
    for (const std::size_t cls : {kInteractive, kStandard, kBulk}) {
      Key key;
      key.conn = cls;
      key.normal = cls != kBulk;
      key.record =
          key.normal
              ? job_record("run", {w.name}, CodecKind::kSharedHuffman, "",
                           "normal", kClients[cls])
              : job_record("sweep", {w.name}, CodecKind::kSharedHuffman,
                           "grid strategy-k\n", "batch", kClients[cls]);
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

/// The job mix, dealt from a deck per block of 160 jobs: each kernel
/// gets one bulk sweep (5% of jobs) and 19 runs, the runs alternating
/// between the two normal-class clients. The seed shuffles each deck and
/// draws the Poisson due times, so every seed offers the same mix and
/// rate.
std::vector<Job> make_stream(std::uint64_t seed, double rate,
                             std::size_t count, std::size_t kernels) {
  constexpr std::size_t kRunsPerKernel = 19;
  std::vector<std::size_t> deck;
  for (std::size_t k = 0; k < kernels; ++k) {
    deck.push_back(k * 3 + kBulk);
    for (std::size_t r = 0; r < kRunsPerKernel; ++r) {
      deck.push_back(k * 3 + ((r + k) % 2 == 0 ? kInteractive : kStandard));
    }
  }
  const auto due = poisson_schedule(seed, rate, count);
  std::mt19937_64 rng(sub_seed(seed, 7));
  std::vector<Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = i % deck.size();
    if (slot == 0) {  // reshuffle (Fisher-Yates) at each block start
      for (std::size_t n = deck.size(); n > 1; --n) {
        std::swap(deck[n - 1],
                  deck[static_cast<std::size_t>(unit(rng) *
                                                static_cast<double>(n))]);
      }
    }
    jobs[i].key = deck[slot];
    jobs[i].due_ns = due[i];
    jobs[i].id = i + 1;
  }
  return jobs;
}

struct Rig {
  std::unique_ptr<Frontend> frontend;
  std::unique_ptr<Client> client;
};

serving::ServiceOptions service_options() {
  serving::ServiceOptions options;
  options.workers = kWorkers;
  options.client_weights = {{kClients[kInteractive], 4},
                            {kClients[kStandard], 1},
                            {kClients[kBulk], 1}};
  return options;
}

/// Generate and register the programs, start the server, connect, and
/// send every key once so all artifacts are built.
std::unique_ptr<Rig> set_up(const std::vector<Key>& keys, Outcome& outcome) {
  auto rig = std::make_unique<Rig>();
  const auto programs = make_programs();
  rig->frontend = std::make_unique<Frontend>(service_options(), programs);
  rig->client = std::make_unique<Client>(rig->frontend->port(), 3);
  std::vector<Job> warm(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) warm[i].key = i;
  Phase phase;
  phase.open_loop = false;
  phase.window = 3;
  phase.duration_ns = INT64_MAX / 2;
  outcome.add(rig->client->run(keys, warm, phase));
  return rig;
}

/// How late (p99) the generator ran in a phase, against its allowance.
bool generator_late(const PhaseStats& st) {
  return percentile(st.lag_ms, 99.0) > kMaxLagShare * kLatencyLimitMs;
}

/// One open-loop phase.
PhaseStats open_phase(Rig& rig, const std::vector<Key>& keys,
                      std::vector<Job>& jobs, const std::string& name) {
  Phase phase;
  phase.open_loop = true;
  PhaseStats st = rig.client->run(keys, jobs, phase);
  note_phase(name, st);
  return st;
}

/// The phases whose latencies are reported must keep to their schedule.
void require_on_time(const PhaseStats& st, const std::string& name) {
  if (generator_late(st)) {
    throw InvalidRun("serve-mixed: generator lateness p99 " +
                     format_double(percentile(st.lag_ms, 99.0)) +
                     " ms in phase " + name + " exceeds " +
                     format_double(kMaxLagShare * 100) + "% of the " +
                     format_double(kLatencyLimitMs) + " ms limit");
  }
}

std::vector<double> normal_latencies(const std::vector<Key>& keys,
                                     const std::vector<Job>& jobs,
                                     const PhaseStats& st) {
  return latencies_ms(jobs, st.start_ns, true,
                      [&](const Job& j) { return keys[j.key].normal; });
}

/// One ladder step. Its effective latency is the larger of the
/// normal-class p99 and the wait a growing backlog adds by the step's
/// end (backlog growth x duration / rate), so a step fails on either.
struct Step {
  double rate = 0;
  double effective_ms = 0;
  bool pass = false;
};

Step ladder_step(double rate, const std::vector<double>& normal_ms,
                 const PhaseStats& st, double step_s) {
  const double p99 = percentile(normal_ms, 99.0);
  const double growth_ms =
      std::max(0.0, backlog_growth_per_s(st)) * step_s / rate * 1e3;
  const double effective = std::max(p99, growth_ms);
  // A step the generator could not keep to did not offer its rate: the
  // host cannot both generate and serve it, so it fails.
  const bool late = generator_late(st);
  const bool pass = effective <= kLatencyLimitMs && st.failed == 0 && !late;
  Report::note("ladder rate " + format_double(rate) + ": normal p99 " +
               format_double(p99) + " ms over " +
               std::to_string(normal_ms.size()) + " samples, backlog wait " +
               format_double(growth_ms) + " ms" +
               (late ? ", generator late" : "") +
               (pass ? " -> pass" : " -> fail"));
  return {rate, effective, pass};
}

/// Highest sustained rate: interpolate (in log effective latency)
/// between the last passing step and the first failing one.
double max_rate(const std::vector<Step>& steps) {
  std::size_t first_fail = 0;
  while (first_fail < steps.size() && steps[first_fail].pass) ++first_fail;
  if (first_fail == steps.size()) return steps.back().rate;
  const Step& b = steps[first_fail];
  if (first_fail == 0) return b.rate * kLatencyLimitMs / b.effective_ms;
  const Step& a = steps[first_fail - 1];
  if (b.effective_ms <= kLatencyLimitMs) return a.rate;  // late or failed
  const double t = (std::log(kLatencyLimitMs) - std::log(a.effective_ms)) /
                   (std::log(b.effective_ms) - std::log(a.effective_ms));
  return a.rate + (b.rate - a.rate) * std::clamp(t, 0.0, 1.0);
}

}  // namespace

Outcome run_serve_mixed(const Args& args, Report& report) {
  Outcome outcome;
  const auto programs = make_programs();
  auto keys = make_keys(programs);
  Direct direct(programs);
  compute_references(keys, direct, kWorkers);
  report_paper_metrics(keys, report);

  const double nominal_s = args.trace ? args.seconds / 4 : args.seconds / 2;
  const auto nominal_jobs = static_cast<std::size_t>(kNominalRate * nominal_s);
  auto stream = make_stream(sub_seed(args.seed, 1), kNominalRate,
                            nominal_jobs, programs.size());

  std::unique_ptr<Rig> rig;
  if (!args.trace) {
    const double setup_s =
        median_setup_s(5, rig, [&] { return set_up(keys, outcome); });
    auto jobs = stream;
    const PhaseStats st = open_phase(*rig, keys, jobs, "nominal");
    require_on_time(st, "nominal");
    outcome.add(st);
    const auto normal = normal_latencies(keys, jobs, st);
    const auto bulk = latencies_ms(jobs, st.start_ns, true, [&](const Job& j) {
      return !keys[j.key].normal;
    });
    Report::note("nominal rate " + format_double(kNominalRate) +
                 " jobs/s: normal samples=" + std::to_string(normal.size()) +
                 " bulk samples=" + std::to_string(bulk.size()));

    // The ladder: nominal phase first, then fixed rates, each step as
    // long as a share of the run; stop at the first failing step.
    const double step_s = args.seconds / 12;
    std::vector<Step> steps{ladder_step(kNominalRate, normal, st, nominal_s)};
    for (std::size_t i = 0; i < std::size(kLadder) && steps.back().pass; ++i) {
      const double rate = kLadder[i];
      auto step_jobs = make_stream(sub_seed(args.seed, 100 + i), rate,
                                   static_cast<std::size_t>(rate * step_s),
                                   programs.size());
      const PhaseStats sst = open_phase(
          *rig, keys, step_jobs, "ladder-" + format_double(rate));
      outcome.add(sst);
      steps.push_back(ladder_step(
          rate, normal_latencies(keys, step_jobs, sst), sst, step_s));
    }
    report_common_e2e(report, setup_s, normal, bulk, max_rate(steps),
                      static_cast<double>(st.ok) / st.seconds(),
                      static_cast<double>(completed_steps(keys, jobs)) /
                          st.seconds(),
                      outcome);
    return outcome;
  }

  // Traced run: the nominal phase untraced, then traced, then the
  // per-layer probes.
  tracer().enabled = true;
  rig = set_up(keys, outcome);
  tracer().enabled = false;
  auto untraced = stream;
  const PhaseStats ust = open_phase(*rig, keys, untraced, "nominal-untraced");
  require_on_time(ust, "nominal-untraced");
  outcome.add(ust);
  tracer().enabled = true;
  auto traced = stream;
  LayerInputs in;
  const auto before = rig->frontend->service().cache_stats();
  const PhaseStats tst = open_phase(*rig, keys, traced, "nominal-traced");
  require_on_time(tst, "nominal-traced");
  const auto after = rig->frontend->service().cache_stats();
  outcome.add(tst);
  in.cache = cache_delta(before, after);
  report_timed_layers(report, tst, in.cache, after,
                      median(normal_latencies(keys, untraced, ust)),
                      median(normal_latencies(keys, traced, tst)));

  in.programs = &programs;
  in.keys = &keys;
  in.direct = &direct;
  in.frontend = rig->frontend.get();
  in.client = rig->client.get();
  in.workers = kWorkers;
  in.stream = &stream;
  in.timed = &traced;
  in.timed_start_ns = tst.start_ns;
  in.from_due = true;
  std::vector<std::string> names;
  for (const auto& w : programs) names.push_back(w.name);
  in.campaigns.push_back({CodecKind::kSharedHuffman, names,
                          keys[kBulk].spec.tasks});
  outcome.add(run_layer_probes(in, report));
  return outcome;
}

}  // namespace apccbench
