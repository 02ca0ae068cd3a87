// campaign-suite: a design-space campaign, closed loop.
//
// One connection keeps one `kind campaign` job outstanding: the 8 suite
// kernels at scale 8, registered under their own names (gsm-like-x8,
// ...), times the 12-cell strategy-k grid -- 96 cells and about 1.86M
// simulated block entries per job on 3 pool workers. The engine does
// almost all the work; the front door and cache do almost none.
#include <memory>

#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace apccbench {
namespace {

using namespace apcc;

constexpr unsigned kWorkers = 3;
constexpr int kScale = 8;

std::vector<workloads::Workload> make_programs() {
  std::vector<workloads::Workload> programs;
  workloads::WorkloadOptions options;
  options.scale = kScale;
  for (const auto kind : workloads::all_workload_kinds()) {
    programs.push_back(
        timed_build([&] { return workloads::make_workload(kind, options); }));
    programs.back().name += "-x" + std::to_string(kScale);
  }
  return programs;
}

std::vector<std::string> names_of(
    const std::vector<workloads::Workload>& programs) {
  std::vector<std::string> names;
  for (const auto& w : programs) names.push_back(w.name);
  return names;
}

struct Rig {
  std::unique_ptr<Frontend> frontend;
  std::unique_ptr<Client> client;
};

Phase closed_phase(std::int64_t duration_ns) {
  Phase phase;
  phase.open_loop = false;
  phase.window = 1;
  phase.duration_ns = duration_ns;
  return phase;
}

/// `count` campaign jobs (there is one key; ids for the trace).
std::vector<Job> make_stream(std::size_t count) {
  std::vector<Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) jobs[i].id = i + 1;
  return jobs;
}

/// Generate and register the programs, start the server, connect, and
/// run one campaign so every artifact is built.
std::unique_ptr<Rig> set_up(const std::vector<Key>& keys, Outcome& outcome) {
  auto rig = std::make_unique<Rig>();
  const auto programs = make_programs();
  serving::ServiceOptions options;
  options.workers = kWorkers;
  rig->frontend = std::make_unique<Frontend>(options, programs);
  rig->client = std::make_unique<Client>(rig->frontend->port(), 1);
  auto warm = make_stream(1);
  outcome.add(rig->client->run(keys, warm, closed_phase(INT64_MAX / 2)));
  return rig;
}

std::vector<double> job_latencies(const std::vector<Job>& jobs,
                                  const PhaseStats& st) {
  return latencies_ms(jobs, st.start_ns, false,
                      [](const Job&) { return true; });
}

}  // namespace

Outcome run_campaign_suite(const Args& args, Report& report) {
  Outcome outcome;
  const auto programs = make_programs();
  std::vector<Key> keys(1);
  keys[0].record = job_record("campaign", names_of(programs),
                              CodecKind::kSharedHuffman, "grid strategy-k\n",
                              "normal", "campaign");
  Direct direct(programs);
  compute_references(keys, direct, kWorkers);
  report_paper_metrics(keys, report);
  // The closed loop sends until the duration ends; this bounds the list.
  auto stream = make_stream(10'000);

  std::unique_ptr<Rig> rig;
  if (!args.trace) {
    const double setup_s =
        median_setup_s(5, rig, [&] { return set_up(keys, outcome); });
    auto jobs = stream;
    const PhaseStats st = rig->client->run(
        keys, jobs, closed_phase(static_cast<std::int64_t>(args.seconds * 1e9)));
    note_phase("campaigns", st);
    outcome.add(st);
    const auto lat = job_latencies(jobs, st);
    const double jobs_per_s = static_cast<double>(st.ok) / st.seconds();
    Report::note("campaign jobs: samples=" + std::to_string(lat.size()));
    // One job class: the batch tail is the job tail, and the highest
    // sustained rate is the closed loop's own rate.
    report_common_e2e(report, setup_s, lat, lat, jobs_per_s, jobs_per_s,
                      static_cast<double>(completed_steps(keys, jobs)) /
                          st.seconds(),
                      outcome);
    return outcome;
  }

  tracer().enabled = true;
  rig = set_up(keys, outcome);
  const auto phase =
      closed_phase(static_cast<std::int64_t>(args.seconds / 4 * 1e9));
  tracer().enabled = false;
  auto untraced = stream;
  const PhaseStats ust = rig->client->run(keys, untraced, phase);
  note_phase("campaigns-untraced", ust);
  outcome.add(ust);
  tracer().enabled = true;
  auto traced = stream;
  LayerInputs in;
  const auto before = rig->frontend->service().cache_stats();
  const PhaseStats tst = rig->client->run(keys, traced, phase);
  const auto after = rig->frontend->service().cache_stats();
  note_phase("campaigns-traced", tst);
  outcome.add(tst);
  in.cache = cache_delta(before, after);
  report_timed_layers(report, tst, in.cache, after,
                      median(job_latencies(untraced, ust)),
                      median(job_latencies(traced, tst)));

  in.programs = &programs;
  in.keys = &keys;
  in.direct = &direct;
  in.frontend = rig->frontend.get();
  in.client = rig->client.get();
  in.workers = kWorkers;
  in.stream = &stream;
  in.timed = &traced;
  in.timed_start_ns = tst.start_ns;
  in.from_due = false;
  in.campaigns.push_back(
      {CodecKind::kSharedHuffman, names_of(programs), keys[0].spec.tasks});
  in.replay_seconds = 0;  // the idle probe already replays this one job
  outcome.add(run_layer_probes(in, report));
  return outcome;
}

}  // namespace apccbench
