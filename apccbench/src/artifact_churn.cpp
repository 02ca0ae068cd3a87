// artifact-churn: a budgeted artifact cache under a skewed key stream,
// closed loop.
//
// One connection keeps two one-cell jobs outstanding. Their keys are
// Zipf-skewed over 6 random programs of about 1k blocks x 4 codecs x
// predecompress_k 1-4 (96 keys, 24 images and 24 frontier sets). The
// cache's shared ceiling (CacheBudget::total_bytes) is half of the
// working set, measured during set-up, so compression (codec training
// and encoding), frontier materialization and eviction run beside
// every read.
#include <memory>

#include "workloads.hpp"
#include "workloads/random_program.hpp"

namespace apccbench {
namespace {

using namespace apcc;

constexpr unsigned kWorkers = 2;
constexpr std::size_t kWindow = 2;
constexpr std::size_t kPrograms = 6;
constexpr CodecKind kCodecs[] = {CodecKind::kSharedHuffman, CodecKind::kLzss,
                                 CodecKind::kCodePack, CodecKind::kFieldSplit};
constexpr unsigned kMaxK = 4;
constexpr double kZipfS = 1.0;
constexpr double kBudgetShare = 0.5;
constexpr std::size_t kWarmJobs = 400;
/// The key -> Zipf rank order is fixed, so the hot set is the same for
/// every seed; the seed draws the stream.
constexpr std::uint64_t kRankSeed = 0x5eed;

std::vector<workloads::Workload> make_programs() {
  std::vector<workloads::Workload> programs;
  for (std::size_t i = 0; i < kPrograms; ++i) {
    workloads::RandomProgramOptions options;
    options.seed = 1000 + i;
    options.leaf_functions = 40;
    options.statements_per_body = 8;
    programs.push_back(
        timed_build([&] { return workloads::make_random_workload(options); }));
    programs.back().name = "churn-" + std::to_string(i);
  }
  return programs;
}

std::vector<Key> make_keys(const std::vector<workloads::Workload>& programs) {
  std::vector<Key> keys;
  for (const auto& w : programs) {
    for (const CodecKind codec : kCodecs) {
      for (unsigned k = 1; k <= kMaxK; ++k) {
        Key key;
        key.record = job_record(
            "sweep", {w.name}, codec,
            "task label=kd" + std::to_string(k) + " kd=" + std::to_string(k) +
                "\n",
            "normal", "churn");
        keys.push_back(std::move(key));
      }
    }
  }
  return keys;
}

/// rank -> key: a fixed Fisher-Yates shuffle of the key indices.
std::vector<std::size_t> rank_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(kRankSeed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(unit(rng) * static_cast<double>(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::vector<Job> make_stream(std::uint64_t seed, std::size_t keys,
                             std::size_t count) {
  const auto order = rank_order(keys);
  const auto ranks = zipf_stream(seed, keys, kZipfS, count);
  std::vector<Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].key = order[ranks[i]];
    jobs[i].id = i + 1;
  }
  return jobs;
}

/// Bytes resident once every key has run on an unbounded cache.
std::uint64_t working_set(const std::vector<workloads::Workload>& programs,
                          const std::vector<Key>& keys) {
  serving::ServiceOptions options;
  options.workers = kWorkers;
  serving::Service service(options);
  for (const auto& w : programs) (void)service.register_workload(w);
  for (const Key& key : keys) (void)service.submit(key.spec).wait();
  const auto stats = service.cache_stats();
  return stats.images.bytes + stats.frontiers.bytes;
}

serving::ServiceOptions budgeted(std::uint64_t working_set_bytes,
                                 double share) {
  serving::ServiceOptions options;
  options.workers = kWorkers;
  options.cache_budget.total_bytes =
      static_cast<std::uint64_t>(static_cast<double>(working_set_bytes) * share);
  return options;
}

Phase closed_phase(std::int64_t duration_ns) {
  Phase phase;
  phase.open_loop = false;
  phase.window = kWindow;
  phase.duration_ns = duration_ns;
  return phase;
}

struct Rig {
  std::unique_ptr<Frontend> frontend;
  std::unique_ptr<Client> client;
  std::uint64_t working_set = 0;
};

/// Generate and register the programs, measure the working set, start
/// the budgeted server, connect, and warm the cache to steady state
/// with a stream of its own.
std::unique_ptr<Rig> set_up(const std::vector<Key>& keys, std::uint64_t seed,
                            Outcome& outcome) {
  auto rig = std::make_unique<Rig>();
  const auto programs = make_programs();
  rig->working_set = working_set(programs, keys);
  rig->frontend = std::make_unique<Frontend>(
      budgeted(rig->working_set, kBudgetShare), programs);
  rig->client = std::make_unique<Client>(rig->frontend->port(), 1);
  auto warm = make_stream(sub_seed(seed, 2), keys.size(), kWarmJobs);
  outcome.add(rig->client->run(keys, warm, closed_phase(INT64_MAX / 2)));
  return rig;
}

std::vector<double> job_latencies(const std::vector<Job>& jobs,
                                  const PhaseStats& st) {
  return latencies_ms(jobs, st.start_ns, false,
                      [](const Job&) { return true; });
}

/// Replay the stream in-process at several budgets (traced run only,
/// not gated): hit ratios and evictions per artifact kind.
void budget_sensitivity(const std::vector<workloads::Workload>& programs,
                        const std::vector<Key>& keys,
                        const std::vector<Job>& stream,
                        std::uint64_t working_set_bytes) {
  constexpr std::size_t kReplay = 3000;
  Report::note("budget sensitivity (in-process replay of " +
               std::to_string(std::min(kReplay, stream.size())) +
               " stream jobs, working set " +
               std::to_string(working_set_bytes) + " B):");
  for (const double share : {0.25, 0.5, 0.75, 0.0}) {
    serving::Service service(budgeted(working_set_bytes, share));
    for (const auto& w : programs) (void)service.register_workload(w);
    for (std::size_t i = 0; i < std::min(kReplay, stream.size()); ++i) {
      (void)service.submit(keys[stream[i].key].spec).wait();
    }
    const auto s = service.cache_stats();
    Report::note(
        "  budget " +
        (share == 0.0 ? std::string("unbounded")
                      : format_double(share * 100) + "%") +
        ": image hits " + std::to_string(s.images.hits) + "/" +
        std::to_string(s.images.hits + s.images.misses) + " (" +
        format_double(hit_ratio(s.images)) + ") evictions " +
        std::to_string(s.images.evictions) + "; frontier hits " +
        std::to_string(s.frontiers.hits) + "/" +
        std::to_string(s.frontiers.hits + s.frontiers.misses) + " (" +
        format_double(hit_ratio(s.frontiers)) + ") evictions " +
        std::to_string(s.frontiers.evictions));
  }
}

}  // namespace

Outcome run_artifact_churn(const Args& args, Report& report) {
  Outcome outcome;
  const auto programs = make_programs();
  std::string sizes = "programs:";
  for (const auto& w : programs) {
    sizes += " " + w.name + " (" + std::to_string(w.cfg.block_count()) +
             " blocks)";
  }
  Report::note(sizes);
  auto keys = make_keys(programs);
  Direct direct(programs);
  compute_references(keys, direct, kWorkers);
  report_paper_metrics(keys, report);
  // The closed loop sends until the duration ends; this bounds the list.
  auto stream = make_stream(sub_seed(args.seed, 1), keys.size(), 200'000);

  std::unique_ptr<Rig> rig;
  if (!args.trace) {
    const double setup_s = median_setup_s(
        5, rig, [&] { return set_up(keys, args.seed, outcome); });
    Report::note("working set " + std::to_string(rig->working_set) +
                 " B, cache budget " +
                 format_double(kBudgetShare * 100) + "% of it");
    auto jobs = stream;
    const auto before = rig->frontend->service().cache_stats();
    const PhaseStats st = rig->client->run(
        keys, jobs, closed_phase(static_cast<std::int64_t>(args.seconds * 1e9)));
    const auto delta =
        cache_delta(before, rig->frontend->service().cache_stats());
    note_phase("churn", st);
    outcome.add(st);
    Report::note("cache: image hit ratio " +
                 format_double(hit_ratio(delta.images)) +
                 ", frontier hit ratio " +
                 format_double(hit_ratio(delta.frontiers)));
    const auto lat = job_latencies(jobs, st);
    const double jobs_per_s = static_cast<double>(st.ok) / st.seconds();
    Report::note("churn jobs: samples=" + std::to_string(lat.size()));
    // One job class: the batch tail is the job tail, and the highest
    // sustained rate is the closed loop's own rate.
    report_common_e2e(report, setup_s, lat, lat, jobs_per_s, jobs_per_s,
                      static_cast<double>(completed_steps(keys, jobs)) /
                          st.seconds(),
                      outcome);
    return outcome;
  }

  tracer().enabled = true;
  rig = set_up(keys, args.seed, outcome);
  const auto phase =
      closed_phase(static_cast<std::int64_t>(args.seconds / 4 * 1e9));
  tracer().enabled = false;
  auto untraced = stream;
  const PhaseStats ust = rig->client->run(keys, untraced, phase);
  note_phase("churn-untraced", ust);
  outcome.add(ust);
  tracer().enabled = true;
  auto traced = stream;
  LayerInputs in;
  const auto before = rig->frontend->service().cache_stats();
  const PhaseStats tst = rig->client->run(keys, traced, phase);
  const auto after = rig->frontend->service().cache_stats();
  note_phase("churn-traced", tst);
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
  for (const CodecKind codec : kCodecs) {
    LayerInputs::CampaignSet set{codec, {}, {}};
    for (const auto& w : programs) set.names.push_back(w.name);
    for (unsigned k = 1; k <= kMaxK; ++k) set.grid.push_back(keys[k - 1].spec.tasks[0]);
    in.campaigns.push_back(std::move(set));
  }
  outcome.add(run_layer_probes(in, report));
  budget_sensitivity(programs, keys, stream, rig->working_set);
  return outcome;
}

}  // namespace apccbench
