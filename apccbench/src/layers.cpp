// The traced run's per-layer probes. Each probe calls one layer's
// public entry points from the benchmark's own code, inside spans, on
// the same programs and jobs the workload sends:
//
//   sim       direct sim::Engine::run over every distinct cell
//   net       idle round trips over the workload's own connections
//   serving   in-process Service::submit -> wait, idle and as a replay
//             of the workload's job stream
//   wire      parse_job / serialize_result per record kind
//   runtime   image builds (make_block_image's steps) per codec and
//             FrontierCache::materialize per k
//   compress  make_codec (training) and Codec::compress (encoding),
//             as children of the image build
//   sweep     core::run_campaign at 1 and W workers, and the same grid
//             as a Service campaign job
#include <algorithm>
#include <stdexcept>

#include "compress/codec.hpp"
#include "harness.hpp"
#include "runtime/block_image.hpp"

namespace apccbench {
namespace {

using namespace apcc;

constexpr CodecKind kBuildCodecs[] = {CodecKind::kSharedHuffman,
                                      CodecKind::kLzss, CodecKind::kCodePack,
                                      CodecKind::kFieldSplit};
constexpr unsigned kFrontierKs[] = {1, 2, 3, 4, 8};
constexpr int kBuildReps = 3;

std::string codec_name(CodecKind codec) {
  return compress::codec_kind_name(codec);
}

/// Median duration (us) of `op` repeated until `budget_ns` or `max_reps`,
/// each repetition a span named `name`.
template <typename Op>
double timed_median_us(const std::string& name, std::int64_t budget_ns,
                       int max_reps, Op op) {
  std::vector<double> us;
  const std::int64_t stop = now_ns() + budget_ns;
  for (int i = 0; i < max_reps && (i < 3 || now_ns() < stop); ++i) {
    const std::int64_t t0 = now_ns();
    op();
    const std::int64_t t1 = now_ns();
    tracer().add(name, t0, t1);
    us.push_back(ns_to_us(t1 - t0));
  }
  return median(us);
}

/// Per distinct reference: the engine time of its cells (ns, summed)
/// and the wall time of the whole job by the direct path at the
/// Service's pool width (ns), medians over repetitions.
struct DirectTimes {
  std::map<std::string, std::int64_t> engine_ns;
  std::map<std::string, std::int64_t> wall_ns;
};

DirectTimes probe_sim(LayerInputs& in, Report& report) {
  DirectTimes out;
  std::vector<double> cell_ms;
  std::int64_t total_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t predecompressions = 0;
  std::uint64_t deletions = 0;
  for (const Key& key : *in.keys) {
    if (out.engine_ns.count(key.reference) != 0) continue;
    const auto expected = result_cells(key.result);
    const int reps = key.block_entries < 200'000 ? 3 : 1;
    std::vector<std::vector<double>> per_cell(expected.size());
    std::vector<double> wall;
    for (int r = 0; r < reps; ++r) {
      std::vector<sim::RunResult> results;
      const auto times = in.direct->run_cells(key.spec, 0, &results);
      for (std::size_t c = 0; c < expected.size(); ++c) {
        if (results[c].total_cycles != expected[c]->total_cycles ||
            results[c].block_entries != expected[c]->block_entries) {
          throw std::runtime_error("direct engine cell disagrees with the "
                                   "reference result");
        }
        per_cell[c].push_back(static_cast<double>(times[c]));
      }
      const std::int64_t t0 = now_ns();
      {
        const ScopedSpan span("sim.direct_job");
        (void)in.direct->reference(key.spec, in.workers);
      }
      wall.push_back(static_cast<double>(now_ns() - t0));
    }
    std::int64_t sum = 0;
    for (const auto& samples : per_cell) {
      const double ns = median(samples);
      sum += static_cast<std::int64_t>(ns);
      cell_ms.push_back(ns / 1e6);
    }
    out.engine_ns[key.reference] = sum;
    out.wall_ns[key.reference] = static_cast<std::int64_t>(median(wall));
    total_ns += sum;
    steps += key.block_entries;
    for (const auto* cell : expected) {
      exceptions += cell->exceptions;
      predecompressions += cell->predecompressions;
      deletions += cell->deletions;
    }
  }
  report.add("sim.engine_ns_per_step",
             static_cast<double>(total_ns) / static_cast<double>(steps), "ns");
  report.add("sim.cell_ms_p50", median(cell_ms), "ms");
  report.add("sim.block_entries", static_cast<double>(steps), "count");
  report.add("sim.exceptions", static_cast<double>(exceptions), "count");
  report.add("sim.predecompressions", static_cast<double>(predecompressions),
             "count");
  report.add("sim.deletions", static_cast<double>(deletions), "count");
  return out;
}

struct Idle {
  std::vector<double> rtt_us;        // per key: median idle round trip
  std::vector<double> frontdoor_us;  // per key: median of (rtt - in-process)
};

/// One job outstanding on an idle server, per key: a TCP round trip and
/// an in-process submit -> wait on the same Service, alternating, so
/// each pair sees the same machine state.
Idle probe_idle(LayerInputs& in, PhaseStats& sent) {
  const auto& keys = *in.keys;
  Idle idle{std::vector<double>(keys.size()),
            std::vector<double>(keys.size())};
  Phase one;
  one.open_loop = false;
  one.window = 1;
  one.duration_ns = INT64_MAX / 2;
  std::uint64_t id = 1'000'000'000;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const int reps = keys[k].block_entries > 500'000 ? 3 : 5;
    std::vector<double> rtt;
    std::vector<double> frontdoor;
    for (int r = 0; r < reps; ++r) {
      std::vector<Job> job(1);
      job[0].key = k;
      job[0].id = ++id;
      const PhaseStats st = in.client->run(keys, job, one);
      sent.sent += st.sent;
      sent.failed += st.failed;
      tracer().add("net.rtt", job[0].sent_ns, job[0].done_ns, job[0].id);
      const double trip = ns_to_us(job[0].done_ns - job[0].sent_ns);
      const std::int64_t t0 = now_ns();
      {
        const ScopedSpan span("serving.submit_wait", ++id);
        const auto handle = in.frontend->service().submit(keys[k].spec);
        if (!handle.wait().ok()) {
          throw std::runtime_error("in-process job failed");
        }
      }
      rtt.push_back(trip);
      frontdoor.push_back(trip - ns_to_us(now_ns() - t0));
    }
    idle.rtt_us[k] = median(rtt);
    idle.frontdoor_us[k] = median(frontdoor);
  }
  return idle;
}

void probe_serving(LayerInputs& in, const Idle& idle,
                   const DirectTimes& direct, Report& report) {
  const auto& keys = *in.keys;
  const auto& stream = *in.stream;
  // Per-key figures weighted by the workload's own job mix.
  std::vector<double> rtt;
  std::vector<double> frontdoor;
  const std::size_t mix = std::min<std::size_t>(stream.size(), 2000);
  for (std::size_t i = 0; i < mix; ++i) {
    const std::size_t k = stream[i].key;
    rtt.push_back(idle.rtt_us[k]);
    frontdoor.push_back(idle.frontdoor_us[k]);
  }
  report.add("net.rtt_p50_us", median(rtt), "us");
  report.add("net.frontdoor_us", median(frontdoor), "us");

  // Queue wait in the traced timed phase: latency minus the job's idle
  // service time.
  std::vector<double> queue_ms;
  for (const Job& j : *in.timed) {
    if (j.done_ns < 0 || !keys[j.key].normal) continue;
    const std::int64_t from =
        in.from_due ? in.timed_start_ns + j.due_ns : j.sent_ns;
    queue_ms.push_back(ns_to_ms(j.done_ns - from) - idle.rtt_us[j.key] / 1e3);
  }
  report.add("serving.queue_wait_p99_ms", percentile(queue_ms, 99.0), "ms");

  // In-process replay of the job stream, one job at a time.
  std::vector<double> sw;
  std::vector<double> overhead;
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(in.replay_seconds * 1e9);
  for (std::size_t i = 0;
       i < stream.size() && (i < 2 || now_ns() < stop); ++i) {
    const Key& key = keys[stream[i].key];
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span("serving.submit_wait", stream[i].id);
      const auto handle = in.frontend->service().submit(key.spec);
      if (!handle.wait().ok()) throw std::runtime_error("in-process job failed");
    }
    const double us = ns_to_us(now_ns() - t0);
    sw.push_back(us);
    overhead.push_back(us - ns_to_us(direct.wall_ns.at(key.reference)));
  }
  Report::note("in-process replay: " + std::to_string(sw.size()) + " jobs");
  report.add("serving.submit_wait_p50_us", percentile(sw, 50.0), "us");
  report.add("serving.submit_wait_p99_us", percentile(sw, 99.0), "us");
  report.add("serving.overhead_us", median(overhead), "us");
}

/// A record of each kind: the workload's own when it sends that kind,
/// else one built on its programs.
void probe_wire(LayerInputs& in, Report& report) {
  const auto& programs = *in.programs;
  std::vector<std::string> names;
  for (const auto& w : programs) names.push_back(w.name);
  const std::pair<const char*, serving::JobKind> kinds[] = {
      {"run", serving::JobKind::kRun},
      {"sweep", serving::JobKind::kSweep},
      {"campaign", serving::JobKind::kCampaign}};
  for (const auto& [kind, kind_enum] : kinds) {
    const Key* own = nullptr;
    for (const Key& key : *in.keys) {
      if (key.spec.kind == kind_enum) {
        own = &key;
        break;
      }
    }
    std::string record;
    serving::JobResult result;
    if (own != nullptr) {
      record = own->record;
      result = own->result;
    } else {
      const bool one = kind_enum != serving::JobKind::kCampaign;
      record = job_record(
          kind, one ? std::vector<std::string>{names.front()} : names,
          CodecKind::kSharedHuffman,
          kind_enum == serving::JobKind::kRun ? "" : "grid strategy-k\n",
          "normal", "probe");
      result = in.direct->reference(serving::wire::parse_job(record),
                                    in.workers);
    }
    serving::wire::ResultRecord out;
    out.job = 1;
    out.result = std::move(result);
    const std::string parse_span = std::string("wire.parse_job.") + kind;
    const std::string ser_span = std::string("wire.serialize_result.") + kind;
    report.add(std::string("wire.parse_job_us.") + kind,
               timed_median_us(parse_span, 30'000'000, 2000, [&] {
                 (void)serving::wire::parse_job(record);
               }),
               "us");
    report.add(std::string("wire.serialize_result_us.") + kind,
               timed_median_us(ser_span, 30'000'000, 2000, [&] {
                 (void)serving::wire::serialize_result(out);
               }),
               "us");
  }
}

struct BuildTimes {
  double image_ms = 0;   // mean over codecs and programs
  double frontier_ms = 0;  // mean over k and programs
};

/// Image builds per codec, decomposed into make_block_image's own steps
/// (gather the block bytes, compress::make_codec trains, the BlockImage
/// constructor runs Codec::compress per block) so each is a span; and
/// FrontierCache::materialize per k.
BuildTimes probe_builds(LayerInputs& in, Report& report) {
  BuildTimes mean_times;
  for (const CodecKind codec : kBuildCodecs) {
    std::vector<double> build_ms;
    std::vector<double> train_ms;
    double encode_s = 0;
    double encode_bytes = 0;
    for (const auto& w : *in.programs) {
      std::vector<double> b;
      std::vector<double> t;
      std::vector<double> e;
      for (int r = 0; r < kBuildReps; ++r) {
        const std::int64_t b0 = now_ns();
        const ScopedSpan build("runtime.image_build");
        std::vector<compress::Bytes> bytes = w.block_bytes;
        double original = 0;
        for (const auto& block : bytes) original += static_cast<double>(block.size());
        const std::int64_t t0 = now_ns();
        std::unique_ptr<compress::Codec> trained;
        {
          const ScopedSpan span("compress.train");
          trained = compress::make_codec(codec, bytes);
        }
        const std::int64_t e0 = now_ns();
        {
          const ScopedSpan span("compress.encode");
          const runtime::BlockImage image(w.cfg, std::move(bytes),
                                          std::move(trained));
        }
        const std::int64_t e1 = now_ns();
        t.push_back(ns_to_ms(e0 - t0));
        e.push_back(ns_to_ms(e1 - e0));
        b.push_back(ns_to_ms(e1 - b0));
        encode_bytes += original;
      }
      for (double ms : e) encode_s += ms / 1e3;
      build_ms.push_back(median(b));
      train_ms.push_back(median(t));
    }
    const std::string name = codec_name(codec);
    report.add("runtime.image_build_ms." + name, mean(build_ms), "ms");
    report.add("compress.train_ms." + name, mean(train_ms), "ms");
    report.add("compress.encode_mb_per_s." + name,
               encode_bytes / encode_s / 1e6, "MB/s");
    mean_times.image_ms += mean(build_ms) / std::size(kBuildCodecs);
  }
  std::size_t churn_ks = 0;
  for (const unsigned k : kFrontierKs) {
    std::vector<double> ms;
    for (const auto& w : *in.programs) {
      std::vector<double> reps;
      for (int r = 0; r < kBuildReps; ++r) {
        const std::int64_t t0 = now_ns();
        const ScopedSpan span("runtime.frontier_build");
        runtime::FrontierCache cache(w.cfg, k);
        cache.materialize();
        reps.push_back(ns_to_ms(now_ns() - t0));
      }
      ms.push_back(median(reps));
    }
    report.add("runtime.frontier_build_ms.k" + std::to_string(k), mean(ms),
               "ms");
    if (k <= 4) {
      mean_times.frontier_ms += mean(ms);
      ++churn_ks;
    }
  }
  mean_times.frontier_ms /= static_cast<double>(churn_ks);
  return mean_times;
}

void probe_sweep(LayerInputs& in, Report& report) {
  double t1 = 0;
  double tw = 0;
  double tservice = 0;
  serving::ServiceOptions options;
  options.workers = in.workers;
  serving::Service service(options);
  for (const auto& w : *in.programs) (void)service.register_workload(w);
  for (const auto& set : in.campaigns) {
    std::vector<core::CampaignEntry> entries;
    for (const auto& name : set.names) {
      entries.push_back({name, &in.direct->system(name, set.codec)});
    }
    sweep::CampaignOptions options1;
    options1.workers = 1;
    sweep::CampaignOptions optionsw;
    optionsw.workers = in.workers;
    std::int64_t t0 = now_ns();
    {
      const ScopedSpan span("sweep.campaign_direct_w1");
      (void)core::run_campaign(entries, set.grid, options1);
    }
    std::int64_t t = now_ns();
    t1 += static_cast<double>(t - t0);
    serving::JobResult direct;
    direct.kind = serving::JobKind::kCampaign;
    {
      const ScopedSpan span("sweep.campaign_direct_wn");
      direct.campaign = core::run_campaign(entries, set.grid, optionsw);
    }
    tw += static_cast<double>(now_ns() - t);

    serving::JobSpec spec;
    spec.kind = serving::JobKind::kCampaign;
    spec.workloads = set.names;
    spec.config.codec = set.codec;
    spec.tasks = set.grid;
    (void)service.submit(spec).wait();  // warm the artifacts
    t0 = now_ns();
    serving::JobResult served;
    {
      const ScopedSpan span("sweep.campaign_service");
      served = service.submit(spec).wait();
    }
    tservice += static_cast<double>(now_ns() - t0);
    serving::wire::ResultRecord a;
    a.result = served;
    serving::wire::ResultRecord b;
    b.result = direct;
    if (serving::wire::serialize_result(a) !=
        serving::wire::serialize_result(b)) {
      throw std::runtime_error("Service campaign disagrees with run_campaign");
    }
  }
  report.add("sweep.parallel_efficiency", t1 / (in.workers * tw), "ratio");
  report.add("sweep.service_over_direct", tservice / tw, "ratio");
}

}  // namespace

PhaseStats run_layer_probes(LayerInputs& in, Report& report) {
  PhaseStats sent;
  const DirectTimes direct = probe_sim(in, report);
  const Idle idle = probe_idle(in, sent);
  probe_serving(in, idle, direct, report);
  probe_wire(in, report);
  const BuildTimes builds = probe_builds(in, report);
  probe_sweep(in, report);
  report.add("workloads.build_ms", tracer().total_ms("workloads.build"), "ms");

  // The job split this workload was chosen to show: an idle job's round
  // trip split by subtracting matched probes of the same job (the
  // server's layers run on its own threads, out of the benchmark's
  // spans), plus what the timed phase adds.
  std::vector<double> rtt_us;
  std::vector<double> serving_us;
  std::vector<double> wall_us;
  std::vector<double> engine_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(in.stream->size(), 2000);
       ++i) {
    const std::size_t k = (*in.stream)[i].key;
    const Key& key = (*in.keys)[k];
    const double wall = ns_to_us(direct.wall_ns.at(key.reference));
    rtt_us.push_back(idle.rtt_us[k]);
    wall_us.push_back(wall);
    engine_us.push_back(ns_to_us(direct.engine_ns.at(key.reference)));
    serving_us.push_back(idle.rtt_us[k] - idle.frontdoor_us[k] - wall);
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(
      1, in.cache.images.hits + in.cache.images.misses));
  const double build_us_per_job =
      (static_cast<double>(in.cache.images.misses) * builds.image_ms +
       static_cast<double>(in.cache.frontiers.misses) * builds.frontier_ms) *
      1e3 / jobs;
  const double rtt = median(rtt_us);
  const auto line = [rtt](const std::string& what, double us) {
    Report::note("  " + what + format_double(us) + " us (" +
                 format_double(100.0 * us / rtt) + "% of the round trip)" +
                 (us < 0 ? ", below the host's noise floor" : ""));
  };
  Report::note("typical job, layer by layer (medians over the job mix):");
  line("idle round trip over TCP:                  ", rtt);
  line("net + wire front door (rtt - in-process):  ",
       report.value("net.frontdoor_us"));
  line("serving (in-process - direct job wall):    ", median(serving_us));
  line("sim + sweep (direct job wall, pool width): ", median(wall_us));
  line("  of which engine cells, summed over cells: ", median(engine_us));
  line("artifact builds per timed job (misses):    ", build_us_per_job);
  line("queue wait p99 (timed phase):              ",
       report.value("serving.queue_wait_p99_ms") * 1e3);
  return sent;
}

void note_layer_self_times() {
  // The loadgen.job spans cover whole served jobs seen from the client,
  // with the server's layers inside them invisible; they are in the
  // trace file but would swamp the probe layers here.
  const auto self = layer_self_ms(tracer().spans(), "loadgen");
  double total = 0;
  for (const auto& [layer, ms] : self) total += ms;
  Report::note("probe self time by layer (loadgen.job spans left out):");
  for (const auto& [layer, ms] : self) {
    Report::note("  " + layer + ": " + format_double(ms) + " ms (" +
                 format_double(100.0 * ms / total) + "%)");
  }
}

}  // namespace apccbench
