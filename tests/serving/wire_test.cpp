// Wire codec contract: serialize(parse(.)) is a fixed point for jobs
// and every result type (the byte-identical round-trip the CI golden
// gate diffs), parsing is strict (versioned header, unknown/duplicate
// keys, missing end -- all positioned errors with line + snippet), and
// omitted keys default so hand-written job files stay short. The
// checked-in golden files under tests/serving/data pin the canonical
// serialization: a schema change that alters them must bump
// JobSpec::kWireVersion deliberately.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "serving/wire.hpp"
#include "support/assert.hpp"

#ifndef APCC_WIRE_DATA_DIR
#define APCC_WIRE_DATA_DIR "."
#endif

namespace apcc::serving::wire {
namespace {

JobSpec sample_sweep_spec() {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.workloads = {"gsm-like"};
  spec.config.codec = compress::CodecKind::kLzss;
  spec.config.policy.predictor = runtime::PredictorKind::kStatic;
  spec.config.costs.exception_cycles = 300;
  spec.share_frontiers = false;
  spec.priority = sweep::Priority::kHigh;
  spec.max_workers = 3;
  spec.deadline_ms = 2500;
  spec.client = "bench rig #7";  // space + '#': exercises escaping
  sweep::SweepTask task;
  task.label = "pre-all/k=2 tight";
  task.config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  task.config.policy.compress_k = 2;
  task.config.policy.predecompress_k = 2;
  task.config.policy.memory_budget = 4096;
  task.config.costs.cycles_per_instruction = 1.25;
  spec.tasks.push_back(task);
  task.label = "on-demand";
  task.config.policy.strategy = runtime::DecompressionStrategy::kOnDemand;
  spec.tasks.push_back(task);
  return spec;
}

sim::RunResult sample_result(std::uint64_t seed) {
  sim::RunResult r;
  r.total_cycles = 1000 + seed;
  r.baseline_cycles = 900 + seed;
  r.busy_cycles = 800 + seed;
  r.stall_cycles = 7 * seed;
  r.exceptions = 13 + seed;
  r.demand_decompressions = 11 + seed;
  r.predecompressions = 5 * seed;
  r.deletions = 3 + seed;
  r.evictions = seed;
  r.original_image_bytes = 4096;
  r.compressed_area_bytes = 2048;
  r.peak_occupancy_bytes = 512 + seed;
  r.avg_occupancy_bytes = 123.456 + static_cast<double>(seed);
  r.codec_ratio = 0.515625;
  r.allocator.capacity = 8192;
  r.allocator.used = 100 + seed;
  r.allocator.total_allocations = 42 + seed;
  return r;
}

TEST(Wire, JobRoundTripIsFixedPoint) {
  for (const JobSpec& spec :
       {sample_sweep_spec(),
        [] {
          JobSpec run;
          run.kind = JobKind::kRun;
          run.workloads = {"@2"};
          run.max_workers = 1;
          return run;
        }(),
        [] {
          JobSpec campaign;
          campaign.kind = JobKind::kCampaign;
          campaign.workloads = {"crc-like", "adpcm-like", "a path/with space.s"};
          campaign.priority = sweep::Priority::kBatch;
          campaign.tasks.push_back({"only", {}});
          return campaign;
        }()}) {
    const std::string text = serialize_job(spec);
    const JobSpec reparsed = parse_job(text);
    EXPECT_EQ(serialize_job(reparsed), text);
    EXPECT_EQ(reparsed.kind, spec.kind);
    EXPECT_EQ(reparsed.workloads, spec.workloads);
    EXPECT_EQ(reparsed.client, spec.client);
    EXPECT_EQ(reparsed.priority, spec.priority);
    EXPECT_EQ(reparsed.max_workers, spec.max_workers);
    EXPECT_EQ(reparsed.deadline_ms, spec.deadline_ms);
    EXPECT_EQ(reparsed.share_frontiers, spec.share_frontiers);
    EXPECT_EQ(reparsed.tasks.size(), spec.tasks.size());
  }
}

TEST(Wire, MinimalJobParsesToDefaults) {
  const JobSpec spec = parse_job(
      "apcc.job v7\n"
      "kind run\n"
      "workload gsm-like\n"
      "end\n");
  EXPECT_EQ(spec.kind, JobKind::kRun);
  EXPECT_EQ(spec.workloads, std::vector<std::string>{"gsm-like"});
  EXPECT_EQ(spec.client, "");
  EXPECT_EQ(spec.priority, sweep::Priority::kNormal);
  EXPECT_EQ(spec.max_workers, 0u);
  EXPECT_EQ(spec.deadline_ms, 0u);
  EXPECT_TRUE(spec.share_frontiers);
  EXPECT_TRUE(spec.tasks.empty());
  const JobSpec defaults = [] {
    JobSpec s;
    s.kind = JobKind::kRun;
    s.workloads = {"gsm-like"};
    return s;
  }();
  EXPECT_EQ(serialize_job(spec), serialize_job(defaults));
}

TEST(Wire, RecordLevelPolicyIsTheBaseTasksOverride) {
  // The record's policy/costs/fit lines are the base configuration
  // every explicit task inherits (exactly what `grid strategy-k`
  // expands over); task kvs override per cell. Order doesn't matter:
  // a policy line below the task lines still applies.
  const JobSpec spec = parse_job(
      "apcc.job v7\n"
      "kind sweep\n"
      "workload gsm-like\n"
      "task label=inherit strategy=pre-all\n"
      "task label=override strategy=pre-all kc=2 exception=250\n"
      "policy kc=8 kd=8\n"
      "costs exception=999\n"
      "end\n");
  ASSERT_EQ(spec.tasks.size(), 2u);
  EXPECT_EQ(spec.tasks[0].config.policy.compress_k, 8u);
  EXPECT_EQ(spec.tasks[0].config.policy.predecompress_k, 8u);
  EXPECT_EQ(spec.tasks[0].config.costs.exception_cycles, 999u);
  EXPECT_EQ(spec.tasks[0].config.policy.strategy,
            runtime::DecompressionStrategy::kPreAll);
  EXPECT_EQ(spec.tasks[1].config.policy.compress_k, 2u);   // overridden
  EXPECT_EQ(spec.tasks[1].config.policy.predecompress_k, 8u);  // inherited
  EXPECT_EQ(spec.tasks[1].config.costs.exception_cycles, 250u);
  // Still a canonical fixed point: tasks serialize fully explicit.
  const std::string text = serialize_job(spec);
  EXPECT_EQ(serialize_job(parse_job(text)), text);
}

TEST(Wire, GridSugarExpandsToTheStandardGrid) {
  const JobSpec spec = parse_job(
      "apcc.job v7\n"
      "kind sweep\n"
      "workload gsm-like\n"
      "codec lzss\n"
      "grid strategy-k\n"
      "end\n");
  core::SystemConfig config;
  config.codec = compress::CodecKind::kLzss;
  const auto expanded = strategy_k_grid(core::engine_config(config));
  ASSERT_EQ(spec.tasks.size(), expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(spec.tasks[i].label, expanded[i].label);
    EXPECT_EQ(spec.tasks[i].config.policy.strategy,
              expanded[i].config.policy.strategy);
    EXPECT_EQ(spec.tasks[i].config.policy.compress_k,
              expanded[i].config.policy.compress_k);
  }
  // The canonical form is explicit: re-serialization emits task lines,
  // never 'grid', and stays a fixed point.
  const std::string text = serialize_job(spec);
  EXPECT_EQ(text.find("grid "), std::string::npos);
  EXPECT_EQ(serialize_job(parse_job(text)), text);
}

void expect_wire_error(const std::string& text, const char* needle,
                       std::size_t line) {
  try {
    (void)parse_job(text);
    FAIL() << "expected WireError containing '" << needle << "'";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), line) << e.what();
  }
}

TEST(Wire, StrictParsingPositionsErrors) {
  expect_wire_error("apcc.job v1\nkind run\nend\n", "unsupported wire", 1);
  // Older records are not silently accepted either: the header gate
  // rejects anything but v7.
  expect_wire_error("apcc.job v2\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v3\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v4\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v5\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v6\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("bogus\n", "record header", 1);
  expect_wire_error("apcc.job v7\nkind run\nworkload x\n", "missing 'end'",
                    4);
  expect_wire_error("apcc.job v7\nworkload x\nend\n", "missing 'kind'", 1);
  expect_wire_error("apcc.job v7\nkind run\nfrobnicate 1\nend\n",
                    "unknown key", 3);
  expect_wire_error("apcc.job v7\nkind run\nkind sweep\nend\n",
                    "duplicate", 3);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\ntask label=a bogus=1\nend\n",
      "unknown key 'bogus'", 4);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\ntask label=a kc=1 kc=2\nend\n",
      "duplicate key 'kc'", 4);
  expect_wire_error("apcc.job v7\nkind run\nmax-workers lots\nend\n",
                    "malformed max-workers", 3);
  expect_wire_error("apcc.job v7\nkind run\ndeadline-ms soon\nend\n",
                    "malformed deadline-ms", 3);
  expect_wire_error(
      "apcc.job v7\nkind run\ndeadline-ms 1\ndeadline-ms 2\nend\n",
      "duplicate", 4);
  // Keys v5 removed are unknown keys, at job and at task level: the
  // lockstep batch width and the reference-path debug switches.
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\nbatch-cells 4\n"
      "grid strategy-k\nend\n",
      "unknown key 'batch-cells'", 4);
  expect_wire_error(
      "apcc.job v7\nkind run\nworkload x\nreference-scans 1\nend\n",
      "unknown key 'reference-scans'", 4);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\n"
      "task label=a reference-frontiers=1\nend\n",
      "unknown key 'reference-frontiers'", 4);
  // v7 removed the paranoid-verify debug key: unknown on a policy line
  // and on a task line alike.
  expect_wire_error(
      "apcc.job v7\nkind run\nworkload x\npolicy kc=2 paranoid=1\nend\n",
      "unknown key 'paranoid'", 4);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\n"
      "task label=a strategy=pre-all paranoid=1\nend\n",
      "unknown key 'paranoid'", 4);
  // v7 bounds the engine knobs a record can set: a helper-unit count
  // the engine would scan per decompression (or cannot allocate), a cpi
  // that is negative, not finite or absurd, and cost cycles past u32
  // are refused at their line instead of holding a worker, throwing
  // bad_alloc, tripping an engine assertion or answering wrongly.
  for (const char* units : {"0", "65", "10000000", "4000000000"}) {
    expect_wire_error(
        std::string("apcc.job v7\nkind run\nworkload x\n"
                    "policy strategy=pre-all units=") +
            units + "\nend\n",
        "units out of range", 4);
  }
  for (const char* cpi : {"-1", "nan", "inf", "-inf", "1e300", "1000.5"}) {
    expect_wire_error(std::string("apcc.job v7\nkind sweep\nworkload x\n"
                                  "task label=a cpi=") +
                          cpi + "\nend\n",
                      "cpi out of range", 4);
  }
  expect_wire_error(
      "apcc.job v7\nkind run\nworkload x\ncosts cpi=1e999\nend\n",
      "malformed cpi", 4);
  expect_wire_error(
      "apcc.job v7\nkind run\nworkload x\n"
      "costs exception=18446744073709551615\nend\n",
      "exception out of range", 4);
  for (const char* key : {"exception", "patch", "unpatch", "delete", "alloc",
                          "dispatch"}) {
    expect_wire_error(std::string("apcc.job v7\nkind run\nworkload x\n"
                                  "costs ") +
                          key + "=4294967296\nend\n",
                      (std::string(key) + " out of range").c_str(), 4);
  }
  // The bounds themselves are accepted.
  const JobSpec edges = parse_job(
      "apcc.job v7\nkind run\nworkload x\npolicy units=64\n"
      "costs cpi=1000 exception=4294967295\nend\n");
  EXPECT_EQ(edges.config.policy.decompress_units, 64u);
  EXPECT_EQ(edges.config.costs.cycles_per_instruction, 1000.0);
  EXPECT_EQ(edges.config.costs.exception_cycles, 4294967295u);
  // Codec names v6 removed are unknown codecs, positioned at the line.
  for (const char* codec : {"fpc", "bdi", "adaptive"}) {
    expect_wire_error(
        std::string("apcc.job v7\nkind run\nworkload x\ncodec ") + codec +
            "\nend\n",
        "unknown codec", 4);
  }
  // Narrowing is strict: a value past the field's width is malformed,
  // never a silent wrap (4294967296 -> 0 would read as "uncapped").
  expect_wire_error("apcc.job v7\nkind run\nmax-workers 4294967296\nend\n",
                    "max-workers out of range", 3);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\ntask label=a kc=4294967296\n"
      "end\n",
      "kc out of range", 4);
  expect_wire_error("apcc.job v7\nkind run\npriority urgent\nend\n",
                    "unknown priority", 3);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\ngrid bogus\nend\n",
      "unknown grid", 4);
  expect_wire_error(
      "apcc.job v7\nkind sweep\nworkload x\ntask label=a\ngrid strategy-k\n"
      "end\n",
      "exclusive", 5);
  // A grid job record with no grid is the silent-zero-outcomes trap:
  // rejected at the wire layer (the typed API keeps empty-grid
  // semantics; tests/serving/service_test.cpp pins those).
  expect_wire_error("apcc.job v7\nkind sweep\nworkload x\nend\n",
                    "needs 'task' lines or 'grid strategy-k'", 1);
  expect_wire_error("apcc.job v7\nkind campaign\nworkload x\nend\n",
                    "needs 'task' lines or 'grid strategy-k'", 1);
  // ...and a campaign with no workloads (the old bare-`campaign`
  // batch line meant "whole suite"; a record spells them out).
  expect_wire_error(
      "apcc.job v7\nkind campaign\ngrid strategy-k\nend\n",
      "at least one 'workload' line", 1);
  // Structural validation is positioned too (the record header line).
  expect_wire_error("apcc.job v7\nkind run\nend\n", "exactly one workload",
                    1);
  expect_wire_error(
      "apcc.job v7\nkind run\nworkload x\ntask label=a\nend\n",
      "not a task grid", 1);
  // Comments and blank lines inside a record are skipped but counted.
  expect_wire_error(
      "apcc.job v7\n\n# comment\nkind run\nbroken-key 1\nend\n",
      "unknown key 'broken-key'", 5);
}

// One line per record kind with a distinct value for every key (the
// four policy booleans take the patterns 0101 and 0011, so any two of
// them differ somewhere). A table row that wired a key to the wrong
// member would still round-trip the goldens -- serialize and parse
// would swap alike -- so both directions are pinned against values
// named member by member.
TEST(Wire, EveryKeyMapsToItsMember) {
  const std::string job_text =
      "apcc.job v7\n"
      "kind sweep\n"
      "client mapper\n"
      "priority batch\n"
      "max-workers 3\n"
      "deadline-ms 4\n"
      "share-frontiers 0\n"
      "workload w1\n"
      "codec field-split\n"
      "fit best-fit\n"
      "policy kc=5 strategy=pre-all kd=6 predictor=static budget=7000 "
      "victim=mru units=7 background-compression=0 "
      "background-decompression=1 remember-sets=0 recompress=1\n"
      "costs cpi=1.5 exception=301 patch=302 unpatch=303 delete=304 "
      "alloc=305 dispatch=306\n"
      "task label=t kc=11 strategy=pre-single kd=12 predictor=oracle "
      "budget=13000 victim=largest units=14 background-compression=0 "
      "background-decompression=0 remember-sets=1 recompress=1 cpi=2.5 "
      "exception=401 patch=402 unpatch=403 delete=404 alloc=405 "
      "dispatch=406 fit=first-fit\n"
      "end\n";
  JobSpec job;
  job.kind = JobKind::kSweep;
  job.client = "mapper";
  job.priority = sweep::Priority::kBatch;
  job.max_workers = 3;
  job.deadline_ms = 4;
  job.share_frontiers = false;
  job.workloads = {"w1"};
  job.config.codec = compress::CodecKind::kFieldSplit;
  job.config.fit = memory::FitPolicy::kBestFit;
  runtime::Policy& base = job.config.policy;
  base.compress_k = 5;
  base.strategy = runtime::DecompressionStrategy::kPreAll;
  base.predecompress_k = 6;
  base.predictor = runtime::PredictorKind::kStatic;
  base.memory_budget = 7000;
  base.victim_policy = runtime::VictimPolicy::kMru;
  base.decompress_units = 7;
  base.background_compression = false;
  base.background_decompression = true;
  base.use_remember_sets = false;
  base.recompress_for_real = true;
  runtime::CostModel& costs = job.config.costs;
  costs.cycles_per_instruction = 1.5;
  costs.exception_cycles = 301;
  costs.patch_branch_cycles = 302;
  costs.unpatch_branch_cycles = 303;
  costs.delete_block_cycles = 304;
  costs.alloc_block_cycles = 305;
  costs.dispatch_job_cycles = 306;
  sweep::SweepTask& task = job.tasks.emplace_back();
  task.label = "t";
  task.config.fit = memory::FitPolicy::kFirstFit;
  runtime::Policy& policy = task.config.policy;
  policy.compress_k = 11;
  policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  policy.predecompress_k = 12;
  policy.predictor = runtime::PredictorKind::kOracle;
  policy.memory_budget = 13000;
  policy.victim_policy = runtime::VictimPolicy::kLargest;
  policy.decompress_units = 14;
  policy.background_compression = false;
  policy.background_decompression = false;
  policy.use_remember_sets = true;
  policy.recompress_for_real = true;
  runtime::CostModel& task_costs = task.config.costs;
  task_costs.cycles_per_instruction = 2.5;
  task_costs.exception_cycles = 401;
  task_costs.patch_branch_cycles = 402;
  task_costs.unpatch_branch_cycles = 403;
  task_costs.delete_block_cycles = 404;
  task_costs.alloc_block_cycles = 405;
  task_costs.dispatch_job_cycles = 406;

  EXPECT_EQ(serialize_job(job), job_text);
  const JobSpec parsed = parse_job(job_text);
  EXPECT_EQ(parsed.kind, job.kind);
  EXPECT_EQ(parsed.client, job.client);
  EXPECT_EQ(parsed.priority, job.priority);
  EXPECT_EQ(parsed.max_workers, job.max_workers);
  EXPECT_EQ(parsed.deadline_ms, job.deadline_ms);
  EXPECT_EQ(parsed.share_frontiers, job.share_frontiers);
  EXPECT_EQ(parsed.workloads, job.workloads);
  EXPECT_EQ(parsed.config.codec, job.config.codec);
  EXPECT_EQ(parsed.config.fit, job.config.fit);
  EXPECT_TRUE(parsed.config.policy == job.config.policy);
  EXPECT_TRUE(parsed.config.costs == job.config.costs);
  ASSERT_EQ(parsed.tasks.size(), 1u);
  EXPECT_EQ(parsed.tasks[0].label, task.label);
  EXPECT_EQ(parsed.tasks[0].config.fit, task.config.fit);
  EXPECT_TRUE(parsed.tasks[0].config.policy == task.config.policy);
  EXPECT_TRUE(parsed.tasks[0].config.costs == task.config.costs);

  const std::string run_kvs =
      "total-cycles=1001 baseline-cycles=1002 busy-cycles=1003 "
      "stall-cycles=1004 exception-cycles=1005 "
      "critical-decompress-cycles=1006 patch-cycles=1007 "
      "block-entries=1008 exceptions=1009 demand-decompressions=1010 "
      "predecompressions=1011 predecompress-hits=1012 "
      "predecompress-partial=1013 wasted-predecompressions=1014 "
      "deletions=1015 evictions=1016 patches=1017 unpatches=1018 "
      "dropped-requests=1019 decomp-helper-busy=1020 "
      "comp-helper-busy=1021 original-bytes=1022 "
      "compressed-area-bytes=1023 peak-bytes=1024 avg-bytes=1025.5 "
      "codec-ratio=0.25 alloc-capacity=1027 alloc-used=1028 "
      "alloc-free=1029 alloc-largest-run=1030 alloc-live=1031 "
      "alloc-total=1032 alloc-failed=1033";
  sim::RunResult r;
  r.total_cycles = 1001;
  r.baseline_cycles = 1002;
  r.busy_cycles = 1003;
  r.stall_cycles = 1004;
  r.exception_cycles = 1005;
  r.critical_decompress_cycles = 1006;
  r.patch_cycles = 1007;
  r.block_entries = 1008;
  r.exceptions = 1009;
  r.demand_decompressions = 1010;
  r.predecompressions = 1011;
  r.predecompress_hits = 1012;
  r.predecompress_partial = 1013;
  r.wasted_predecompressions = 1014;
  r.deletions = 1015;
  r.evictions = 1016;
  r.patches = 1017;
  r.unpatches = 1018;
  r.dropped_requests = 1019;
  r.decomp_helper_busy_cycles = 1020;
  r.comp_helper_busy_cycles = 1021;
  r.original_image_bytes = 1022;
  r.compressed_area_bytes = 1023;
  r.peak_occupancy_bytes = 1024;
  r.avg_occupancy_bytes = 1025.5;
  r.codec_ratio = 0.25;
  r.allocator.capacity = 1027;
  r.allocator.used = 1028;
  r.allocator.free = 1029;
  r.allocator.largest_free_run = 1030;
  r.allocator.live_allocations = 1031;
  r.allocator.total_allocations = 1032;
  r.allocator.failed_allocations = 1033;

  ResultRecord run;
  run.job = 42;
  run.client = "mapper";
  run.result.kind = JobKind::kRun;
  run.result.run = r;
  const std::string run_text = "apcc.result v7\njob 42\nclient mapper\n"
                               "status ok\nkind run\nrun " +
                               run_kvs + "\nend\n";
  EXPECT_EQ(serialize_result(run), run_text);
  const ResultRecord parsed_run = parse_result(run_text);
  EXPECT_EQ(parsed_run.job, 42u);
  EXPECT_EQ(parsed_run.client, "mapper");
  EXPECT_TRUE(parsed_run.result.run == r);

  ResultRecord sweep_rec;
  sweep_rec.job = 43;
  sweep_rec.result.kind = JobKind::kSweep;
  sweep_rec.result.sweep.push_back({7, "o", r});
  const std::string sweep_text =
      "apcc.result v7\njob 43\nclient -\nstatus ok\nkind sweep\n"
      "outcome index=7 label=o " +
      run_kvs + "\nend\n";
  EXPECT_EQ(serialize_result(sweep_rec), sweep_text);
  const ResultRecord parsed_sweep = parse_result(sweep_text);
  ASSERT_EQ(parsed_sweep.result.sweep.size(), 1u);
  EXPECT_EQ(parsed_sweep.result.sweep[0].index, 7u);
  EXPECT_EQ(parsed_sweep.result.sweep[0].label, "o");
  EXPECT_TRUE(parsed_sweep.result.sweep[0].result == r);
}

TEST(Wire, ResultRoundTripsAllKindsAndErrors) {
  ResultRecord run;
  run.job = 7;
  run.client = "tier-0";
  run.result.kind = JobKind::kRun;
  run.result.run = sample_result(1);

  ResultRecord sweep_rec;
  sweep_rec.job = 8;
  sweep_rec.result.kind = JobKind::kSweep;
  sweep_rec.result.sweep.push_back({0, "on-demand/k=1", sample_result(2)});
  sweep_rec.result.sweep.push_back({1, "pre-all k=2", sample_result(3)});

  ResultRecord campaign_rec;
  campaign_rec.job = 9;
  campaign_rec.result.kind = JobKind::kCampaign;
  campaign_rec.result.campaign.push_back(
      {"gsm-like", {{0, "a", sample_result(4)}, {1, "b", sample_result(5)}}});
  campaign_rec.result.campaign.push_back(
      {"crc-like", {{0, "a", sample_result(6)}}});

  ResultRecord failed;
  failed.job = 10;
  failed.client = "tier-0";
  failed.status = JobStatus::kError;
  failed.error = "workload 'x' has no default trace";

  // The v3 lifecycle statuses: error message optional, payload never.
  ResultRecord rejected;
  rejected.job = 11;
  rejected.client = "tier-0";
  rejected.status = JobStatus::kRejected;
  rejected.error = "rejected: job limit reached (4 jobs in flight)";

  ResultRecord cancelled;
  cancelled.job = 12;
  cancelled.status = JobStatus::kCancelled;  // no error line at all

  ResultRecord expired;
  expired.job = 13;
  expired.status = JobStatus::kDeadlineExceeded;
  expired.error = "job deadline exceeded";

  for (const ResultRecord& record :
       {run, sweep_rec, campaign_rec, failed, rejected, cancelled, expired}) {
    const std::string text = serialize_result(record);
    const ResultRecord reparsed = parse_result(text);
    EXPECT_EQ(serialize_result(reparsed), text);
    EXPECT_EQ(reparsed.job, record.job);
    EXPECT_EQ(reparsed.client, record.client);
    EXPECT_EQ(reparsed.status, record.status);
    EXPECT_EQ(reparsed.error, record.error);
    EXPECT_EQ(reparsed.ok(), record.ok());
  }
  // Spot-check payload fidelity, including doubles.
  const ResultRecord reparsed = parse_result(serialize_result(campaign_rec));
  ASSERT_EQ(reparsed.result.campaign.size(), 2u);
  EXPECT_EQ(reparsed.result.campaign[0].workload, "gsm-like");
  ASSERT_EQ(reparsed.result.campaign[0].outcomes.size(), 2u);
  EXPECT_EQ(reparsed.result.campaign[0].outcomes[1].result.total_cycles,
            1005u);
  EXPECT_EQ(reparsed.result.campaign[0].outcomes[0].result.avg_occupancy_bytes,
            sample_result(4).avg_occupancy_bytes);
  EXPECT_EQ(reparsed.result.campaign[0].outcomes[0].result.codec_ratio,
            0.515625);
}

TEST(Wire, ResultParsingIsStrict) {
  const auto expect_result_error = [](const std::string& text,
                                      const char* needle) {
    try {
      (void)parse_result(text);
      FAIL() << "expected WireError containing '" << needle << "'";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_result_error("apcc.job v7\nend\n", "expected 'apcc.result v7'");
  expect_result_error("apcc.result v7\njob 1\nend\n", "missing 'status'");
  expect_result_error("apcc.result v7\nstatus done\nend\n",
                      "unknown status");
  expect_result_error("apcc.result v7\nstatus error\nend\n",
                      "missing 'error'");
  expect_result_error("apcc.result v7\nstatus ok\nend\n", "missing 'kind'");
  expect_result_error(
      "apcc.result v7\nstatus ok\nkind run\nend\n", "exactly one 'run' line");
  expect_result_error(
      "apcc.result v7\nstatus error\nerror x\nkind run\nrun total-cycles=1\n"
      "end\n",
      "cannot carry a payload");
  // Every non-ok status refuses a payload, not just error.
  expect_result_error(
      "apcc.result v7\nstatus cancelled\nkind run\nrun total-cycles=1\n"
      "end\n",
      "cannot carry a payload");
  expect_result_error(
      "apcc.result v7\nstatus ok\nkind campaign\noutcome index=0 label=a\n"
      "end\n",
      "follow a 'group' line");
  // ...while a bare lifecycle status (no error, no payload) is fine.
  const ResultRecord bare =
      parse_result("apcc.result v7\njob 3\nstatus rejected\nend\n");
  EXPECT_EQ(bare.status, JobStatus::kRejected);
  EXPECT_FALSE(bare.ok());
  EXPECT_EQ(bare.error, "");
}

TEST(Wire, FieldEscapingRoundTrips) {
  for (const std::string& s :
       {std::string(""), std::string("-"), std::string("plain"),
        std::string("with space"), std::string("pct%and=eq"),
        std::string("new\nline"), std::string("#comment-ish"),
        std::string("\x01\x7f bytes")}) {
    EXPECT_EQ(unescape_field(escape_field(s)), s) << escape_field(s);
  }
  EXPECT_EQ(escape_field(""), "-");
  EXPECT_EQ(escape_field("-"), "%2D");
  EXPECT_EQ(escape_field("a b"), "a%20b");
  EXPECT_THROW((void)unescape_field("bad%zz"), apcc::CheckError);
  EXPECT_THROW((void)unescape_field("trunc%2"), apcc::CheckError);
}

TEST(Wire, RecordReaderSplitsStreamsAndPositions) {
  std::istringstream in(
      "# a comment between records\n"
      "\n"
      "apcc.job v7\n"
      "kind run\n"
      "workload gsm-like\n"
      "end\n"
      "\n"
      "apcc.result v7\n"
      "job 1\n"
      "status error\n"
      "error boom\n"
      "end\n");
  RecordReader reader(in);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->is_result);
  EXPECT_EQ(first->first_line, 3u);
  const JobSpec spec = parse_job(first->text, first->first_line);
  EXPECT_EQ(spec.workloads, std::vector<std::string>{"gsm-like"});
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->is_result);
  EXPECT_EQ(second->first_line, 8u);
  const ResultRecord record = parse_result(second->text, second->first_line);
  EXPECT_EQ(record.error, "boom");
  EXPECT_FALSE(reader.next().has_value());

  std::istringstream garbage("apcc.job v7\nkind run\n");
  RecordReader bad(garbage);
  EXPECT_THROW({ (void)bad.next(); }, WireError);

  // The unterminated-record snippet is the header line, intact even
  // when later (longer) body lines forced the line buffer to grow.
  std::istringstream unterminated("apcc.job v7\nkind run\nclient " +
                                  std::string(512, 'x') + "\n");
  RecordReader dangling(unterminated);
  try {
    (void)dangling.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.snippet(), "apcc.job v7");
    EXPECT_EQ(e.line(), 1u);
  }
}

/// A streambuf that surfaces at most `chunk` bytes per underflow --
/// the delivery shape a socket produces, where getline() must cross
/// buffer refills mid-line.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(std::string text, std::size_t chunk)
      : text_(std::move(text)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    const std::size_t n = std::min(chunk_, text_.size() - pos_);
    char* base = text_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*base);
  }

 private:
  std::string text_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

TEST(Wire, RecordReaderIsChunkingInvariant) {
  // The stream split into records must not depend on how the bytes
  // arrive: a reader fed 1..7 bytes per refill yields exactly the
  // records (text, absolute line, header kind) of a whole-string pass.
  const std::string text =
      "# comment\n\n" + kJobHeader +
      "\nkind run\nworkload gsm-like\nend\n\n" + kResultHeader +
      "\njob 1\nstatus error\nerror boom\nend\n# trailing\n" + kJobHeader +
      "\nkind sweep\nworkload gsm-like\n"
      "task label=a strategy=on-demand kc=1 kd=1\nend\n";
  std::istringstream whole(text);
  RecordReader reference(whole);
  std::vector<RawRecord> want;
  while (auto record = reference.next()) want.push_back(*record);
  ASSERT_EQ(want.size(), 3u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{7}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    ChunkedBuf buf(text, chunk);
    std::istream in(&buf);
    RecordReader reader(in);
    std::vector<RawRecord> got;
    while (auto record = reader.next()) got.push_back(*record);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].text, want[i].text);
      EXPECT_EQ(got[i].first_line, want[i].first_line);
      EXPECT_EQ(got[i].is_result, want[i].is_result);
    }
  }

  // Truncation is detected identically under chunked delivery.
  ChunkedBuf truncated(kJobHeader + "\nkind run\n", 2);
  std::istream in(&truncated);
  RecordReader reader(in);
  EXPECT_THROW({ (void)reader.next(); }, WireError);
}

TEST(Wire, GoldenFilesAreFixedPoints) {
  // The checked-in canonical records: parse -> serialize must
  // reproduce every file byte-for-byte (the same gate CI runs through
  // `apcc_cli wire-roundtrip`). Records within a file are separated by
  // one blank line.
  const std::vector<std::string> goldens = {
      "job_run.wire",      "job_sweep.wire",     "job_campaign.wire",
      "result_run.wire",   "result_sweep.wire",  "result_campaign.wire",
      "result_error.wire", "result_rejected.wire",
      "result_cancelled.wire", "jobs_mixed.wire",
  };
  for (const std::string& name : goldens) {
    const std::string path = std::string(APCC_WIRE_DATA_DIR) + "/" + name;
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << "missing golden " << path;
    std::ostringstream raw;
    raw << file.rdbuf();
    std::istringstream stream(raw.str());
    RecordReader reader(stream);
    std::string round_tripped;
    bool first = true;
    while (const auto record = reader.next()) {
      if (!first) round_tripped += '\n';
      first = false;
      round_tripped += record->is_result
                           ? serialize_result(
                                 parse_result(record->text, record->first_line))
                           : serialize_job(
                                 parse_job(record->text, record->first_line));
    }
    EXPECT_FALSE(first) << "no records in " << path;
    EXPECT_EQ(round_tripped, raw.str()) << name;
  }
}

}  // namespace
}  // namespace apcc::serving::wire
