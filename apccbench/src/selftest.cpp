// Self-tests of the benchmark's own helpers, run before every
// measurement (and alone with --self-test): the seeded inputs repeat
// for a seed and change across seeds, nearest-rank percentiles are
// right, and span self time handles nested and overlapping children.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace apccbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "self-test failed: " << what << "\n";
  }
}

void test_seeded_inputs() {
  check(poisson_schedule(7, 100.0, 500) == poisson_schedule(7, 100.0, 500),
        "Poisson schedule repeats for a seed");
  check(poisson_schedule(7, 100.0, 500) != poisson_schedule(8, 100.0, 500),
        "Poisson schedules differ across seeds");
  const auto due = poisson_schedule(3, 1000.0, 20000);
  bool increasing = true;
  for (std::size_t i = 1; i < due.size(); ++i) increasing &= due[i] >= due[i - 1];
  check(increasing, "Poisson due times are non-decreasing");
  const double rate = 20000.0 / (static_cast<double>(due.back()) / 1e9);
  check(rate > 950.0 && rate < 1050.0, "Poisson schedule keeps its rate");

  check(zipf_stream(7, 96, 1.0, 2000) == zipf_stream(7, 96, 1.0, 2000),
        "Zipf stream repeats for a seed");
  check(zipf_stream(7, 96, 1.0, 2000) != zipf_stream(8, 96, 1.0, 2000),
        "Zipf streams differ across seeds");
  const auto ranks = zipf_stream(11, 10, 1.0, 100000);
  std::vector<double> count(10);
  for (const auto r : ranks) count[r] += 1;
  // Weight of rank r is 1/(r+1); rank 0 over rank 1 should be ~2.
  const double ratio = count[0] / count[1];
  check(ratio > 1.9 && ratio < 2.1, "Zipf rank frequencies follow 1/r");
  check(sub_seed(1, 1) != sub_seed(1, 2) && sub_seed(1, 1) != sub_seed(2, 1),
        "derived seeds differ by seed and by salt");
}

void test_percentiles() {
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  check(percentile(v, 50.0) == 5.0, "p50 of 1..10 is 5");
  check(percentile(v, 90.0) == 9.0, "p90 of 1..10 is 9");
  check(percentile(v, 99.0) == 10.0, "p99 of 1..10 is 10");
  check(percentile(v, 100.0) == 10.0, "p100 is the max");
  check(percentile(v, 0.0) == 1.0, "p0 is the min");
  check(percentile({}, 50.0) == 0.0, "empty set gives 0");
  std::vector<double> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i + 1);
  check(percentile(big, 99.0) == 990.0, "p99 of 1..1000 is 990");
}

void test_self_time() {
  // parent [0,100); children [10,30) and [20,50) overlap; a grandchild
  // [12,14) inside the first child; a child [90,120) sticks out.
  std::vector<Span> spans = {
      {"a.parent", 0, 100, -1, 1},
      {"b.child", 10, 30, 0, 1},
      {"b.child", 20, 50, 0, 1},
      {"c.grandchild", 12, 14, 1, 1},
      {"b.late", 90, 120, 0, 1},
  };
  const auto self = self_times(spans);
  check(self[0] == 100 - 40 - 10, "parent self excludes the union of children");
  check(self[1] == 20 - 2, "child self excludes its grandchild");
  check(self[2] == 30, "leaf self is its duration");
  check(self[3] == 2, "grandchild self is its duration");
  check(self[4] == 30, "a child's self time is its own duration");
  const auto layers = layer_self_ms(spans);
  check(layers.at("a") == 50e-6 && layers.at("c") == 2e-6,
        "self time sums per layer");
  check(layer_self_ms(spans, "b").count("b") == 0,
        "a skipped layer is left out");
}

}  // namespace

bool run_self_tests() {
  failures = 0;
  test_seeded_inputs();
  test_percentiles();
  test_self_time();
  if (failures == 0) std::cerr << "apccbench self-tests passed\n";
  return failures == 0;
}

}  // namespace apccbench
