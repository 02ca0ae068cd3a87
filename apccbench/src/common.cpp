#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <numeric>
#include <stdexcept>

namespace apccbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<double> t(count);
  double now = 0.0;
  for (double& at : t) {
    now += -std::log1p(-unit(rng));
    at = now;
  }
  // Condition on the count: rescale so the last arrival lands at
  // count / rate. The gaps stay exponential-shaped, and every seed
  // offers exactly the nominal rate.
  const double scale = count == 0 ? 0.0 : static_cast<double>(count) /
                                              rate_per_s / now;
  std::vector<std::int64_t> due(count);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = static_cast<std::int64_t>(t[i] * scale * 1e9);
  }
  return due;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(std::mt19937_64& rng) const {
  const double u = unit(rng);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

std::vector<std::size_t> zipf_stream(std::uint64_t seed, std::size_t n,
                                     double s, std::size_t count) {
  const Zipf zipf(n, s);
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> out(count);
  for (auto& r : out) r = zipf.sample(rng);
  return out;
}

// ------------------------------------------------------------- spans

int Tracer::open(std::string name, std::uint64_t job) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), job});
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t job) {
  if (!enabled) return;
  spans_.push_back(Span{std::move(name), start_ns, end_ns,
                        stack_.empty() ? -1 : stack_.back(), job});
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += ns_to_ms(s.end_ns - s.start_ns);
  }
  return total;
}

std::string Tracer::to_json() const {
  std::string out = "{\"traceEvents\":[";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out += ",\n";
    out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    out += ",\"ts\":" + format_double(ns_to_us(s.start_ns - origin));
    out += ",\"dur\":" + format_double(ns_to_us(s.end_ns - s.start_ns));
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"job\":" + std::to_string(s.job) + "}}";
  }
  return out + "]}\n";
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, p.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, p.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans,
                                            const std::string& skip) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    if (layer != skip) out[layer] += ns_to_ms(self[i]);
  }
  return out;
}

// ------------------------------------------------------------ report

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Entry{value, unit};
  std::cout << "metric " << name << " = " << format_double(value) << " "
            << unit << "\n";
}

void Report::note(const std::string& text) { std::cout << text << "\n"; }

double Report::value(const std::string& name) const {
  return metrics_.at(name).value;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed,
                         const std::vector<std::string>& names) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics_.find(names[i]);
    if (it == metrics_.end()) {
      throw std::runtime_error("metric never measured: " + names[i]);
    }
    if (i != 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " +
           format_double(it->second.value) + ", \"unit\": \"" +
           it->second.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace apccbench
