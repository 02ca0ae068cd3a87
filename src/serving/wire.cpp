#include "serving/wire.hpp"

#include <algorithm>
#include <bitset>
#include <charconv>
#include <climits>
#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "support/strings.hpp"

namespace apcc::serving::wire {
namespace {

using runtime::CostModel;
using runtime::Policy;
using sim::RunResult;
using sweep::SweepOutcome;
using sweep::SweepTask;

/// One non-blank, non-comment record line: its trimmed text and its
/// absolute 1-based number.
struct Line {
  std::string_view text;
  std::size_t number = 0;
};

[[noreturn]] void fail(const std::string& message, const Line& line) {
  throw WireError(message, line.number, std::string(line.text));
}

/// Where a value is read: the label its errors name, and its line.
struct At {
  std::string_view label;
  const Line& line;

  [[noreturn]] void fail(const std::string& message) const {
    wire::fail(message, line);
  }
  [[noreturn]] void malformed(std::string_view value) const {
    fail("malformed " + std::string(label) + " '" + std::string(value) + "'");
  }
  [[noreturn]] void out_of_range(std::string_view value) const {
    fail(std::string(label) + " out of range: '" + std::string(value) + "'");
  }
};

// ----------------------------------------------------- field tables
//
// Every record line is described once, by a table of Fields: the key,
// how the member's value is written and read back, and the label its
// errors name. serialize_* and parse_* walk the same tables, so each
// key is spelled in exactly one place. A kv line ("task label=a kc=1
// ...") is a tuple of Parts -- a table applied to one object -- and its
// keys are numbered across the parts, so unknown and duplicate keys are
// found by table index.

template <typename T>
struct Field {
  std::string_view key;
  void (*write)(std::string& out, const T& record);
  void (*read)(T& record, std::string_view value, const At& at);
  /// The label errors name, when it is not the key ("job kind").
  std::string_view label = {};
  /// Record lines only: whether serialize emits the line (null: always).
  bool (*present)(const T& record) = nullptr;

  [[nodiscard]] At at(const Line& line) const {
    return {label.empty() ? key : label, line};
  }
};

template <typename M>
struct ClassOf;
template <typename C, typename V>
struct ClassOf<V C::*> {
  using type = C;
};

/// The Field for `record.*Member.*Path...`, spelled by `Format`.
template <typename Format, auto Member, auto... Path,
          typename T = typename ClassOf<decltype(Member)>::type>
constexpr Field<T> field(
    std::string_view key, std::string_view label = {},
    std::type_identity_t<bool (*)(const T&)> present = nullptr) {
  return {key,
          [](std::string& out, const T& record) {
            Format::write(out, ((record.*Member).*....*Path));
          },
          [](T& record, std::string_view value, const At& at) {
            Format::read(((record.*Member).*....*Path), value, at);
          },
          label, present};
}

/// One table applied to one object (a const one when writing).
template <typename T, typename Object>
struct Part {
  std::span<const Field<T>> fields;
  Object& object;
};

template <typename T, std::size_t N, typename Object>
Part<T, Object> part(const Field<T> (&fields)[N], Object& object) {
  return {fields, object};
}

/// Which keys of a line, or single-valued lines of a record, were seen.
using SeenSet = std::bitset<64>;

/// Finds `key` in the parts and calls on_field(field, object, index);
/// false when no part has it.
template <typename OnField, typename... Parts>
bool find_field(std::string_view key, OnField&& on_field,
                const std::tuple<Parts...>& parts) {
  std::size_t index = 0;
  const auto in = [&](const auto& part) {
    for (const auto& field : part.fields) {
      if (field.key == key) {
        on_field(field, part.object, index);
        return true;
      }
      ++index;
    }
    return false;
  };
  return std::apply([&](const auto&... each) { return (in(each) || ...); },
                    parts);
}

/// Appends "key value\n"; `value()` appends the value.
template <typename Value>
void put_line(std::string& out, std::string_view key, Value&& value) {
  out += key;
  out += ' ';
  value();
  out += '\n';
}

/// Appends "key=value" for every field of every part, space-separated.
template <typename... Parts>
void put_kvs(std::string& out, const std::tuple<Parts...>& parts) {
  const char* separator = "";
  const auto put = [&](const auto& part) {
    for (const auto& field : part.fields) {
      out += separator;
      separator = " ";
      out += field.key;
      out += '=';
      field.write(out, part.object);
    }
  };
  std::apply([&](const auto&... each) { (put(each), ...); }, parts);
}

/// Parses a kv line's "key=value" tokens into the parts.
template <typename... Parts>
void parse_kvs(std::string_view rest, const Line& line,
               const std::tuple<Parts...>& parts) {
  SeenSet seen;
  for (const std::string_view token : split_fields(rest, " ")) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      fail("expected key=value, got '" + std::string(token) + "'", line);
    }
    const std::string_view key = token.substr(0, eq);
    const auto on_field = [&](const auto& field, auto& object,
                              std::size_t index) {
      if (seen.test(index)) {
        fail("duplicate key '" + std::string(key) + "'", line);
      }
      seen.set(index);
      field.read(object, token.substr(eq + 1), field.at(line));
    };
    if (!find_field(key, on_field, parts)) {
      fail("unknown key '" + std::string(key) + "'", line);
    }
  }
}

// ---------------------------------------------------------- formats
//
// A format spells one value type: write() appends its canonical text,
// read() parses it into the member or throws a positioned WireError.
// Bounds live here, so a value the engine cannot simulate is refused at
// its line instead of holding a worker or answering wrongly.

template <typename V>
void write_number(std::string& out, V value) {
  char buf[64];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

template <typename V>
void read_number(V& out, std::string_view s, const At& at) {
  const char* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out);
  if (res.ec != std::errc{} || res.ptr != end) at.malformed(s);
}

/// Plain decimal in [Lo, Hi]: a value past the bound is out of range,
/// never a silent wrap.
template <std::uint64_t Lo, std::uint64_t Hi>
struct Int {
  static void write(std::string& out, std::uint64_t value) {
    write_number(out, value);
  }
  template <typename V>
  static void read(V& out, std::string_view s, const At& at) {
    std::uint64_t value = 0;
    read_number(value, s, at);
    if (value < Lo || value > Hi) at.out_of_range(s);
    out = static_cast<V>(value);
  }
};
using U64 = Int<0, UINT64_MAX>;
using U32 = Int<0, UINT32_MAX>;

struct Bool {
  static void write(std::string& out, bool value) { out += value ? '1' : '0'; }
  static void read(bool& out, std::string_view s, const At& at) {
    if (s != "0" && s != "1") {
      at.fail(std::string(at.label) + " must be 0 or 1, got '" +
              std::string(s) + "'");
    }
    out = s == "1";
  }
};

/// std::to_chars' shortest representation that round-trips exactly.
struct Real {
  static void write(std::string& out, double value) {
    write_number(out, value);
  }
  static void read(double& out, std::string_view s, const At& at) {
    read_number(out, s, at);
  }
};

/// A Real in [0, Max]; nan and the infinities are out of range.
template <double Max>
struct RealUpTo : Real {
  static void read(double& out, std::string_view s, const At& at) {
    read_number(out, s, at);
    if (!(out >= 0 && out <= Max)) at.out_of_range(s);
  }
};

/// A byte count, or "unbounded" for Policy::kUnbounded.
struct Budget {
  static void write(std::string& out, std::uint64_t value) {
    if (value != Policy::kUnbounded) return write_number(out, value);
    out += "unbounded";
  }
  static void read(std::uint64_t& out, std::string_view s, const At& at) {
    if (s != "unbounded") return U64::read(out, s, at);
    out = Policy::kUnbounded;
  }
};

/// A free-form string, percent-escaped (escape_field).
struct Text {
  static void write(std::string& out, const std::string& value) {
    out += escape_field(value);
  }
  static void read(std::string& out, std::string_view s, const At& at) {
    try {
      out = unescape_field(s);
    } catch (const CheckError& e) {
      at.fail(e.what());
    }
  }
};

/// A Text that must say something (an error message).
struct Message : Text {
  static void read(std::string& out, std::string_view s, const At& at) {
    Text::read(out, s, at);
    if (out.empty()) {
      at.fail("'" + std::string(at.label) + "' needs a non-empty message");
    }
  }
};

/// An enum value, named by the library's *_name function over the
/// enum's one value list.
template <const auto& Values, auto Name>
struct Enum {
  template <typename E>
  static void write(std::string& out, E value) {
    out += Name(value);
  }
  template <typename E>
  static void read(E& out, std::string_view s, const At& at) {
    for (const E value : Values) {
      if (s == Name(value)) {
        out = value;
        return;
      }
    }
    std::string expected;
    for (const E value : Values) {
      expected += expected.empty() ? "" : "|";
      expected += Name(value);
    }
    at.fail("unknown " + std::string(at.label) + " '" + std::string(s) +
            "' (expected " + expected + ")");
  }
};
using JobKindName = Enum<kAllJobKinds, job_kind_name>;
using FitName = Enum<memory::kAllFitPolicies, memory::fit_policy_name>;

/// A whole struct as one line's "key=value" list, by its table.
template <const auto& Fields>
struct Kvs {
  template <typename T>
  static void write(std::string& out, const T& value) {
    put_kvs(out, std::tuple(part(Fields, value)));
  }
  template <typename T>
  static void read(T& out, std::string_view s, const At& at) {
    parse_kvs(s, at.line, std::tuple(part(Fields, out)));
  }
};

// ----------------------------------------------------------- tables

// Keys that more than one table, or a hand-written loop, refers to.
constexpr std::string_view kKind = "kind";
constexpr std::string_view kClient = "client";
constexpr std::string_view kFit = "fit";
constexpr std::string_view kLabel = "label";
constexpr std::string_view kStatus = "status";
constexpr std::string_view kRun = "run";
constexpr std::string_view kWorkload = "workload";
constexpr std::string_view kTask = "task";
constexpr std::string_view kGrid = "grid";
constexpr std::string_view kOutcome = "outcome";
constexpr std::string_view kGroup = "group";
constexpr std::string_view kEnd = "end";

/// The most helper units a record may ask for. E8 and the tests use at
/// most 4, and the engine scans every unit on each decompression.
constexpr std::uint64_t kMaxUnits = 64;

constexpr Field<Policy> kPolicyFields[] = {
    field<U32, &Policy::compress_k>("kc"),
    field<Enum<runtime::kAllStrategies, runtime::strategy_name>,
          &Policy::strategy>("strategy"),
    field<U32, &Policy::predecompress_k>("kd"),
    field<Enum<runtime::kAllPredictors, runtime::predictor_name>,
          &Policy::predictor>("predictor"),
    field<Budget, &Policy::memory_budget>("budget"),
    field<Enum<runtime::kAllVictimPolicies, runtime::victim_policy_name>,
          &Policy::victim_policy>("victim"),
    field<Int<1, kMaxUnits>, &Policy::decompress_units>("units"),
    field<Bool, &Policy::background_compression>("background-compression"),
    field<Bool, &Policy::background_decompression>(
        "background-decompression"),
    field<Bool, &Policy::use_remember_sets>("remember-sets"),
    field<Bool, &Policy::recompress_for_real>("recompress"),
};

// Cycle costs are u32 and cpi at most 1000, so a run's cycle sums stay
// inside the u64 cycle clock; a negative or non-finite cpi is refused.
constexpr Field<CostModel> kCostFields[] = {
    field<RealUpTo<1000.0>, &CostModel::cycles_per_instruction>("cpi"),
    field<U32, &CostModel::exception_cycles>("exception"),
    field<U32, &CostModel::patch_branch_cycles>("patch"),
    field<U32, &CostModel::unpatch_branch_cycles>("unpatch"),
    field<U32, &CostModel::delete_block_cycles>("delete"),
    field<U32, &CostModel::alloc_block_cycles>("alloc"),
    field<U32, &CostModel::dispatch_job_cycles>("dispatch"),
};

using Alloc = memory::AllocatorStats;
constexpr Field<RunResult> kRunFields[] = {
    field<U64, &RunResult::total_cycles>("total-cycles"),
    field<U64, &RunResult::baseline_cycles>("baseline-cycles"),
    field<U64, &RunResult::busy_cycles>("busy-cycles"),
    field<U64, &RunResult::stall_cycles>("stall-cycles"),
    field<U64, &RunResult::exception_cycles>("exception-cycles"),
    field<U64, &RunResult::critical_decompress_cycles>(
        "critical-decompress-cycles"),
    field<U64, &RunResult::patch_cycles>("patch-cycles"),
    field<U64, &RunResult::block_entries>("block-entries"),
    field<U64, &RunResult::exceptions>("exceptions"),
    field<U64, &RunResult::demand_decompressions>("demand-decompressions"),
    field<U64, &RunResult::predecompressions>("predecompressions"),
    field<U64, &RunResult::predecompress_hits>("predecompress-hits"),
    field<U64, &RunResult::predecompress_partial>("predecompress-partial"),
    field<U64, &RunResult::wasted_predecompressions>(
        "wasted-predecompressions"),
    field<U64, &RunResult::deletions>("deletions"),
    field<U64, &RunResult::evictions>("evictions"),
    field<U64, &RunResult::patches>("patches"),
    field<U64, &RunResult::unpatches>("unpatches"),
    field<U64, &RunResult::dropped_requests>("dropped-requests"),
    field<U64, &RunResult::decomp_helper_busy_cycles>("decomp-helper-busy"),
    field<U64, &RunResult::comp_helper_busy_cycles>("comp-helper-busy"),
    field<U64, &RunResult::original_image_bytes>("original-bytes"),
    field<U64, &RunResult::compressed_area_bytes>("compressed-area-bytes"),
    field<U64, &RunResult::peak_occupancy_bytes>("peak-bytes"),
    field<Real, &RunResult::avg_occupancy_bytes>("avg-bytes"),
    field<Real, &RunResult::codec_ratio>("codec-ratio"),
    field<U64, &RunResult::allocator, &Alloc::capacity>("alloc-capacity"),
    field<U64, &RunResult::allocator, &Alloc::used>("alloc-used"),
    field<U64, &RunResult::allocator, &Alloc::free>("alloc-free"),
    field<U64, &RunResult::allocator, &Alloc::largest_free_run>(
        "alloc-largest-run"),
    field<U64, &RunResult::allocator, &Alloc::live_allocations>("alloc-live"),
    field<U64, &RunResult::allocator, &Alloc::total_allocations>(
        "alloc-total"),
    field<U64, &RunResult::allocator, &Alloc::failed_allocations>(
        "alloc-failed"),
};

constexpr Field<SweepTask> kTaskLabel[] = {
    field<Text, &SweepTask::label>(kLabel)};
constexpr Field<sim::EngineConfig> kTaskFit[] = {
    field<FitName, &sim::EngineConfig::fit>(kFit)};

/// A task line: its label, the full engine knob set, then the fit.
template <typename Task>
auto task_parts(Task& task) {
  return std::tuple(part(kTaskLabel, task),
                    part(kPolicyFields, task.config.policy),
                    part(kCostFields, task.config.costs),
                    part(kTaskFit, task.config));
}

constexpr Field<SweepOutcome> kOutcomeFields[] = {
    field<Int<0, SIZE_MAX>, &SweepOutcome::index>("index"),
    field<Text, &SweepOutcome::label>(kLabel),
};

template <typename Outcome>
auto outcome_parts(Outcome& outcome) {
  return std::tuple(part(kOutcomeFields, outcome),
                    part(kRunFields, outcome.result));
}

// The single-valued job lines, in canonical order: the scheduling
// metadata, then -- after the `workload` lines -- the base engine
// config. The `task` lines come last.
constexpr Field<JobSpec> kJobMeta[] = {
    field<JobKindName, &JobSpec::kind>(kKind, "job kind"),
    field<Text, &JobSpec::client>(kClient),
    field<Enum<sweep::kAllPriorities, sweep::priority_name>,
          &JobSpec::priority>("priority"),
    field<Int<0, UINT_MAX>, &JobSpec::max_workers>("max-workers"),
    field<U64, &JobSpec::deadline_ms>("deadline-ms"),
    field<Bool, &JobSpec::share_frontiers>("share-frontiers"),
};
constexpr std::size_t kJobKindIndex = 0;
static_assert(kJobMeta[kJobKindIndex].key == kKind);

using SystemConfig = core::SystemConfig;
constexpr Field<JobSpec> kJobConfig[] = {
    field<Enum<compress::kAllCodecKinds, compress::codec_kind_name>,
          &JobSpec::config, &SystemConfig::codec>("codec"),
    field<FitName, &JobSpec::config, &SystemConfig::fit>(kFit),
    field<Kvs<kPolicyFields>, &JobSpec::config, &SystemConfig::policy>(
        "policy"),
    field<Kvs<kCostFields>, &JobSpec::config, &SystemConfig::costs>("costs"),
};

// The single-valued result lines, in canonical order. Only an ok record
// has a payload (its kind, then a run line or group/outcome lines), so
// a failed record is byte-identical however far its job got.
constexpr Field<ResultRecord> kResultLines[] = {
    field<U64, &ResultRecord::job>("job"),
    field<Text, &ResultRecord::client>(kClient),
    field<Enum<kAllStatuses, status_name>, &ResultRecord::status>(kStatus),
    field<Message, &ResultRecord::error>(
        "error", {},
        [](const ResultRecord& r) { return !r.ok() && !r.error.empty(); }),
    field<JobKindName, &ResultRecord::result, &JobResult::kind>(
        kKind, "result kind", [](const ResultRecord& r) { return r.ok(); }),
    field<Kvs<kRunFields>, &ResultRecord::result, &JobResult::run>(
        kRun, {},
        [](const ResultRecord& r) {
          return r.ok() && r.result.kind == JobKind::kRun;
        }),
};
constexpr std::size_t kStatusIndex = 2;
constexpr std::size_t kResultKindIndex = 4;
constexpr std::size_t kRunIndex = 5;
static_assert(kResultLines[kStatusIndex].key == kStatus &&
              kResultLines[kResultKindIndex].key == kKind &&
              kResultLines[kRunIndex].key == kRun);

// ------------------------------------------------------------ lines

/// Appends a line for every present field of a record table.
template <typename T, std::size_t N>
void put_lines(std::string& out, const Field<T> (&fields)[N],
               const T& record) {
  for (const Field<T>& field : fields) {
    if (field.present == nullptr || field.present(record)) {
      put_line(out, field.key, [&] { field.write(out, record); });
    }
  }
}

/// Iterates a record's lines, skipping blank and '#'-comment lines and
/// tracking absolute numbers.
class LineScanner {
 public:
  LineScanner(std::string_view text, std::size_t first_line)
      : rest_(text), line_(first_line) {}

  std::optional<Line> next() {
    while (!rest_.empty()) {
      const std::size_t eol = std::min(rest_.find('\n'), rest_.size());
      const Line line{trim(rest_.substr(0, eol)), line_++};
      rest_.remove_prefix(std::min(eol + 1, rest_.size()));
      if (!line.text.empty() && line.text[0] != '#') return line;
    }
    return std::nullopt;
  }

  /// The line number just past the scanned text (for missing-end errors).
  [[nodiscard]] std::size_t eof_line() const { return line_; }

 private:
  std::string_view rest_;
  std::size_t line_;
};

/// Split "key rest..." on the first space run.
std::pair<std::string_view, std::string_view> key_rest(std::string_view s) {
  const std::size_t space = s.find(' ');
  if (space == std::string_view::npos) return {s, {}};
  return {s.substr(0, space), trim(s.substr(space + 1))};
}

void need_value(std::string_view key, std::string_view rest,
                const Line& line) {
  if (rest.empty()) fail("'" + std::string(key) + "' needs a value", line);
}

/// The record's header line, which must be exactly `expected`.
Line read_header(LineScanner& lines, std::size_t first_line,
                 const std::string& expected, const char* record_kind) {
  const auto header = lines.next();
  if (!header) fail("empty record", Line{{}, first_line});
  if (header->text == expected) return *header;
  if (starts_with(header->text, "apcc.job") ||
      starts_with(header->text, "apcc.result")) {
    fail("unsupported wire record header (expected '" + expected + "' -- a " +
             record_kind + " record of wire version " +
             std::to_string(kVersion) + ")",
         *header);
  }
  fail("expected '" + expected + "' record header", *header);
}

/// Reads a record body through `end`: single-valued lines through the
/// tables (a repeat is a duplicate), every other key through
/// `other(key, rest, line)`, which returns false for an unknown key.
/// Returns which table lines were seen.
template <typename Other, typename... Parts>
SeenSet parse_lines(LineScanner& lines, Other&& other,
                    const std::tuple<Parts...>& parts) {
  SeenSet seen;
  while (const auto line = lines.next()) {
    if (line->text == kEnd) return seen;
    const auto [key, rest] = key_rest(line->text);
    const auto on_field = [&](const auto& field, auto& object,
                              std::size_t index) {
      if (seen.test(index)) {
        fail("duplicate '" + std::string(key) + "' line", *line);
      }
      seen.set(index);
      need_value(key, rest, *line);
      field.read(object, rest, field.at(*line));
    };
    if (find_field(key, on_field, parts)) continue;
    if (!other(key, rest, *line)) {
      need_value(key, rest, *line);
      fail("unknown key '" + std::string(key) + "'", *line);
    }
  }
  fail("unterminated record (missing 'end')", Line{{}, lines.eof_line()});
}

}  // namespace

// ---------------------------------------------------- field encoding

std::string escape_field(std::string_view s) {
  if (s.empty()) return "-";
  if (s == "-") return "%2D";
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte > 0x20 && byte < 0x7F && byte != '%') {
      out += c;
    } else {
      out += '%';
      out += hex[byte >> 4];
      out += hex[byte & 0xF];
    }
  }
  return out;
}

std::string unescape_field(std::string_view s) {
  if (s == "-") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    // Exactly two hex digits (either case) follow the '%'.
    const char* hex = s.data() + i + 1;
    unsigned byte = 0;
    const auto res = std::from_chars(
        hex, hex + std::min<std::size_t>(2, s.size() - i - 1), byte, 16);
    APCC_CHECK(res.ec == std::errc{} && res.ptr == hex + 2,
               "malformed %-escape in wire field '" + std::string(s) + "'");
    out += static_cast<char>(byte);
    i += 2;
  }
  return out;
}

// --------------------------------------------------------------- jobs

std::string serialize_job(const JobSpec& spec) {
  std::string out = kJobHeader + '\n';
  put_lines(out, kJobMeta, spec);
  for (const std::string& ref : spec.workloads) {
    put_line(out, kWorkload, [&] { Text::write(out, ref); });
  }
  put_lines(out, kJobConfig, spec);
  for (const SweepTask& task : spec.tasks) {
    put_line(out, kTask, [&] { put_kvs(out, task_parts(task)); });
  }
  out += kEnd;
  out += '\n';
  return out;
}

JobSpec parse_job(std::string_view text, std::size_t first_line) {
  LineScanner lines(text, first_line);
  const Line header = read_header(lines, first_line, kJobHeader, "job");
  JobSpec spec;
  // Task lines are parsed after the whole record is read: keys may
  // appear in any order, and every task inherits the record-level
  // policy/costs/fit as its base.
  std::vector<std::pair<std::string_view, Line>> task_lines;
  std::optional<Line> grid;
  const auto other = [&](std::string_view key, std::string_view rest,
                         const Line& line) {
    if (key == kGrid) {
      if (grid) fail("duplicate 'grid' line", line);
      need_value(key, rest, line);
      if (rest != "strategy-k") {
        fail("unknown grid '" + std::string(rest) + "' (expected strategy-k)",
             line);
      }
      grid = line;
    } else if (key == kWorkload) {
      need_value(key, rest, line);
      Text::read(spec.workloads.emplace_back(), rest, At{key, line});
    } else if (key == kTask) {
      need_value(key, rest, line);
      task_lines.emplace_back(rest, line);
    } else {
      return false;
    }
    return true;
  };
  const SeenSet seen = parse_lines(
      lines, other, std::tuple(part(kJobMeta, spec), part(kJobConfig, spec)));
  if (!seen.test(kJobKindIndex)) fail("record is missing 'kind'", header);
  // Both explicit tasks and the grid sugar build on the same base: the
  // record-level engine config. (This is also why tasks parse after
  // the loop -- a `policy` line below a `task` line still applies.)
  const sim::EngineConfig base = core::engine_config(spec.config);
  for (const auto& [rest, line] : task_lines) {
    SweepTask& task = spec.tasks.emplace_back();
    task.config = base;
    parse_kvs(rest, line, task_parts(task));
  }
  if (grid) {
    if (!spec.tasks.empty()) {
      fail("'grid' and explicit 'task' lines are exclusive", *grid);
    }
    // Expand over the record's own base config; serialization emits
    // the explicit tasks, so the canonical form never contains 'grid'.
    spec.tasks = strategy_k_grid(base);
  }
  // A grid job with no grid -- or a campaign with no workloads -- would
  // "succeed" with zero outcomes: the silent-ignore trap this format
  // rejects everywhere else. (The typed in-process API keeps its
  // empty-job semantics; only records are held to this. The old batch
  // format's bare `campaign` meant "whole suite"; a record spells its
  // workloads out.)
  if (spec.kind != JobKind::kRun && spec.tasks.empty()) {
    fail(std::string(job_kind_name(spec.kind)) +
             " record needs 'task' lines or 'grid strategy-k'",
         header);
  }
  if (spec.kind == JobKind::kCampaign && spec.workloads.empty()) {
    fail("campaign record needs at least one 'workload' line", header);
  }
  try {
    validate(spec);
  } catch (const CheckError& e) {
    fail(e.what(), header);
  }
  return spec;
}

// ------------------------------------------------------------ results

std::string serialize_result(const ResultRecord& record) {
  std::string out = kResultHeader + '\n';
  put_lines(out, kResultLines, record);
  const auto put_outcomes = [&](const std::vector<SweepOutcome>& outcomes) {
    for (const SweepOutcome& outcome : outcomes) {
      put_line(out, kOutcome, [&] { put_kvs(out, outcome_parts(outcome)); });
    }
  };
  if (record.ok() && record.result.kind == JobKind::kSweep) {
    put_outcomes(record.result.sweep);
  } else if (record.ok() && record.result.kind == JobKind::kCampaign) {
    for (const sweep::CampaignResult& group : record.result.campaign) {
      put_line(out, kGroup, [&] { Text::write(out, group.workload); });
      put_outcomes(group.outcomes);
    }
  }
  out += kEnd;
  out += '\n';
  return out;
}

ResultRecord parse_result(std::string_view text, std::size_t first_line) {
  LineScanner lines(text, first_line);
  const Line header =
      read_header(lines, first_line, kResultHeader, "result");
  ResultRecord record;
  JobResult& result = record.result;
  const auto other = [&](std::string_view key, std::string_view rest,
                         const Line& line) {
    if (key == kOutcome) {
      need_value(key, rest, line);
      SweepOutcome& outcome =
          result.campaign.empty()
              ? result.sweep.emplace_back()
              : result.campaign.back().outcomes.emplace_back();
      parse_kvs(rest, line, outcome_parts(outcome));
    } else if (key == kGroup) {
      need_value(key, rest, line);
      Text::read(result.campaign.emplace_back().workload, rest,
                 At{key, line});
    } else {
      return false;
    }
    return true;
  };
  const SeenSet seen =
      parse_lines(lines, other, std::tuple(part(kResultLines, record)));
  const bool saw_kind = seen.test(kResultKindIndex);
  const bool saw_run = seen.test(kRunIndex);
  if (!seen.test(kStatusIndex)) fail("record is missing 'status'", header);
  if (!record.ok()) {
    // kError always explains itself; the lifecycle statuses are
    // self-describing, so their message is optional.
    if (record.status == JobStatus::kError && record.error.empty()) {
      fail("status error record is missing 'error'", header);
    }
    if (saw_kind || saw_run || !result.sweep.empty() ||
        !result.campaign.empty()) {
      fail(std::string("status ") + status_name(record.status) +
               " record cannot carry a payload",
           header);
    }
    return record;
  }
  if (!record.error.empty()) {
    fail("status ok record cannot carry 'error'", header);
  }
  if (!saw_kind) fail("status ok record is missing 'kind'", header);
  switch (result.kind) {
    case JobKind::kRun:
      if (!saw_run || !result.sweep.empty() || !result.campaign.empty()) {
        fail("run result needs exactly one 'run' line and no outcomes",
             header);
      }
      break;
    case JobKind::kSweep:
      if (saw_run || !result.campaign.empty()) {
        fail("sweep result carries only 'outcome' lines", header);
      }
      break;
    case JobKind::kCampaign:
      if (saw_run || !result.sweep.empty()) {
        fail("campaign outcomes must follow a 'group' line", header);
      }
      break;
  }
  return record;
}

// ------------------------------------------------------------ streams

std::optional<RawRecord> RecordReader::next() {
  std::string line;
  std::string_view content;
  // Skip blank / comment separators between records.
  for (;;) {
    if (!std::getline(in_, line)) return std::nullopt;
    ++line_;
    content = trim(line);
    if (!content.empty() && content[0] != '#') break;
  }

  RawRecord record;
  record.first_line = line_;
  if (starts_with(content, "apcc.result")) {
    record.is_result = true;
  } else if (!starts_with(content, "apcc.job")) {
    fail("expected an 'apcc.job' or 'apcc.result' record header",
         Line{content, line_});
  }
  record.text = line;
  record.text += '\n';
  // Copied, not viewed: `line` is reused (and may reallocate) while the
  // record body is read, and the header is this error's snippet.
  const std::string header(content);
  for (;;) {
    if (!std::getline(in_, line)) {
      fail("unterminated record (missing 'end')",
           Line{header, record.first_line});
    }
    ++line_;
    record.text += line;
    record.text += '\n';
    if (trim(line) == kEnd) break;
  }
  return record;
}

}  // namespace apcc::serving::wire
