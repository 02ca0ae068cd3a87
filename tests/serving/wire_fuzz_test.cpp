// Deterministic mutation fuzz of the wire record parsers and the socket
// framer. Every golden file under tests/serving/data is mutated with
// seeded bit flips, truncations, line splices and duplicated lines; each
// mutant must then
//  * split into records, or stop at a WireError, identically through the
//    one-shot RecordReader and through net::RecordFramer fed at seeded
//    random chunkings;
//  * per record, either throw a WireError whose line lies inside that
//    record, or parse to a record whose canonical re-serialization is a
//    serialize/parse fixed point.
// Any other exception fails the test; a crash fails the binary. The seed
// and iteration count are fixed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/framer.hpp"
#include "serving/wire.hpp"

#ifndef APCC_WIRE_DATA_DIR
#define APCC_WIRE_DATA_DIR "."
#endif

namespace apcc::serving::wire {
namespace {

constexpr std::uint64_t kSeed = 0x5eed'a9cc'f022'0007;
constexpr int kMutantsPerGolden = 600;

/// Every *.wire golden, in file-name order (so the seeded run is the
/// same wherever the directory lists its files).
std::vector<std::string> goldens() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(APCC_WIRE_DATA_DIR)) {
    if (entry.path().extension() == ".wire") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> out;
  for (const auto& path : paths) {
    std::ifstream file(path);
    std::ostringstream raw;
    raw << file.rdbuf();
    out.push_back(raw.str());
  }
  return out;
}

/// A uniform draw in [0, n) straight from the engine, whose output the
/// standard fixes (the distributions' is implementation-defined).
std::size_t draw(std::mt19937_64& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
}

/// Byte offsets at which a line starts (0 and after every '\n').
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n' && i + 1 < text.size()) starts.push_back(i + 1);
  }
  return starts;
}

/// The line (with its '\n', if any) starting at `start`.
std::string line_at(const std::string& text, std::size_t start) {
  const std::size_t nl = text.find('\n', start);
  return text.substr(start, nl == std::string::npos ? std::string::npos
                                                    : nl + 1 - start);
}

/// One to three seeded mutations of `text`; `donors` supply spliced
/// lines.
std::string mutate(std::string text, const std::vector<std::string>& donors,
                   std::mt19937_64& rng) {
  const std::size_t rounds = 1 + draw(rng, 3);
  for (std::size_t round = 0; round < rounds; ++round) {
    switch (draw(rng, 4)) {
      case 0:  // bit flip
        if (!text.empty()) {
          text[draw(rng, text.size())] ^=
              static_cast<char>(1u << draw(rng, 8));
        }
        break;
      case 1:  // truncation
        text.resize(draw(rng, text.size() + 1));
        break;
      case 2: {  // splice a line of some golden in at a line start
        const std::string& donor = donors[draw(rng, donors.size())];
        const auto donor_starts = line_starts(donor);
        const std::string line =
            line_at(donor, donor_starts[draw(rng, donor_starts.size())]);
        const auto starts = line_starts(text);
        text.insert(starts[draw(rng, starts.size())], line);
        break;
      }
      default: {  // duplicate a line in place
        const auto starts = line_starts(text);
        const std::size_t start = starts[draw(rng, starts.size())];
        text.insert(start, line_at(text, start));
        break;
      }
    }
  }
  return text;
}

/// How a stream splits: its records, and the line of the WireError that
/// stopped the split, if one did.
struct Split {
  std::vector<RawRecord> records;
  std::optional<std::size_t> error_line;
};

Split read_whole(const std::string& text) {
  Split split;
  std::istringstream in(text);
  RecordReader reader(in);
  try {
    while (auto record = reader.next()) split.records.push_back(*record);
  } catch (const WireError& e) {
    split.error_line = e.line();
  }
  return split;
}

Split read_framed(const std::string& text, std::mt19937_64& rng) {
  Split split;
  net::RecordFramer framer;
  try {
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t n = 1 + draw(rng, 64);
      framer.feed(std::string_view(text).substr(pos, n));
      pos += n;
      while (auto record = framer.next()) split.records.push_back(*record);
    }
    framer.finish();
    while (auto record = framer.next()) split.records.push_back(*record);
  } catch (const WireError& e) {
    split.error_line = e.line();
  }
  return split;
}

void expect_same_records(const Split& got, const Split& want) {
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].text, want.records[i].text);
    EXPECT_EQ(got.records[i].first_line, want.records[i].first_line);
    EXPECT_EQ(got.records[i].is_result, want.records[i].is_result);
  }
}

/// Parse one record: a WireError must point inside it, a success must
/// re-serialize to a fixed point. True when it parsed.
bool check_record(const RawRecord& raw) {
  const auto lines = static_cast<std::size_t>(
      std::count(raw.text.begin(), raw.text.end(), '\n'));
  try {
    if (raw.is_result) {
      const std::string canonical =
          serialize_result(parse_result(raw.text, raw.first_line));
      EXPECT_EQ(serialize_result(parse_result(canonical)), canonical);
    } else {
      const std::string canonical =
          serialize_job(parse_job(raw.text, raw.first_line));
      EXPECT_EQ(serialize_job(parse_job(canonical)), canonical);
    }
    return true;
  } catch (const WireError& e) {
    EXPECT_GE(e.line(), raw.first_line) << e.what();
    EXPECT_LT(e.line(), raw.first_line + lines) << e.what();
    return false;
  }
}

TEST(WireFuzz, MutatedGoldensErrorInPlaceOrRoundTrip) {
  const std::vector<std::string> inputs = goldens();
  ASSERT_GE(inputs.size(), 10u) << "goldens missing from "
                                << APCC_WIRE_DATA_DIR;
  std::mt19937_64 rng(kSeed);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (const std::string& golden : inputs) {
    ASSERT_FALSE(golden.empty());
    for (int i = 0; i < kMutantsPerGolden; ++i) {
      const std::string mutant = mutate(golden, inputs, rng);
      SCOPED_TRACE("mutant:\n" + mutant);
      try {
        const Split whole = read_whole(mutant);
        const Split framed = read_framed(mutant, rng);
        // The framer refuses a final line with no '\n' (RecordReader's
        // getline takes it): it must frame exactly what the reader frames
        // from the complete lines, then stop at an error.
        const std::size_t complete = mutant.rfind('\n') + 1;
        if (complete == mutant.size()) {
          expect_same_records(framed, whole);
          EXPECT_EQ(framed.error_line, whole.error_line);
        } else {
          const Split prefix = read_whole(mutant.substr(0, complete));
          expect_same_records(framed, prefix);
          ASSERT_TRUE(framed.error_line.has_value());
          if (prefix.error_line) {
            EXPECT_EQ(*framed.error_line, *prefix.error_line);
          }
        }
        for (const RawRecord& raw : whole.records) {
          ++(check_record(raw) ? parsed : refused);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "unexpected exception: " << e.what();
      }
      if (HasFailure()) return;
    }
  }
  // The mutants reach both outcomes, not just one of them.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace apcc::serving::wire
