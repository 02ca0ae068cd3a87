// Parameterised codec tests: the round-trip property must hold for every
// codec on every input class, trained codecs must actually compress
// instruction-like data, and corrupted streams must never crash a
// decoder or make it return the wrong number of bytes.
#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace apcc::compress {
namespace {

std::vector<Bytes> instruction_training_data() {
  // Real assembled code from the suite gives realistic byte statistics.
  static const std::vector<Bytes> data = [] {
    const auto w = workloads::make_workload(
        workloads::WorkloadKind::kAdpcmLike);
    return w.block_bytes;
  }();
  return data;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecKind> {
 protected:
  std::unique_ptr<Codec> codec() const {
    const auto training = instruction_training_data();
    return make_codec(GetParam(), training);
  }

  static void expect_roundtrip(const Codec& c, const Bytes& input) {
    const Bytes compressed = c.compress(input);
    const Bytes output = c.decompress(compressed, input.size());
    ASSERT_EQ(output, input) << c.name() << " failed on " << input.size()
                             << " bytes";
  }
};

TEST_P(CodecRoundTrip, EmptyInput) {
  const auto c = codec();
  expect_roundtrip(*c, {});
}

TEST_P(CodecRoundTrip, SingleByte) {
  const auto c = codec();
  expect_roundtrip(*c, {0x42});
}

TEST_P(CodecRoundTrip, AllZeros) {
  const auto c = codec();
  expect_roundtrip(*c, Bytes(1000, 0));
}

TEST_P(CodecRoundTrip, AllDistinctBytes) {
  Bytes input(256);
  for (int i = 0; i < 256; ++i) input[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, RepeatingPattern) {
  Bytes input;
  for (int i = 0; i < 500; ++i) {
    input.push_back(static_cast<std::uint8_t>(i % 7));
  }
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, AlternatingBytes) {
  Bytes input;
  for (int i = 0; i < 300; ++i) {
    input.push_back(i % 2 == 0 ? 0xaa : 0x55);
  }
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, RandomBytesManySizes) {
  apcc::Rng rng(99);
  const auto c = codec();
  for (const std::size_t size : {1u, 2u, 3u, 5u, 17u, 64u, 255u, 1024u}) {
    Bytes input(size);
    for (auto& b : input) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    expect_roundtrip(*c, input);
  }
}

TEST_P(CodecRoundTrip, RealInstructionBlocks) {
  const auto c = codec();
  for (const auto& block : instruction_training_data()) {
    expect_roundtrip(*c, block);
  }
}

TEST_P(CodecRoundTrip, OddLengthInput) {
  // Exercises the halfword codec's trailing-byte path in particular.
  Bytes input = {1, 2, 3, 4, 5, 6, 7};
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, CostsArePositive) {
  const auto c = codec();
  const auto& costs = c->costs();
  EXPECT_GT(costs.decompress_cycles(100), 0u);
  EXPECT_GT(costs.compress_cycles(100), 0u);
  EXPECT_GT(costs.decompress_cycles(1000), costs.decompress_cycles(10));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTrip,
    ::testing::ValuesIn(kAllCodecKinds),
    [](const ::testing::TestParamInfo<CodecKind>& info) {
      std::string name = codec_kind_name(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ------------------------------------------------- non-parameterised

TEST(CodecFactory, NamesMatchKinds) {
  EXPECT_STREQ(codec_kind_name(CodecKind::kNull), "null");
  EXPECT_STREQ(codec_kind_name(CodecKind::kLzss), "lzss");
  EXPECT_STREQ(codec_kind_name(CodecKind::kFieldSplit), "field-split");
  for (std::size_t i = 0; i < kAllCodecKinds.size(); ++i) {
    const CodecKind kind = kAllCodecKinds[i];
    // The list is the enum in order, so a CodecKind's value is its index.
    EXPECT_EQ(static_cast<std::size_t>(kind), i);
    const auto c = make_codec(kind, instruction_training_data());
    EXPECT_EQ(c->name(), codec_kind_name(kind));
  }
}

TEST(CodecRatios, TrainedCodecsCompressInstructionData) {
  const auto training = instruction_training_data();
  for (const CodecKind kind :
       {CodecKind::kSharedHuffman, CodecKind::kLzss, CodecKind::kCodePack,
        CodecKind::kFieldSplit}) {
    const auto c = make_codec(kind, training);
    const double ratio = compression_ratio(*c, training);
    EXPECT_LT(ratio, 0.95) << c->name()
                           << " should compress instruction bytes";
    EXPECT_GT(ratio, 0.1) << c->name() << " ratio implausibly small";
  }
}

TEST(CodecRatios, NullCodecRatioIsOne) {
  const auto c = make_codec(CodecKind::kNull);
  const auto training = instruction_training_data();
  EXPECT_DOUBLE_EQ(compression_ratio(*c, training), 1.0);
}

TEST(CodecRatios, SharedHuffmanBeatsPerStreamOnSmallBlocks) {
  const auto training = instruction_training_data();
  const auto shared = make_codec(CodecKind::kSharedHuffman, training);
  const auto per_stream = make_codec(CodecKind::kHuffman, training);
  // Per-stream Huffman pays a 128-byte table per block; on basic blocks
  // the shared model must win.
  EXPECT_LT(compression_ratio(*shared, training),
            compression_ratio(*per_stream, training));
}

TEST(CodecCosts, ScalesWithOriginalSize) {
  CodecCosts costs;
  costs.decompress_cycles_per_byte = 2.0;
  costs.decompress_fixed_cycles = 10;
  EXPECT_EQ(costs.decompress_cycles(0), 10u);
  EXPECT_EQ(costs.decompress_cycles(100), 210u);
}

TEST(CorruptStreams, TruncatedStreamsThrowNotCrash) {
  const auto training = instruction_training_data();
  for (const CodecKind kind : kAllCodecKinds) {
    const auto c = make_codec(kind, training);
    const Bytes input(64, 0x3c);
    Bytes compressed = c->compress(input);
    ASSERT_FALSE(compressed.empty());
    compressed.resize(compressed.size() / 2);  // truncate
    EXPECT_THROW((void)c->decompress(compressed, input.size()),
                 apcc::CheckError)
        << c->name();
  }
}

/// Every basic block of the eight suite workloads.
std::vector<Bytes> suite_blocks() {
  std::vector<Bytes> out;
  for (const auto kind : workloads::all_workload_kinds()) {
    const auto w = workloads::make_workload(kind);
    out.insert(out.end(), w.block_bytes.begin(), w.block_bytes.end());
  }
  return out;
}

/// One seeded corruption of a compressed stream: flip one bit, cut the
/// stream short, or append one byte.
Bytes mutate(const Bytes& stream, apcc::Rng& rng) {
  Bytes out = stream;
  switch (out.empty() ? 2 : rng.next_below(3)) {
    case 0:
      out[rng.next_below(out.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      break;
    case 1:
      out.resize(rng.next_below(out.size()));
      break;
    default:
      out.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      break;
  }
  return out;
}

TEST(CorruptStreams, SeededMutationsThrowOrDecodeToSize) {
  // A decoder fed a corrupted stream must fail with a CheckError or
  // hand back exactly original_size bytes -- never crash, hang, or
  // return a short or long buffer. (Same-size wrong bytes are allowed:
  // no codec carries a digest.)
  constexpr int kMutationsPerBlock = 32;
  const auto blocks = suite_blocks();
  ASSERT_FALSE(blocks.empty());
  for (const CodecKind kind : kAllCodecKinds) {
    const auto c = make_codec(kind, blocks);
    apcc::Rng rng(0xc0dec + static_cast<std::uint64_t>(kind));
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const Bytes stream = c->compress(blocks[b]);
      for (int m = 0; m < kMutationsPerBlock; ++m) {
        const Bytes corrupt = mutate(stream, rng);
        try {
          const Bytes out = c->decompress(corrupt, blocks[b].size());
          ASSERT_EQ(out.size(), blocks[b].size())
              << c->name() << " block " << b << " mutation " << m;
        } catch (const apcc::CheckError&) {
          // A detected corruption is the other allowed outcome.
        }
      }
    }
  }
}

}  // namespace
}  // namespace apcc::compress
