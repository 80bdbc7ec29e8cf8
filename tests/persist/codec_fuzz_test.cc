// Property / fuzz suite for the persistence codec and file formats: every
// encode→decode round trip is exact (doubles bit-for-bit), and every
// truncated or bit-flipped input is rejected with a clean Status — never a
// crash, hang or out-of-bounds read (run under asan/ubsan by CI).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/event_log.h"
#include "persist/replay.h"
#include "persist/serialize.h"
#include "stats/rng.h"
#include "support/reference_byte_reader.h"
#include "support/reference_crc32.h"
#include "support/reference_snapshot_codec.h"

namespace cdt {
namespace persist {
namespace {

// --- primitive round trips ---------------------------------------------

TEST(CodecTest, VarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {
      0,
      1,
      127,
      128,
      16383,
      16384,
      (1ull << 32) - 1,
      1ull << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::string buffer;
    PutVarint64(&buffer, v);
    ByteReader reader(buffer);
    std::uint64_t decoded = 0;
    ASSERT_TRUE(reader.ReadVarint64(&decoded).ok());
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(CodecTest, ZigzagRoundTripsBoundaryValues) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 63,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t v : values) {
    std::string buffer;
    PutZigzag64(&buffer, v);
    ByteReader reader(buffer);
    std::int64_t decoded = 0;
    ASSERT_TRUE(reader.ReadZigzag64(&decoded).ok());
    EXPECT_EQ(decoded, v);
  }
}

TEST(CodecTest, DoubleRoundTripsExactBitPatterns) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           1e-300,
                           -1e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    std::string buffer;
    PutDouble(&buffer, v);
    ByteReader reader(buffer);
    double decoded = 0;
    ASSERT_TRUE(reader.ReadDouble(&decoded).ok());
    std::uint64_t expected_bits, decoded_bits;
    std::memcpy(&expected_bits, &v, 8);
    std::memcpy(&decoded_bits, &decoded, 8);
    EXPECT_EQ(decoded_bits, expected_bits);
  }
}

TEST(CodecTest, RandomizedPrimitiveRoundTrips) {
  stats::Xoshiro256 rng(0xC0DEC);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string buffer;
    const std::uint64_t u = rng.Next();
    const std::int64_t z = static_cast<std::int64_t>(rng.Next());
    const double d = rng.NextDouble(-1e6, 1e6);
    PutVarint64(&buffer, u);
    PutZigzag64(&buffer, z);
    PutDouble(&buffer, d);
    ByteReader reader(buffer);
    std::uint64_t ru = 0;
    std::int64_t rz = 0;
    double rd = 0;
    ASSERT_TRUE(reader.ReadVarint64(&ru).ok());
    ASSERT_TRUE(reader.ReadZigzag64(&rz).ok());
    ASSERT_TRUE(reader.ReadDouble(&rd).ok());
    EXPECT_EQ(ru, u);
    EXPECT_EQ(rz, z);
    EXPECT_EQ(rd, d);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(CodecTest, StringAndVectorRoundTrips) {
  std::string buffer;
  // The embedded NUL truncates the literal.
  testsupport::PutString(&buffer, "hello\0world");
  PutDoubleVector(&buffer, {1.5, -2.5, 0.0});
  PutIntVector(&buffer, {-3, 0, 7, 1 << 20});
  ByteReader reader(buffer);
  std::string text;
  std::vector<double> doubles;
  std::vector<int> ints;
  ASSERT_TRUE(testsupport::ReadString(&reader, &text).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&doubles).ok());
  ASSERT_TRUE(reader.ReadIntVector(&ints).ok());
  EXPECT_EQ(text, "hello");
  EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(ints, (std::vector<int>{-3, 0, 7, 1 << 20}));
}

TEST(CodecTest, EveryTruncationFailsCleanly) {
  std::string buffer;
  PutVarint64(&buffer, 1234567);
  PutZigzag64(&buffer, -987654);
  PutDouble(&buffer, 3.14159);
  testsupport::PutString(&buffer, "payload");
  PutDoubleVector(&buffer, {1.0, 2.0});
  // Decoding any strict prefix must fail with a Status, not crash.
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    ByteReader reader(std::string_view(buffer).substr(0, cut));
    std::uint64_t u;
    std::int64_t z;
    double d;
    std::string s;
    std::vector<double> vec;
    util::Status status = reader.ReadVarint64(&u);
    if (status.ok()) status = reader.ReadZigzag64(&z);
    if (status.ok()) status = reader.ReadDouble(&d);
    if (status.ok()) status = testsupport::ReadString(&reader, &s);
    if (status.ok()) status = reader.ReadDoubleVector(&vec);
    EXPECT_FALSE(status.ok()) << "prefix of length " << cut << " decoded";
    EXPECT_EQ(status.code(), util::StatusCode::kParseError);
  }
}

TEST(CodecTest, AbsurdVectorCountsRejectedBeforeAllocation) {
  std::string buffer;
  PutVarint64(&buffer, std::uint64_t{1} << 40);  // claim 2^40 doubles
  ByteReader reader(buffer);
  std::vector<double> values;
  EXPECT_EQ(reader.ReadDoubleVector(&values).code(),
            util::StatusCode::kParseError);
}

TEST(CodecTest, OverlongVarintRejected) {
  std::string buffer(10, '\xFF');  // continuation bit forever
  buffer.push_back('\x7F');
  ByteReader reader(buffer);
  std::uint64_t value;
  EXPECT_EQ(reader.ReadVarint64(&value).code(),
            util::StatusCode::kParseError);
}

TEST(CodecTest, Crc32MatchesKnownVectorAndChains) {
  // The classic CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  // Chaining two halves equals hashing the whole.
  const std::string data = "the quick brown fox";
  EXPECT_EQ(Crc32(data.substr(10), Crc32(data.substr(0, 10))), Crc32(data));
}

TEST(CodecTest, Crc32MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  // Crc32 folds 64-byte then 16-byte blocks and hands the last 0-15 bytes
  // to the portable slicing-by-8 body, which steps eight bytes and ends
  // bytewise: every length to 4 KiB and every start offset mod 16 takes
  // its own path through both. Crc32Portable is checked on its own too,
  // so it stays covered on hosts where Crc32 folds.
  stats::Xoshiro256 rng(0xC5C32);
  std::string buffer(4096 + 16, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 4096; ++length) {
      const std::string_view data =
          std::string_view(buffer).substr(offset, length);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      const std::uint32_t expected = testsupport::ReferenceCrc32(data, seed);
      ASSERT_EQ(Crc32(data, seed), expected)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32Portable(data, seed), expected)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(CodecTest, Crc32ChainsAcrossFoldBlockBoundaries) {
  // A chained CRC whose first piece ends one byte before, on, or one byte
  // after a 16-, 64- or 128-byte boundary: the fold's and the tail's
  // hand-offs must carry the register exactly.
  stats::Xoshiro256 rng(0xB10C5);
  for (int trial = 0; trial < 8; ++trial) {
    std::string buffer(129 + 300 + rng.Next() % 300, '\0');
    for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
    const std::string_view view(buffer);
    const auto seed = static_cast<std::uint32_t>(rng.Next());
    const std::uint32_t whole = testsupport::ReferenceCrc32(view, seed);
    for (std::size_t split : {15, 16, 17, 63, 64, 65, 127, 128, 129}) {
      for (const std::size_t first : {split, buffer.size() - split}) {
        const std::uint32_t head = Crc32(view.substr(0, first), seed);
        EXPECT_EQ(Crc32(view.substr(first), head), whole)
            << "split at " << first << " of " << buffer.size();
        EXPECT_EQ(Crc32Portable(view.substr(first),
                                Crc32Portable(view.substr(0, first), seed)),
                  whole)
            << "split at " << first << " of " << buffer.size();
      }
    }
  }
}

TEST(CodecTest, Crc32CombineEqualsTheChainedCrc) {
  // Combine carries crc_a over b's length with one factor per byte of the
  // length, so lengths with each of the four bytes set (and zero) are
  // covered, each against the CRC chained over b's bytes.
  stats::Xoshiro256 rng(0xC0B1E);
  std::string buffer((std::size_t{1} << 24) + 300, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
  const std::string_view view(buffer);
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 2048; ++length) {
    lengths.push_back(length);
  }
  for (std::size_t length : {65535, 65536, 65537, 1 << 20, 1 << 24,
                             (1 << 24) + 257}) {
    lengths.push_back(length);
  }
  for (std::size_t length : lengths) {
    const std::string_view b = view.substr(rng.Next() % 16, length);
    const auto crc_a = static_cast<std::uint32_t>(rng.Next());
    ASSERT_EQ(
        Crc32Combine(crc_a, Crc32(b), static_cast<std::uint32_t>(length)),
        Crc32(b, crc_a))
        << "length " << length;
  }
  // a ‖ b from the CRCs of its parts.
  const std::string_view a = view.substr(0, 1000);
  const std::string_view b = view.substr(1000, 3000);
  EXPECT_EQ(Crc32Combine(Crc32(a), Crc32(b), 3000),
            testsupport::ReferenceCrc32(view.substr(0, 4000)));
}

TEST(CodecTest, Crc32MatchesBytewiseOracleOnLargeRandomBuffers) {
  for (std::uint64_t seed : {1ull, 0xBADC0FFEEull, 0x5EED5EEDull}) {
    stats::Xoshiro256 rng(seed);
    std::string buffer((std::size_t{1} << 20) + rng.Next() % 4096, '\0');
    for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
    const std::uint32_t chain = static_cast<std::uint32_t>(rng.Next());
    EXPECT_EQ(Crc32(buffer), testsupport::ReferenceCrc32(buffer))
        << "seed " << seed;
    EXPECT_EQ(Crc32(buffer, chain), testsupport::ReferenceCrc32(buffer, chain))
        << "seed " << seed;
  }
  // All-ones and all-zeros pages: every table lookup hits the same entry.
  for (char fill : {'\0', '\xFF'}) {
    const std::string page((std::size_t{1} << 20) + 3, fill);
    EXPECT_EQ(Crc32(page), testsupport::ReferenceCrc32(page));
  }
}

TEST(CodecTest, Crc32ChainsAtEverySplitPoint) {
  stats::Xoshiro256 rng(0xC4A1);
  std::string buffer(64, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
  const std::uint32_t whole = testsupport::ReferenceCrc32(buffer);
  ASSERT_EQ(Crc32(buffer), whole);
  const std::string_view view(buffer);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))), whole)
        << "split at " << split;
  }
}

// --- fast-path boundaries ------------------------------------------------

/// LEB128 written one push_back per byte: the oracle for PutVarint64's
/// block append.
std::string BytewiseVarint(std::uint64_t value) {
  std::string out;
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
  return out;
}

TEST(CodecTest, PutVarintMatchesBytewiseEncodingAtEverySevenBitBoundary) {
  for (int bits = 0; bits <= 64; bits += 7) {
    const std::uint64_t edge = bits == 0 ? 0 : std::uint64_t{1} << bits;
    for (std::uint64_t value : {edge - 1, edge, edge + 1}) {
      std::string buffer = "prefix";
      PutVarint64(&buffer, value);
      EXPECT_EQ(buffer, "prefix" + BytewiseVarint(value)) << value;
      ByteReader reader(std::string_view(buffer).substr(6));
      std::uint64_t decoded = 0;
      ASSERT_TRUE(reader.ReadVarint64(&decoded).ok()) << value;
      EXPECT_EQ(decoded, value);
      EXPECT_TRUE(reader.empty());
    }
  }
  std::string fixed;
  PutFixed32(&fixed, 0x04030201u);
  PutFixed64(&fixed, 0x0C0B0A0908070605ull);
  EXPECT_EQ(fixed, std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0A"
                               "\x0B\x0C"));
}

TEST(CodecTest, VarintEndingOnTheLastByteDecodes) {
  // A multi-byte varint whose final byte is the buffer's final byte, read
  // from a view that ends there (nothing past it to over-read).
  std::string buffer;
  PutVarint64(&buffer, 300);
  ASSERT_EQ(buffer.size(), 2u);
  const std::string_view exact(buffer.data(), buffer.size());
  ByteReader reader(exact);
  std::uint64_t value = 0;
  ASSERT_TRUE(reader.ReadVarint64(&value).ok());
  EXPECT_EQ(value, 300u);
  EXPECT_TRUE(reader.empty());
  // One byte short of the end: truncated.
  ByteReader cut(exact.substr(0, 1));
  EXPECT_EQ(cut.ReadVarint64(&value).code(), util::StatusCode::kParseError);
}

TEST(CodecTest, TenByteVarintDecodesAndElevenByteVarintFails) {
  std::string ten;
  PutVarint64(&ten, std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(ten.size(), 10u);
  std::uint64_t value = 0;
  ByteReader reader(ten);
  ASSERT_TRUE(reader.ReadVarint64(&value).ok());
  EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(reader.empty());

  // Ten bytes with the continuation bit still set on the tenth (value bit
  // 63 only, so not an overflow) and an eleventh: longer than 10 bytes.
  std::string eleven(9, '\x80');
  eleven += '\x81';
  eleven += '\x00';
  ByteReader long_reader(eleven);
  const util::Status status = long_reader.ReadVarint64(&value);
  EXPECT_EQ(status.code(), util::StatusCode::kParseError);
  EXPECT_NE(status.ToString().find("longer than 10 bytes"), std::string::npos)
      << status.ToString();
  // The verdict comes from the tenth byte's continuation bit alone, so
  // the same ten bytes with no eleventh fail the same way.
  ByteReader ten_only(std::string_view(eleven).substr(0, 10));
  EXPECT_NE(ten_only.ReadVarint64(&value).ToString().find(
                "longer than 10 bytes"),
            std::string::npos);
}

TEST(CodecTest, FixedReadsOneByteShortFail) {
  const std::string bytes(8, '\x5A');
  std::uint32_t v32 = 7;
  std::uint64_t v64 = 7;
  for (std::size_t skip = 0; skip <= 1; ++skip) {
    // `skip` leading bytes consumed first, so the short read starts both
    // at the buffer's start and one byte in.
    ByteReader r32(std::string_view(bytes).substr(0, skip + 3));
    std::uint8_t byte = 0;
    if (skip) {
      ASSERT_TRUE(r32.ReadByte(&byte).ok());
    }
    EXPECT_EQ(r32.ReadFixed32(&v32).code(), util::StatusCode::kParseError);
    ByteReader r64(std::string_view(bytes).substr(0, skip + 7));
    if (skip) {
      ASSERT_TRUE(r64.ReadByte(&byte).ok());
    }
    EXPECT_EQ(r64.ReadFixed64(&v64).code(), util::StatusCode::kParseError);
    double d = 0;
    ByteReader rd(std::string_view(bytes).substr(0, skip + 7));
    if (skip) {
      ASSERT_TRUE(rd.ReadByte(&byte).ok());
    }
    EXPECT_EQ(rd.ReadDouble(&d).code(), util::StatusCode::kParseError);
  }
  EXPECT_EQ(v32, 7u);  // a failed read leaves the output untouched
  EXPECT_EQ(v64, 7u);
  // Exactly enough bytes succeed.
  ByteReader exact(std::string_view(bytes).substr(0, 4));
  ASSERT_TRUE(exact.ReadFixed32(&v32).ok());
  EXPECT_EQ(v32, 0x5A5A5A5Au);
  EXPECT_TRUE(exact.empty());
}

// --- inline reader against the out-of-line oracle ---------------------

enum class ReadOp {
  kVarint,
  kZigzag,
  kFixed32,
  kFixed64,
  kDouble,
  kBool,
  kByte,
  kBytes,
  kDoubleVector,
  kIntVector,
};
constexpr int kNumReadOps = 10;

/// A varint of a random bit width, so every length from 1 to 10 bytes
/// comes up.
std::uint64_t RandomWidth(stats::Xoshiro256* rng) {
  const int bits = static_cast<int>(rng->Next() % 65);
  return bits == 0 ? 0 : rng->Next() >> (64 - bits);
}

/// Appends a field `op` reads, sometimes one it must refuse: a bool byte
/// above 1, an int outside int32, a count larger than what follows.
void PutRandomField(ReadOp op, stats::Xoshiro256* rng, std::string* out) {
  const bool odd = rng->Next() % 8 == 0;
  switch (op) {
    case ReadOp::kVarint:
      PutVarint64(out, RandomWidth(rng));
      break;
    case ReadOp::kZigzag:
      PutZigzag64(out, static_cast<std::int64_t>(RandomWidth(rng)));
      break;
    case ReadOp::kFixed32:
      PutFixed32(out, static_cast<std::uint32_t>(rng->Next()));
      break;
    case ReadOp::kFixed64:
    case ReadOp::kDouble:
      PutFixed64(out, rng->Next());
      break;
    case ReadOp::kBool:
      PutByte(out,
              static_cast<std::uint8_t>(odd ? rng->Next() : rng->Next() & 1));
      break;
    case ReadOp::kByte:
      PutByte(out, static_cast<std::uint8_t>(rng->Next()));
      break;
    case ReadOp::kBytes:
      out->append(rng->Next() % 24, static_cast<char>(rng->Next()));
      break;
    case ReadOp::kDoubleVector: {
      const std::uint64_t count = rng->Next() % 6;
      PutVarint64(out, odd ? count + 3 : count);
      for (std::uint64_t i = 0; i < count; ++i) PutFixed64(out, rng->Next());
      break;
    }
    case ReadOp::kIntVector: {
      const std::uint64_t count = rng->Next() % 6;
      PutVarint64(out, count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const bool wide = odd && i + 1 == count;
        PutZigzag64(out, wide ? static_cast<std::int64_t>(RandomWidth(rng))
                              : static_cast<std::int64_t>(rng->Next() % 512) -
                                    256);
      }
      break;
    }
  }
}

/// Runs `ops` through both readers over `bytes` and requires the same
/// status (code and message), position and, on success, value after
/// every read, up to and including the first failure.
void ExpectReadersAgree(std::string_view bytes, const std::vector<ReadOp>& ops,
                        stats::Xoshiro256* rng) {
  ByteReader fast(bytes);
  testsupport::ReferenceByteReader reference(bytes);
  for (std::size_t step = 0; step < ops.size(); ++step) {
    util::Status got, want;
    bool same_value = true;
    switch (ops[step]) {
      case ReadOp::kVarint: {
        std::uint64_t a = 0, b = 0;
        got = fast.ReadVarint64(&a);
        want = reference.ReadVarint64(&b);
        same_value = a == b;
        break;
      }
      case ReadOp::kZigzag: {
        std::int64_t a = 0, b = 0;
        got = fast.ReadZigzag64(&a);
        want = reference.ReadZigzag64(&b);
        same_value = a == b;
        break;
      }
      case ReadOp::kFixed32: {
        std::uint32_t a = 0, b = 0;
        got = fast.ReadFixed32(&a);
        want = reference.ReadFixed32(&b);
        same_value = a == b;
        break;
      }
      case ReadOp::kFixed64: {
        std::uint64_t a = 0, b = 0;
        got = fast.ReadFixed64(&a);
        want = reference.ReadFixed64(&b);
        same_value = a == b;
        break;
      }
      case ReadOp::kDouble: {
        double a = 0, b = 0;
        got = fast.ReadDouble(&a);
        want = reference.ReadDouble(&b);
        same_value = std::memcmp(&a, &b, sizeof(a)) == 0;
        break;
      }
      case ReadOp::kBool: {
        bool a = false, b = false;
        got = fast.ReadBool(&a);
        want = reference.ReadBool(&b);
        same_value = a == b;
        break;
      }
      case ReadOp::kByte: {
        std::uint8_t a = 0, b = 0;
        got = fast.ReadByte(&a);
        want = reference.ReadByte(&b);
        same_value = a == b;
        break;
      }
      case ReadOp::kBytes: {
        const std::size_t length = rng->Next() % 28;
        std::string_view a, b;
        got = fast.ReadBytes(length, &a);
        want = reference.ReadBytes(length, &b);
        same_value = a.data() == b.data() && a.size() == b.size();
        break;
      }
      case ReadOp::kDoubleVector: {
        std::vector<double> a, b;
        got = fast.ReadDoubleVector(&a);
        want = reference.ReadDoubleVector(&b);
        same_value = a.size() == b.size() &&
                     (a.empty() || std::memcmp(a.data(), b.data(),
                                               a.size() * sizeof(double)) == 0);
        break;
      }
      case ReadOp::kIntVector: {
        std::vector<int> a, b;
        got = fast.ReadIntVector(&a);
        want = reference.ReadIntVector(&b);
        same_value = a == b;
        break;
      }
    }
    ASSERT_EQ(got, want) << "step " << step << ": " << got.ToString()
                         << " vs " << want.ToString();
    ASSERT_EQ(fast.position(), reference.position()) << "step " << step;
    if (!got.ok()) return;
    ASSERT_TRUE(same_value) << "step " << step;
  }
}

TEST(CodecTest, InlineReaderMatchesTheOutOfLineReader) {
  stats::Xoshiro256 rng(0x8EADE8);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<ReadOp> ops(1 + rng.Next() % 12);
    for (ReadOp& op : ops) op = static_cast<ReadOp>(rng.Next() % kNumReadOps);
    std::string bytes;
    switch (trial % 4) {
      case 0:  // random bytes
        bytes.resize(rng.Next() % 96);
        for (char& c : bytes) c = static_cast<char>(rng.Next());
        break;
      case 1:  // well-formed fields
        for (ReadOp op : ops) PutRandomField(op, &rng, &bytes);
        break;
      case 2:  // well-formed fields cut short
        for (ReadOp op : ops) PutRandomField(op, &rng, &bytes);
        bytes.resize(rng.Next() % (bytes.size() + 1));
        break;
      case 3:  // well-formed fields with bits flipped
        for (ReadOp op : ops) PutRandomField(op, &rng, &bytes);
        for (int flips = 1 + rng.Next() % 3; flips > 0 && !bytes.empty();
             --flips) {
          bytes[rng.Next() % bytes.size()] ^=
              static_cast<char>(1 << (rng.Next() % 8));
        }
        break;
    }
    ExpectReadersAgree(bytes, ops, &rng);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

// --- structure round trips ---------------------------------------------

core::MechanismConfig SmallConfig() {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 48;
  config.seed = 0xFEED;
  config.consumer_budget = 123.5;
  config.faults.default_rate = 0.1;
  config.faults.partial_rate = 0.05;
  config.faults.settlement_failure_rate = 0.07;
  config.faults.seed = 0xABCD;
  config.recovery.quarantine_threshold = 2;
  config.recovery.quarantine_cooldown = 9;
  return config;
}

TEST(SerializeTest, MechanismConfigRoundTripsEveryField) {
  const core::MechanismConfig config = SmallConfig();
  std::string buffer;
  EncodeMechanismConfig(config, &buffer);
  core::MechanismConfig decoded;
  ByteReader reader(buffer);
  ASSERT_TRUE(DecodeMechanismConfig(&reader, &decoded).ok());
  EXPECT_TRUE(reader.empty());
  // Re-encoding must reproduce the identical bytes (field-order drift or
  // a skipped field would show up here).
  std::string reencoded;
  EncodeMechanismConfig(decoded, &reencoded);
  EXPECT_EQ(reencoded, buffer);
  EXPECT_EQ(decoded.num_sellers, 12);
  EXPECT_EQ(decoded.num_rounds, 48);
  EXPECT_EQ(decoded.faults.seed, 0xABCDu);
  EXPECT_EQ(decoded.recovery.quarantine_cooldown, 9);
  EXPECT_EQ(decoded.consumer_budget, 123.5);
}

// Writers once stored a transfer-history flag just before
// check_invariants. A flag of 1 (the golden trace carries one) decodes and
// re-encodes as 0; any other byte there is refused, and every strict
// prefix fails.
TEST(SerializeTest, LegacyHistoryFlagInConfigDecodesAndReencodesAsZero) {
  core::MechanismConfig config = SmallConfig();
  std::string armed;
  EncodeMechanismConfig(config, &armed);
  config.check_invariants = false;
  std::string disarmed;
  EncodeMechanismConfig(config, &disarmed);
  ASSERT_EQ(armed.size(), disarmed.size());
  const std::size_t check_at = static_cast<std::size_t>(
      std::mismatch(armed.begin(), armed.end(), disarmed.begin()).first -
      armed.begin());
  ASSERT_GT(check_at, 0u);
  ASSERT_LT(check_at, armed.size());
  const std::size_t flag_at = check_at - 1;
  ASSERT_EQ(armed[flag_at], '\0');

  std::string legacy = armed;
  legacy[flag_at] = '\x01';
  core::MechanismConfig decoded;
  ByteReader reader(legacy);
  ASSERT_TRUE(DecodeMechanismConfig(&reader, &decoded).ok());
  EXPECT_TRUE(reader.empty());
  EXPECT_TRUE(decoded.check_invariants);
  std::string reencoded;
  EncodeMechanismConfig(decoded, &reencoded);
  EXPECT_EQ(reencoded, armed);

  legacy[flag_at] = '\x02';
  ByteReader bad(legacy);
  EXPECT_EQ(DecodeMechanismConfig(&bad, &decoded).code(),
            util::StatusCode::kParseError);
  legacy[flag_at] = '\x01';
  for (std::size_t cut = 0; cut < legacy.size(); ++cut) {
    ByteReader prefix(std::string_view(legacy).substr(0, cut));
    EXPECT_FALSE(DecodeMechanismConfig(&prefix, &decoded).ok())
        << "prefix of length " << cut << " decoded";
  }
}

market::RoundReport SampleReport() {
  market::RoundReport report;
  report.round = 7;
  report.selected = {4, 1, 9};
  report.game_qualities = {0.5, 0.25, 0.75};
  report.consumer_price = 12.25;
  report.collection_price = 1.5;
  report.tau = {2.0, 0.0, 1.0};
  report.total_time = 3.0;
  report.consumer_profit = 10.0;
  report.platform_profit = 4.0;
  report.seller_profits = {1.0, 0.0, 0.5};
  report.seller_profit_total = 1.5;
  report.expected_quality_revenue = 6.0;
  report.observed_quality_revenue = 5.5;
  report.degraded = true;
  report.resettled = true;
  report.contracted_tau = {2.0, 1.5, 1.0};
  report.faults.push_back(
      {7, market::FaultKind::kSellerDefault, 1, 0.0, true});
  report.faults.push_back(
      {7, market::FaultKind::kSettlementFailure, -1, 2.0, true});
  report.settlement_attempts = 3;
  report.settlement_backoff = 1.5;
  return report;
}

TEST(SerializeTest, RoundReportRoundTripsBitForBit) {
  const market::RoundReport report = SampleReport();
  const std::string bytes = CanonicalRoundBytes(report);
  market::RoundReport decoded;
  ByteReader reader(bytes);
  ASSERT_TRUE(DecodeRoundReport(&reader, &decoded).ok());
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(CanonicalRoundBytes(decoded), bytes);
  EXPECT_EQ(decoded.selected, report.selected);
  EXPECT_EQ(decoded.faults.size(), 2u);
  EXPECT_EQ(decoded.faults[1].kind, market::FaultKind::kSettlementFailure);
  EXPECT_EQ(decoded.settlement_attempts, 3);
}

TEST(SerializeTest, RoundReportTruncationsFailCleanly) {
  const std::string bytes = CanonicalRoundBytes(SampleReport());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    market::RoundReport decoded;
    ByteReader reader(std::string_view(bytes).substr(0, cut));
    util::Status status = DecodeRoundReport(&reader, &decoded);
    EXPECT_FALSE(status.ok()) << "prefix of length " << cut << " decoded";
  }
}

TEST(SerializeTest, EngineSnapshotRoundTrips) {
  market::EngineSnapshot snapshot;
  snapshot.next_round = 41;
  snapshot.budget_exhausted = false;
  snapshot.pricing_arms = {{10, 0.5}, {0, 0.0}, {7, 0.25}};
  snapshot.pricing_total_observations = 17;
  snapshot.ledger_balances = {-5.0, 2.0, 1.0, 1.0, 1.0};
  snapshot.ledger_consumer_outflow = 5.0;
  snapshot.ledger_seller_inflow = 3.0;
  snapshot.reliability.resize(3);
  snapshot.reliability[1].defaults = 2;
  snapshot.reliability[1].state = market::BreakerState::kOpen;
  snapshot.reliability[1].opened_round = 30;
  snapshot.reliability_total_faults = 2;
  snapshot.fault_counts[0] = 2;
  snapshot.environment.rng_state = {1, 2, 3, 4};
  snapshot.environment.has_spare = {1, 0, 1};
  snapshot.environment.spare = {0.25, 0.0, -1.5};

  std::string bytes;
  EncodeEngineSnapshot(snapshot, &bytes);
  market::EngineSnapshot decoded;
  ByteReader reader(bytes);
  ASSERT_TRUE(DecodeEngineSnapshot(&reader, &decoded).ok());
  EXPECT_TRUE(reader.empty());
  std::string reencoded;
  EncodeEngineSnapshot(decoded, &reencoded);
  EXPECT_EQ(reencoded, bytes);
  EXPECT_EQ(decoded.reliability[1].state, market::BreakerState::kOpen);
  EXPECT_EQ(decoded.ledger_consumer_outflow, 5.0);
  EXPECT_EQ(decoded.environment.rng_state[3], 4u);
}

// A snapshot with every section random: arms whose counters reach the
// 10-byte varints, negative zigzags in the cursor and breaker fields,
// fault counts, and the seller-activity tail in some draws.
market::EngineSnapshot RandomSnapshot(stats::Xoshiro256& rng) {
  auto wide = [&rng]() -> std::uint64_t {
    const int bits = static_cast<int>(rng.NextBounded(65));
    return bits == 64 ? rng.Next() : rng.Next() & ((1ULL << bits) - 1);
  };
  auto signed_wide = [&]() {
    return static_cast<std::int64_t>(wide()) *
           (rng.NextDouble() < 0.5 ? -1 : 1);
  };
  market::EngineSnapshot snapshot;
  const int m = static_cast<int>(rng.NextBounded(40));
  snapshot.next_round = signed_wide();
  snapshot.budget_exhausted = rng.NextDouble() < 0.5;
  for (int i = 0; i < m; ++i) {
    snapshot.pricing_arms.push_back({wide(), rng.NextDouble()});
  }
  snapshot.pricing_total_observations = wide();
  for (int i = 0; i < m + 2; ++i) {
    snapshot.ledger_balances.push_back(rng.NextDouble(-1e6, 1e6));
  }
  snapshot.ledger_consumer_outflow = rng.NextDouble(0.0, 1e9);
  snapshot.ledger_seller_inflow = rng.NextDouble(0.0, 1e9);
  snapshot.reliability.resize(static_cast<std::size_t>(m));
  for (market::SellerReliability& seller : snapshot.reliability) {
    seller.deliveries = signed_wide();
    seller.partials = signed_wide();
    seller.defaults = signed_wide();
    seller.corruptions = signed_wide();
    seller.quarantine_drops = signed_wide();
    seller.times_opened = signed_wide();
    seller.consecutive_faults = static_cast<int>(rng.Next());
    seller.probation_progress = static_cast<int>(rng.Next());
    seller.state = static_cast<market::BreakerState>(rng.NextBounded(3));
    seller.opened_round = signed_wide();
  }
  snapshot.reliability_total_faults = signed_wide();
  for (std::int64_t& count : snapshot.fault_counts) count = signed_wide();
  for (std::uint64_t& word : snapshot.environment.rng_state) word = rng.Next();
  for (int i = 0; i < m; ++i) {
    snapshot.environment.has_spare.push_back(
        static_cast<std::uint8_t>(rng.NextBounded(2)));
    snapshot.environment.spare.push_back(rng.NextDouble(-3.0, 3.0));
  }
  if (rng.NextDouble() < 0.5) {
    for (int i = 0; i < m; ++i) {
      snapshot.seller_active.push_back(
          static_cast<std::uint8_t>(rng.NextBounded(2)));
    }
  }
  return snapshot;
}

// The one-cursor encoder and snapshot file writer emit the per-field
// encoder's bytes exactly, appended after existing bytes too.
TEST(SerializeTest, SnapshotEncodingMatchesThePerFieldOracle) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("cdt_snapshot_oracle_" + std::to_string(::getpid()) + ".cdtsnap"))
          .string();
  stats::Xoshiro256 rng(0x5A9C0DE);
  for (int trial = 0; trial < 300; ++trial) {
    const market::EngineSnapshot snapshot = RandomSnapshot(rng);
    std::string want = "prefix";
    testsupport::ReferenceEncodeEngineSnapshot(snapshot, &want);
    std::string got = "prefix";
    EncodeEngineSnapshot(snapshot, &got);
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(EngineSnapshotSize(snapshot), want.size() - 6);

    if (trial % 5 != 0) continue;  // each file write syncs
    const std::uint32_t crc = static_cast<std::uint32_t>(rng.Next());
    ASSERT_TRUE(WriteSnapshotFile(path, crc, snapshot).ok());
    auto file = ReadFileBytes(path);
    ASSERT_TRUE(file.ok());
    ASSERT_EQ(file.value(), testsupport::ReferenceSnapshotFileBytes(crc,
                                                                    snapshot))
        << "trial " << trial;
  }
  std::filesystem::remove(path);
}

// Writers before the arms were stored once appended, under CUCB, a flag
// byte 1 and a copy of the arms section. The decoder reads that layout
// as the one-section snapshot when the copy repeats the arms exactly, and
// refuses it otherwise.
TEST(SerializeTest, TwoSectionSnapshotDecodesOnlyWhenItsCopyMatches) {
  stats::Xoshiro256 rng(0x2C0B1E5);
  int refused = 0;
  for (int trial = 0; trial < 100; ++trial) {
    market::EngineSnapshot snapshot = RandomSnapshot(rng);
    const std::vector<bandit::ArmState>& arms = snapshot.pricing_arms;
    const std::uint64_t total = snapshot.pricing_total_observations;
    std::string one_section;
    EncodeEngineSnapshot(snapshot, &one_section);
    auto decode = [](const std::string& bytes,
                     market::EngineSnapshot* decoded) {
      ByteReader reader(bytes);
      util::Status status = DecodeEngineSnapshot(&reader, decoded);
      if (status.ok() && !reader.empty()) {
        return util::Status::ParseError("trailing bytes");
      }
      return status;
    };

    std::string two_sections;
    testsupport::LegacySnapshotLayout layout;
    layout.second_arms = &arms;
    layout.second_total = total;
    testsupport::ReferenceEncodeLegacySnapshot(snapshot, layout,
                                               &two_sections);
    // The copy is the only difference: one arms section's bytes.
    std::size_t section = VarintSize(arms.size()) + VarintSize(total);
    for (const bandit::ArmState& arm : arms) {
      section += VarintSize(arm.observations) + 8;
    }
    ASSERT_EQ(two_sections.size(), one_section.size() + section);
    market::EngineSnapshot decoded;
    ASSERT_TRUE(decode(two_sections, &decoded).ok()) << "trial " << trial;
    std::string reencoded;
    EncodeEngineSnapshot(decoded, &reencoded);
    ASSERT_EQ(reencoded, one_section) << "trial " << trial;

    auto expect_refused = [&](const std::vector<bandit::ArmState>& copy,
                              std::uint64_t copy_total, const char* edit) {
      std::string bytes;
      testsupport::LegacySnapshotLayout copied;
      copied.second_arms = &copy;
      copied.second_total = copy_total;
      testsupport::ReferenceEncodeLegacySnapshot(snapshot, copied, &bytes);
      market::EngineSnapshot out;
      util::Status status = decode(bytes, &out);
      EXPECT_EQ(status.code(), util::StatusCode::kParseError)
          << edit << ", trial " << trial << ": " << status.ToString();
      ++refused;
    };
    // A changed total.
    expect_refused(arms, total + 1, "changed total");
    if (arms.empty()) continue;
    // A moved mean, still a valid mean in [0, 1].
    std::vector<bandit::ArmState> moved = arms;
    const std::size_t i = rng.NextBounded(arms.size());
    moved[i].mean = moved[i].mean > 0.5 ? moved[i].mean - 0.25
                                        : moved[i].mean + 0.25;
    expect_refused(moved, total, "moved mean");
    // Two swapped arms (the same observations in a different order).
    const std::size_t j = rng.NextBounded(arms.size());
    if (arms[i] != arms[j]) {
      std::vector<bandit::ArmState> swapped = arms;
      std::swap(swapped[i], swapped[j]);
      expect_refused(swapped, total, "swapped arms");
    }
  }
  EXPECT_GT(refused, 200);
}

// Writers once kept the consumer's spend in its own slot and could append
// a transfer history after the ledger aggregates. A snapshot whose spend
// slot holds its outflow's exact bits and whose history is empty is the
// canonical layout and round-trips byte-identically; a history or any
// other spend is refused; every strict prefix fails.
TEST(SerializeTest, LegacyLedgerSectionDecodesOnlyWithoutHistory) {
  stats::Xoshiro256 rng(0x1ED6E5);
  auto decode = [](const std::string& bytes) {
    market::EngineSnapshot decoded;
    ByteReader reader(bytes);
    util::Status status = DecodeEngineSnapshot(&reader, &decoded);
    if (status.ok() && !reader.empty()) {
      return util::Status::ParseError("trailing bytes");
    }
    return status;
  };
  for (int trial = 0; trial < 60; ++trial) {
    market::EngineSnapshot snapshot = RandomSnapshot(rng);
    // The activity tail is optional, so a prefix ending before it decodes.
    snapshot.seller_active.clear();
    const double outflow = snapshot.ledger_consumer_outflow;
    std::string canonical;
    EncodeEngineSnapshot(snapshot, &canonical);

    testsupport::LegacySnapshotLayout layout;
    layout.consumer_spend = outflow;
    std::string legacy;
    testsupport::ReferenceEncodeLegacySnapshot(snapshot, layout, &legacy);
    ASSERT_EQ(legacy, canonical) << "trial " << trial;
    market::EngineSnapshot decoded;
    ByteReader reader(legacy);
    ASSERT_TRUE(DecodeEngineSnapshot(&reader, &decoded).ok())
        << "trial " << trial;
    ASSERT_TRUE(reader.empty()) << "trial " << trial;
    std::string reencoded;
    EncodeEngineSnapshot(decoded, &reencoded);
    ASSERT_EQ(reencoded, legacy) << "trial " << trial;
    for (std::size_t cut = 0; cut < legacy.size(); ++cut) {
      ASSERT_FALSE(decode(legacy.substr(0, cut)).ok())
          << "trial " << trial << ": prefix of length " << cut << " decoded";
    }

    auto expect_refused = [&](const testsupport::LegacySnapshotLayout& edit,
                              const char* what) {
      std::string bytes;
      testsupport::ReferenceEncodeLegacySnapshot(snapshot, edit, &bytes);
      const util::Status status = decode(bytes);
      EXPECT_EQ(status.code(), util::StatusCode::kParseError)
          << what << ", trial " << trial << ": " << status.ToString();
    };
    testsupport::LegacySnapshotLayout history;
    const int transfers = 1 + static_cast<int>(rng.NextBounded(20));
    for (int t = 0; t < transfers; ++t) {
      std::string memo(rng.NextBounded(200), ' ');
      for (char& c : memo) c = static_cast<char>(rng.NextBounded(256));
      history.transfers.push_back(
          {static_cast<std::int64_t>(rng.Next()),
           static_cast<std::int32_t>(rng.Next()),
           static_cast<std::int32_t>(rng.Next()), rng.NextDouble(0.0, 1e4),
           std::move(memo)});
    }
    expect_refused(history, "transfer history");

    testsupport::LegacySnapshotLayout spend;
    spend.consumer_spend = outflow + 1.0;
    expect_refused(spend, "larger spend");
    spend.consumer_spend = std::nextafter(outflow, 2e9);
    expect_refused(spend, "spend one ulp above");
    spend.consumer_spend = -outflow;
    expect_refused(spend, "negated spend");
    spend.consumer_spend = std::numeric_limits<double>::quiet_NaN();
    expect_refused(spend, "NaN spend");
  }
}

// --- file-level corruption ---------------------------------------------

class EventLogFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cdt_codec_fuzz_" + std::to_string(::getpid()) + ".cdtlog"))
                .string();
    core::MechanismConfig config = SmallConfig();
    auto writer = EventLogWriter::Open(path_, config, {});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::int64_t round = 1; round <= 5; ++round) {
      market::RoundReport report = SampleReport();
      report.round = round;
      ASSERT_TRUE(writer.value()->AppendRound(report).ok());
    }
    ASSERT_TRUE(writer.value()->Finish().ok());
    auto bytes = ReadFileBytes(path_);
    ASSERT_TRUE(bytes.ok());
    pristine_ = std::move(bytes).value();
  }

  void TearDown() override { std::filesystem::remove(path_); }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string pristine_;
};

TEST_F(EventLogFuzzTest, PristineLogLoadsSealed) {
  auto run = LoadRecordedRun(path_);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().sealed);
  EXPECT_EQ(run.value().rounds.size(), 5u);
}

TEST_F(EventLogFuzzTest, EveryBitFlipIsRejectedOrDetectedCleanly) {
  // Flip one bit in every byte of the file; the loader must either reject
  // with a clean Status or (never) silently accept altered round bytes.
  stats::Xoshiro256 rng(0xF11B);
  for (std::size_t i = 0; i < pristine_.size(); ++i) {
    std::string corrupt = pristine_;
    corrupt[i] = static_cast<char>(
        static_cast<std::uint8_t>(corrupt[i]) ^
        (1u << (rng.Next() % 8)));
    WriteBytes(corrupt);
    auto run = LoadRecordedRun(path_);
    if (run.ok()) {
      // The flip must have been somewhere harmless is impossible: every
      // byte is covered by magic, version, framing or a CRC. Accepting a
      // corrupted file is a failure.
      ADD_FAILURE() << "bit flip at byte " << i << " was not detected";
    } else {
      // The taxonomy is part of the contract: framing damage is a parse
      // error, CRC-detected damage in complete records is corruption, and
      // a flipped version byte is version skew — never anything else.
      const util::StatusCode code = run.status().code();
      EXPECT_TRUE(code == util::StatusCode::kParseError ||
                  code == util::StatusCode::kCorruption ||
                  code == util::StatusCode::kVersionMismatch)
          << "byte " << i << ": " << run.status().ToString();
    }
  }
}

TEST_F(EventLogFuzzTest, EveryTruncationIsRejectedWithoutTornTail) {
  for (std::size_t cut = 0; cut < pristine_.size(); ++cut) {
    WriteBytes(pristine_.substr(0, cut));
    auto run = LoadRecordedRun(path_, /*allow_torn_tail=*/false);
    EXPECT_FALSE(run.ok()) << "truncation at byte " << cut << " accepted";
  }
}

TEST_F(EventLogFuzzTest, TornTailRecoversCompletePrefix) {
  // Chop the file at every byte: with allow_torn_tail, a cut past the
  // config record recovers the complete-round prefix (unsealed); a cut
  // inside the header or config record still fails cleanly — a log
  // without its config is unusable even for crash recovery. Recovered
  // round counts must be monotone in the cut point.
  std::size_t recoveries = 0;
  std::size_t max_rounds = 0;
  for (std::size_t cut = 0; cut < pristine_.size(); ++cut) {
    WriteBytes(pristine_.substr(0, cut));
    auto run = LoadRecordedRun(path_, /*allow_torn_tail=*/true);
    if (!run.ok()) {
      // Only acceptable before any recovery succeeded (torn config);
      // once the config record is complete every longer prefix loads.
      EXPECT_EQ(recoveries, 0u)
          << "cut at " << cut << ": " << run.status().ToString();
      continue;
    }
    ++recoveries;
    EXPECT_FALSE(run.value().sealed) << "cut at " << cut;
    EXPECT_GE(run.value().rounds.size(), max_rounds) << "cut at " << cut;
    max_rounds = std::max(max_rounds, run.value().rounds.size());
  }
  EXPECT_GT(recoveries, 0u);
  // Cutting inside the footer leaves all five rounds recoverable.
  EXPECT_EQ(max_rounds, 5u);
}

TEST_F(EventLogFuzzTest, RandomGarbageNeverCrashesTheLoader) {
  stats::Xoshiro256 rng(0xDEAD);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(1 + rng.Next() % 512, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.Next() & 0xFF);
    }
    // Valid magic on some trials so parsing gets past the header.
    if (trial % 2 == 0 && garbage.size() > 9) {
      std::memcpy(&garbage[0], kLogMagic, 8);
      garbage[8] = 1;  // format version varint
    }
    WriteBytes(garbage);
    auto strict = LoadRecordedRun(path_, false);
    auto torn = LoadRecordedRun(path_, true);
    EXPECT_FALSE(strict.ok());
    // With torn-tail tolerance garbage may parse to zero rounds, but a
    // config record can never materialize from noise.
    if (torn.ok()) {
      ADD_FAILURE() << "garbage trial " << trial << " produced a run";
    }
  }
}

TEST_F(EventLogFuzzTest, SnapshotFileCorruptionRejected) {
  const std::string snap_path = path_ + ".snap";
  market::EngineSnapshot snapshot;
  snapshot.next_round = 3;
  snapshot.pricing_arms = {{1, 0.5}};
  snapshot.pricing_total_observations = 1;
  snapshot.ledger_balances = {0.0, 0.0, 0.0};
  snapshot.reliability.resize(1);
  snapshot.environment.rng_state = {1, 2, 3, 4};
  snapshot.environment.has_spare = {0};
  snapshot.environment.spare = {0.0};
  ASSERT_TRUE(WriteSnapshotFile(snap_path, 1234, snapshot).ok());
  auto clean = ReadSnapshotFile(snap_path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean.value().config_crc, 1234u);
  EXPECT_EQ(clean.value().snapshot.next_round, 3);

  auto bytes = ReadFileBytes(snap_path);
  ASSERT_TRUE(bytes.ok());
  std::string pristine = std::move(bytes).value();
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string corrupt = pristine;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto flipped = ReadSnapshotFile(snap_path);
    ASSERT_FALSE(flipped.ok())
        << "snapshot bit flip at byte " << i << " accepted";
    // Same error taxonomy as the event log: framing = parse error,
    // CRC-caught payload damage = corruption, version byte = skew.
    const util::StatusCode code = flipped.status().code();
    EXPECT_TRUE(code == util::StatusCode::kParseError ||
                code == util::StatusCode::kCorruption ||
                code == util::StatusCode::kVersionMismatch)
        << "byte " << i << ": " << flipped.status().ToString();
  }

  // Every strict prefix must fail too — snapshots are atomic, so a short
  // file is damage, never a torn tail to repair.
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(pristine.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(ReadSnapshotFile(snap_path).ok())
        << "snapshot truncated to " << cut << " bytes accepted";
  }

  // Random garbage (with and without a valid magic) never crashes.
  stats::Xoshiro256 rng(0xBEEF);
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage(1 + rng.Next() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next() & 0xFF);
    if (trial % 2 == 0 && garbage.size() > 9) {
      std::memcpy(&garbage[0], kSnapshotMagic, 8);
      garbage[8] = 1;  // format version varint
    }
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
    out.close();
    EXPECT_FALSE(ReadSnapshotFile(snap_path).ok())
        << "garbage snapshot trial " << trial << " accepted";
  }
  std::filesystem::remove(snap_path);
}

}  // namespace
}  // namespace persist
}  // namespace cdt
