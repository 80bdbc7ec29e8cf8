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
#include "support/reference_crc32.h"

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
  PutString(&buffer, "hello\0world" /* embedded NUL truncates literal */);
  PutDoubleVector(&buffer, {1.5, -2.5, 0.0});
  PutIntVector(&buffer, {-3, 0, 7, 1 << 20});
  ByteReader reader(buffer);
  std::string text;
  std::vector<double> doubles;
  std::vector<int> ints;
  ASSERT_TRUE(reader.ReadString(&text).ok());
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
  PutString(&buffer, "payload");
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
    if (status.ok()) status = reader.ReadString(&s);
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
  // Slicing-by-8 folds eight bytes per step and finishes bytewise, so
  // every length mod 8 and every start offset mod 8 takes its own path
  // through the main loop and the tail.
  stats::Xoshiro256 rng(0xC5C32);
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::string_view data =
          std::string_view(buffer).substr(offset, length);
      ASSERT_EQ(Crc32(data), testsupport::ReferenceCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
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

// --- structure round trips ---------------------------------------------

core::MechanismConfig SmallConfig() {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 48;
  config.seed = 0xFEED;
  config.consumer_budget = 123.5;
  config.track_transfers = true;
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
  snapshot.consumer_spend = 321.25;
  snapshot.pricing_arms = {{10, 0.5}, {0, 0.0}, {7, 0.25}};
  snapshot.pricing_total_observations = 17;
  snapshot.has_policy_arms = true;
  snapshot.policy_arms = snapshot.pricing_arms;
  snapshot.policy_total_observations = 17;
  snapshot.ledger_balances = {-5.0, 2.0, 1.0, 1.0, 1.0};
  snapshot.ledger_consumer_outflow = 5.0;
  snapshot.ledger_seller_inflow = 3.0;
  snapshot.ledger_transfers.push_back(
      {3, market::kConsumerAccount, market::kPlatformAccount, 2.5,
       "reward"});
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
  EXPECT_EQ(decoded.ledger_transfers[0].memo, "reward");
  EXPECT_EQ(decoded.environment.rng_state[3], 4u);
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
