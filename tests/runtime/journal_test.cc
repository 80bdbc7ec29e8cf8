// Seller-departure journal: append/read round trips, crash-tear
// tolerance (torn final record dropped, complete prefix kept), CRC
// fail-closed on corruption, and append-mode reopen across "process
// generations" — the WAL properties marketplace recovery rests on.

#include "runtime/journal.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/atomic_io.h"
#include "persist/codec.h"

namespace cdt {
namespace runtime {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cdt_journal_" + std::to_string(::getpid()) + ".events"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string ReadBytes() {
    auto bytes = persist::ReadFileBytes(path_);
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).value();
  }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

JournalEntry Leave(std::int64_t effect_round, int seller) {
  JournalEntry entry;
  entry.type = EventType::kSellerLeave;
  entry.effect_round = effect_round;
  entry.seller = seller;
  return entry;
}

JournalEntry Return(std::int64_t effect_round, int seller) {
  JournalEntry entry;
  entry.type = EventType::kSellerReturn;
  entry.effect_round = effect_round;
  entry.seller = seller;
  return entry;
}

TEST_F(JournalTest, MissingFileIsEmptyJournal) {
  auto contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.value().entries.empty());
  EXPECT_FALSE(contents.value().torn_tail);
}

TEST_F(JournalTest, AppendReadRoundTrip) {
  {
    auto writer = JournalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Leave(4, 2)).ok());
    ASSERT_TRUE(writer.value()->Append(Return(9, 2)).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  const auto& entries = contents.value().entries;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].type, EventType::kSellerLeave);
  EXPECT_EQ(entries[0].effect_round, 4);
  EXPECT_EQ(entries[0].seller, 2);
  EXPECT_EQ(entries[1].type, EventType::kSellerReturn);
  EXPECT_EQ(entries[1].effect_round, 9);
  EXPECT_FALSE(contents.value().torn_tail);
}

TEST_F(JournalTest, RejectsNonFlipEntryTypes) {
  auto writer = JournalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  JournalEntry bogus;
  bogus.type = EventType::kRoundTick;
  EXPECT_FALSE(writer.value()->Append(bogus).ok());
}

TEST_F(JournalTest, ReopenAppendsAcrossGenerations) {
  {
    auto writer = JournalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Leave(3, 1)).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  {
    auto writer = JournalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Return(7, 1)).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents.value().entries.size(), 2u);
  EXPECT_EQ(contents.value().entries[1].effect_round, 7);
}

TEST_F(JournalTest, TornTailIsDroppedAndReported) {
  {
    auto writer = JournalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Leave(3, 1)).ok());
    ASSERT_TRUE(writer.value()->Append(Leave(5, 2)).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // Chop the final record mid-frame: the crash tear.
  std::string bytes = ReadBytes();
  WriteBytes(bytes.substr(0, bytes.size() - 3));

  auto contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents.value().entries.size(), 1u);
  EXPECT_EQ(contents.value().entries[0].effect_round, 3);
  EXPECT_TRUE(contents.value().torn_tail);

  // Reopen truncates the fragment, and a fresh append lands cleanly
  // after the surviving record.
  {
    auto writer = JournalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Return(8, 1)).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents.value().entries.size(), 2u);
  EXPECT_EQ(contents.value().entries[1].effect_round, 8);
  EXPECT_FALSE(contents.value().torn_tail);
}

TEST_F(JournalTest, CorruptCompleteRecordFailsClosed) {
  {
    auto writer = JournalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Leave(3, 1)).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  std::string bytes = ReadBytes();
  bytes[bytes.size() - 6] ^= 0x40;  // flip a bit inside the record body
  WriteBytes(bytes);

  EXPECT_FALSE(ReadJournal(path_).ok());
  EXPECT_FALSE(JournalWriter::Open(path_).ok());
}

TEST_F(JournalTest, OutOfRangeSellerFailsClosed) {
  // A CRC-valid entry whose zigzag seller does not fit in int32 must be
  // refused, not truncated: 2^32 + 5 would otherwise read back as
  // seller 5 and recovery would flip the wrong seller.
  for (std::int64_t seller :
       {(std::int64_t{1} << 32) + 5, std::int64_t{INT32_MAX} + 1,
        std::int64_t{INT32_MIN} - 1}) {
    {
      auto writer = JournalWriter::Open(path_);
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE(writer.value()->Append(Leave(3, 1)).ok());
      ASSERT_TRUE(writer.value()->Close().ok());
    }
    std::string entry;
    persist::PutByte(&entry,
                     static_cast<std::uint8_t>(EventType::kSellerLeave));
    persist::PutZigzag64(&entry, 6);
    persist::PutZigzag64(&entry, seller);
    persist::PutFixed32(&entry, persist::Crc32(entry));
    WriteBytes(ReadBytes() + entry);

    auto contents = ReadJournal(path_);
    ASSERT_FALSE(contents.ok()) << "seller " << seller << " accepted";
    EXPECT_EQ(contents.status().code(), util::StatusCode::kParseError);
    EXPECT_NE(contents.status().ToString().find("seller overflows int32"),
              std::string::npos)
        << contents.status().ToString();
    EXPECT_EQ(JournalWriter::Open(path_).status().code(),
              util::StatusCode::kParseError);
    std::filesystem::remove(path_);
  }
}

TEST_F(JournalTest, RejectsForeignFile) {
  WriteBytes("definitely not a journal");
  EXPECT_FALSE(ReadJournal(path_).ok());
}

}  // namespace
}  // namespace runtime
}  // namespace cdt
