#include "market/ledger.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/transfer_trail.h"

namespace cdt {
namespace market {
namespace {

TEST(LedgerTest, RecordsTransfersAndBalances) {
  Ledger ledger(3);
  ASSERT_TRUE(ledger.Record(kConsumerAccount, kPlatformAccount, 10.0).ok());
  ASSERT_TRUE(ledger.Record(kPlatformAccount, 0, 4.0).ok());
  ASSERT_TRUE(ledger.Record(kPlatformAccount, 1, 3.0).ok());

  EXPECT_DOUBLE_EQ(ledger.Balance(kConsumerAccount).value(), -10.0);
  EXPECT_DOUBLE_EQ(ledger.Balance(kPlatformAccount).value(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.Balance(0).value(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.Balance(1).value(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.Balance(2).value(), 0.0);

  // The same three moves, rebuilt from the round that settles them.
  RoundReport report;
  report.round = 1;
  report.selected = {0, 1};
  report.consumer_price = 2.5;
  report.total_time = 4.0;
  report.collection_price = 1.0;
  report.tau = {4.0, 3.0};
  testsupport::TransferTrail trail(3);
  trail.AddRound(report);
  EXPECT_EQ(trail.transfers().size(), 3u);
  EXPECT_EQ(trail.Mismatch(ledger), "");
}

TEST(LedgerTest, MoneyConservation) {
  Ledger ledger(2);
  ASSERT_TRUE(ledger.Record(kConsumerAccount, kPlatformAccount, 7.5).ok());
  ASSERT_TRUE(ledger.Record(kPlatformAccount, 0, 2.5).ok());
  ASSERT_TRUE(ledger.Record(kPlatformAccount, 1, 1.0).ok());
  EXPECT_NEAR(ledger.NetPosition(), 0.0, 1e-12);
}

TEST(LedgerTest, AggregateFlows) {
  Ledger ledger(2);
  ASSERT_TRUE(ledger.Record(kConsumerAccount, kPlatformAccount, 9.0).ok());
  ASSERT_TRUE(ledger.Record(kPlatformAccount, 0, 4.0).ok());
  ASSERT_TRUE(ledger.Record(kPlatformAccount, 1, 2.0).ok());
  EXPECT_DOUBLE_EQ(ledger.ConsumerOutflow(), 9.0);
  EXPECT_DOUBLE_EQ(ledger.SellerInflow(), 6.0);
}

TEST(LedgerTest, RejectsInvalidTransfers) {
  Ledger ledger(2);
  EXPECT_FALSE(ledger.Record(5, kPlatformAccount, 1.0).ok());
  EXPECT_FALSE(ledger.Record(kConsumerAccount, 9, 1.0).ok());
  EXPECT_FALSE(ledger.Record(kConsumerAccount, kConsumerAccount, 1.0).ok());
  EXPECT_FALSE(ledger.Record(kConsumerAccount, kPlatformAccount, -1.0).ok());
  for (double amount : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(ledger.Record(kConsumerAccount, kPlatformAccount, amount)
                     .ok())
        << amount;
    EXPECT_FALSE(ledger.Record(kPlatformAccount, 0, amount).ok()) << amount;
  }
  EXPECT_FALSE(ledger.Balance(99).ok());
  // Nothing a refused transfer carried reached the ledger.
  EXPECT_EQ(ledger.balances(), std::vector<double>(4, 0.0));
  EXPECT_EQ(ledger.ConsumerOutflow(), 0.0);
  EXPECT_EQ(ledger.SellerInflow(), 0.0);
}

}  // namespace
}  // namespace market
}  // namespace cdt
