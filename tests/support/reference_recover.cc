#include "support/reference_recover.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "market/trading_engine.h"
#include "persist/atomic_io.h"
#include "persist/replay.h"

namespace cdt {
namespace testsupport {

using util::Result;
using util::Status;

Result<ReferenceRecovery> ReferenceRecoverMarketplace(
    const std::string& id,
    const runtime::HostedMarketplace::Options& options) {
  const std::string log_path =
      runtime::MarketplaceLogPath(options.wal_dir, id);
  const std::string journal_path =
      runtime::MarketplaceJournalPath(options.wal_dir, id);
  auto loaded = persist::LoadRecordedRun(log_path, /*allow_torn_tail=*/true);
  CDT_RETURN_NOT_OK(loaded.status());
  const persist::RecordedRun& recorded = loaded.value();
  const std::vector<std::string> payloads(recorded.round_payloads.begin(),
                                          recorded.round_payloads.end());
  const std::int64_t base_round = recorded.base_round;
  const std::int64_t last_round =
      base_round + static_cast<std::int64_t>(recorded.rounds.size());

  auto journal = runtime::ReadJournal(journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  const std::vector<runtime::JournalEntry>& flips = journal.value().entries;

  ReferenceRecovery recovery;
  auto snap = persist::ReadSnapshotFile(
      runtime::MarketplaceSnapshotPath(options.wal_dir, id));
  if (snap.ok() && snap.value().config_crc == recorded.config_crc) {
    const std::int64_t snap_round = snap.value().snapshot.next_round - 1;
    if (snap_round >= base_round && snap_round <= last_round) {
      auto candidate = core::CmabHs::Create(recorded.config, recorded.policy);
      CDT_RETURN_NOT_OK(candidate.status());
      if (candidate.value()
              ->mutable_engine()
              .RestoreSnapshot(snap.value().snapshot)
              .ok()) {
        recovery.run = std::move(candidate).value();
      }
    }
  }
  if (recovery.run == nullptr) {
    if (base_round > 0) {
      return Status::Corruption("rebased log '" + log_path +
                                "' has no usable snapshot");
    }
    auto candidate = core::CmabHs::Create(recorded.config, recorded.policy);
    CDT_RETURN_NOT_OK(candidate.status());
    recovery.run = std::move(candidate).value();
  }

  market::TradingEngine& engine = recovery.run->mutable_engine();
  const std::int64_t from = engine.current_round();
  auto flip = flips.begin();
  while (flip != flips.end() && flip->effect_round <= from) ++flip;
  auto apply_flips_through = [&](std::int64_t round) {
    for (; flip != flips.end() && flip->effect_round <= round; ++flip) {
      (void)engine.SetSellerActive(
          flip->seller, flip->type == runtime::EventType::kSellerReturn);
    }
  };
  for (std::int64_t round = from + 1; round <= last_round; ++round) {
    apply_flips_through(round);
    auto report = recovery.run->RunRound();
    CDT_RETURN_NOT_OK(report.status());
    if (persist::CanonicalRoundBytes(report.value()) !=
        payloads[static_cast<std::size_t>(round - base_round - 1)]) {
      return Status::Internal("replay diverged at round " +
                              std::to_string(round));
    }
  }
  apply_flips_through(std::numeric_limits<std::int64_t>::max());
  if (recorded.sealed) return recovery;

  // Reattach from a second read and scan of the log.
  auto bytes = persist::ReadFileBytes(log_path);
  CDT_RETURN_NOT_OK(bytes.status());
  const persist::EventLogScan scan = persist::ScanEventLog(bytes.value());
  CDT_RETURN_NOT_OK(scan.status);
  auto log = persist::EventLogWriter::OpenForAppend(
      log_path, {scan.valid_end, scan.base_round, scan.round_count,
                 scan.config_crc, scan.rolling_crc});
  CDT_RETURN_NOT_OK(log.status());
  recovery.log = std::move(log).value();
  auto journal_writer = runtime::JournalWriter::Open(journal_path);
  CDT_RETURN_NOT_OK(journal_writer.status());
  recovery.journal = std::move(journal_writer).value();
  return recovery;
}

}  // namespace testsupport
}  // namespace cdt
