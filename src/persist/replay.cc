#include "persist/replay.h"

#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "market/trading_engine.h"
#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/serialize.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

Result<RecordedLog> RecordedLog::Load(
    const std::string& path, bool allow_torn_tail,
    std::vector<market::RoundReport>* rounds) {
  auto bytes = ReadFileBytes(path);
  CDT_RETURN_NOT_OK(bytes.status());
  RecordedLog log;
  log.bytes_ = std::make_unique<const std::string>(std::move(bytes).value());
  const EventLogScan scan = ScanEventLog(*log.bytes_);
  CDT_RETURN_NOT_OK(scan.status);
  if (!allow_torn_tail && scan.torn_tail) {
    return Status::ParseError("event log truncated mid-record");
  }
  if (!allow_torn_tail && !scan.sealed) {
    return Status::ParseError(
        "event log has no footer (unfinished recording); pass "
        "allow_torn_tail to load the recoverable prefix");
  }

  log.config_crc = scan.config_crc;
  log.base_round = scan.base_round;
  log.round_count = scan.round_count;
  log.sealed = scan.sealed;
  log.torn_tail = scan.torn_tail;
  log.valid_end = scan.valid_end;
  log.rolling_crc = scan.rolling_crc;
  log.round_payloads.reserve(static_cast<std::size_t>(scan.round_count));
  if (rounds != nullptr) {
    rounds->reserve(static_cast<std::size_t>(scan.round_count));
  }
  market::RoundReport scratch;
  for (const LogRecord& record : scan.records) {
    switch (record.type) {
      case RecordType::kConfig:
        CDT_RETURN_NOT_OK(
            DecodeConfigPayload(record.payload, &log.config, &log.policy));
        break;
      case RecordType::kRound: {
        market::RoundReport& report =
            rounds != nullptr ? rounds->emplace_back() : scratch;
        ByteReader payload(record.payload);
        CDT_RETURN_NOT_OK(DecodeRoundReport(&payload, &report));
        if (!payload.empty()) {
          return Status::ParseError("trailing bytes after round payload");
        }
        log.round_payloads.push_back(record.payload);
        break;
      }
      case RecordType::kSnapshotNote: {
        std::int64_t round = 0;
        CDT_RETURN_NOT_OK(DecodeSnapshotNotePayload(record.payload, &round));
        log.snapshot_rounds.push_back(round);
        break;
      }
      case RecordType::kRebase:
      case RecordType::kFooter:
        break;
    }
  }
  return log;
}

Result<RecordedLog> LoadRecordedLog(const std::string& path,
                                    bool allow_torn_tail) {
  return RecordedLog::Load(path, allow_torn_tail, nullptr);
}

Result<RecordedRun> LoadRecordedRun(const std::string& path,
                                    bool allow_torn_tail) {
  RecordedRun run;
  auto log = RecordedLog::Load(path, allow_torn_tail, &run.rounds);
  CDT_RETURN_NOT_OK(log.status());
  static_cast<RecordedLog&>(run) = std::move(log).value();
  return run;
}

std::string CanonicalRoundBytes(const market::RoundReport& report) {
  std::string bytes;
  EncodeRoundReport(report, &bytes);
  return bytes;
}

namespace {

/// Human-readable context for the first divergent round: which scalar
/// fields moved, so a gate failure names the suspect subsystem. Decodes
/// the one recorded payload (the load already decoded it once).
std::string DivergenceDetail(std::string_view recorded_payload,
                             const market::RoundReport& replayed) {
  market::RoundReport recorded;
  ByteReader payload(recorded_payload);
  if (!DecodeRoundReport(&payload, &recorded).ok()) {
    return "recorded payload no longer decodes";
  }
  std::string detail;
  auto note = [&detail](const char* field) {
    if (!detail.empty()) detail += ", ";
    detail += field;
  };
  if (recorded.selected != replayed.selected) note("selected");
  if (recorded.game_qualities != replayed.game_qualities) {
    note("game_qualities");
  }
  if (recorded.consumer_price != replayed.consumer_price) {
    note("consumer_price");
  }
  if (recorded.collection_price != replayed.collection_price) {
    note("collection_price");
  }
  if (recorded.tau != replayed.tau) note("tau");
  if (recorded.consumer_profit != replayed.consumer_profit) {
    note("consumer_profit");
  }
  if (recorded.platform_profit != replayed.platform_profit) {
    note("platform_profit");
  }
  if (recorded.seller_profits != replayed.seller_profits) {
    note("seller_profits");
  }
  if (recorded.observed_quality_revenue !=
      replayed.observed_quality_revenue) {
    note("observed_quality_revenue");
  }
  if (recorded.degraded != replayed.degraded ||
      recorded.resettled != replayed.resettled ||
      recorded.voided != replayed.voided ||
      recorded.faults.size() != replayed.faults.size()) {
    note("fault/recovery metadata");
  }
  if (detail.empty()) detail = "non-scalar field";
  return detail;
}

}  // namespace

Status ReplayRecordedRounds(const RecordedLog& recorded,
                            const std::vector<SellerFlip>& flips,
                            core::CmabHs* run) {
  const std::int64_t from = run->engine().current_round();
  const std::int64_t last_round = recorded.base_round + recorded.round_count;
  if (from < recorded.base_round || from > last_round) {
    return Status::FailedPrecondition(
        "cannot replay from round " + std::to_string(from) +
        ": the log holds rounds " + std::to_string(recorded.base_round + 1) +
        " through " + std::to_string(last_round));
  }
  auto flip = flips.begin();
  while (flip != flips.end() && flip->effect_round <= from) ++flip;
  auto apply_flips_through = [&](std::int64_t round) {
    for (; flip != flips.end() && flip->effect_round <= round; ++flip) {
      (void)run->mutable_engine().SetSellerActive(flip->seller, flip->active);
    }
  };
  for (std::int64_t round = from + 1; round <= last_round; ++round) {
    apply_flips_through(round);
    auto report = run->RunRound();
    CDT_RETURN_NOT_OK(report.status());
    const auto index =
        static_cast<std::size_t>(round - recorded.base_round - 1);
    if (CanonicalRoundBytes(report.value()) !=
        recorded.round_payloads[index]) {
      return Status::Internal(
          "replay diverged at round " + std::to_string(round) +
          " (differing fields: " +
          DivergenceDetail(recorded.round_payloads[index], report.value()) +
          ") — the build no longer reproduces the recorded log");
    }
  }
  apply_flips_through(std::numeric_limits<std::int64_t>::max());
  return Status::OK();
}

Result<ReplayResult> VerifyReplay(const RecordedLog& recorded) {
  if (recorded.base_round != 0) {
    return Status::FailedPrecondition(
        "rebased log starts at round " +
        std::to_string(recorded.base_round + 1) +
        "; rounds before that were compacted into its snapshot — resume "
        "from the snapshot instead of a full replay");
  }
  auto run = core::CmabHs::Create(recorded.config, recorded.policy);
  CDT_RETURN_NOT_OK(run.status());
  CDT_RETURN_NOT_OK(ReplayRecordedRounds(recorded, {}, run.value().get()));
  ReplayResult result;
  result.rounds_verified = recorded.round_count;
  return result;
}

Result<ResumedRun> ResumeFromSnapshot(const RecordedLog& recorded,
                                      const SnapshotFile& snapshot) {
  if (snapshot.config_crc != recorded.config_crc) {
    return Status::FailedPrecondition(
        "snapshot belongs to a different recording (config CRC "
        "mismatch)");
  }
  auto run = core::CmabHs::Create(recorded.config, recorded.policy);
  CDT_RETURN_NOT_OK(run.status());
  CDT_RETURN_NOT_OK(
      run.value()->mutable_engine().RestoreSnapshot(snapshot.snapshot));
  ResumedRun resumed;
  resumed.snapshot_round = run.value()->engine().current_round();
  // Tail-replay: re-execute the recorded rounds past the snapshot and
  // hold them to the same byte-identical standard as a full replay.
  CDT_RETURN_NOT_OK(ReplayRecordedRounds(recorded, {}, run.value().get()));
  resumed.resumed_round = run.value()->engine().current_round();
  resumed.run = std::move(run).value();
  return resumed;
}

}  // namespace persist
}  // namespace cdt
