#include "persist/replay.h"

#include <limits>
#include <utility>

#include "market/trading_engine.h"
#include "persist/codec.h"
#include "persist/serialize.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

Result<RecordedRun> LoadRecordedRun(const std::string& path,
                                    bool allow_torn_tail) {
  EventLogReader::Options options;
  options.allow_torn_tail = allow_torn_tail;
  auto reader = EventLogReader::Open(path, options);
  CDT_RETURN_NOT_OK(reader.status());
  EventLogReader& log = *reader.value();

  RecordedRun run;
  bool have_config = false;
  bool have_footer = false;
  FooterInfo footer;
  std::uint32_t rolling_crc = 0;

  LogRecord record;
  while (true) {
    Status status = log.Next(&record);
    if (status.code() == util::StatusCode::kNotFound) break;
    CDT_RETURN_NOT_OK(status);
    if (have_footer) {
      return Status::ParseError("event log has records after its footer");
    }
    switch (record.type) {
      case RecordType::kConfig: {
        if (have_config) {
          return Status::ParseError("event log has two config records");
        }
        CDT_RETURN_NOT_OK(
            DecodeConfigPayload(record.payload, &run.config, &run.policy));
        run.config_crc = Crc32(record.payload);
        have_config = true;
        break;
      }
      case RecordType::kRound: {
        if (!have_config) {
          return Status::ParseError(
              "event log round record before config record");
        }
        market::RoundReport report;
        ByteReader payload(record.payload);
        CDT_RETURN_NOT_OK(DecodeRoundReport(&payload, &report));
        if (!payload.empty()) {
          return Status::ParseError("trailing bytes after round payload");
        }
        const auto expected =
            run.base_round +
            static_cast<std::int64_t>(run.rounds.size()) + 1;
        if (report.round != expected) {
          return Status::ParseError(
              "event log rounds out of order: expected round " +
              std::to_string(expected) + ", got " +
              std::to_string(report.round));
        }
        rolling_crc = Crc32(record.payload, rolling_crc);
        run.rounds.push_back(std::move(report));
        run.round_payloads.emplace_back(record.payload);
        break;
      }
      case RecordType::kSnapshotNote: {
        std::int64_t round;
        CDT_RETURN_NOT_OK(DecodeSnapshotNotePayload(record.payload, &round));
        if (round < 1 ||
            round > run.base_round +
                        static_cast<std::int64_t>(run.rounds.size())) {
          return Status::ParseError(
              "snapshot note for round " + std::to_string(round) +
              " does not follow that round's record");
        }
        run.snapshot_rounds.push_back(round);
        break;
      }
      case RecordType::kRebase: {
        if (!have_config || !run.rounds.empty() || run.base_round != 0) {
          return Status::ParseError(
              "rebase record out of position (must immediately follow "
              "the config record)");
        }
        CDT_RETURN_NOT_OK(
            DecodeRebasePayload(record.payload, &run.base_round));
        break;
      }
      case RecordType::kFooter: {
        CDT_RETURN_NOT_OK(DecodeFooterPayload(record.payload, &footer));
        have_footer = true;
        break;
      }
    }
  }

  if (!have_config) {
    return Status::ParseError("event log has no config record");
  }
  if (have_footer) {
    const std::int64_t total =
        run.base_round + static_cast<std::int64_t>(run.rounds.size());
    if (footer.round_count != total) {
      return Status::ParseError(
          "footer claims " + std::to_string(footer.round_count) +
          " rounds, log holds " + std::to_string(total));
    }
    if (footer.rolling_crc != rolling_crc) {
      return Status::ParseError("footer rolling CRC mismatch");
    }
  } else if (!allow_torn_tail) {
    return Status::ParseError(
        "event log has no footer (unfinished recording); pass "
        "allow_torn_tail to load the recoverable prefix");
  }
  run.sealed = have_footer;
  run.torn_tail = log.torn_tail();
  return run;
}

std::string CanonicalRoundBytes(const market::RoundReport& report) {
  std::string bytes;
  EncodeRoundReport(report, &bytes);
  return bytes;
}

namespace {

/// Human-readable context for the first divergent round: which scalar
/// fields moved, so a gate failure names the suspect subsystem.
std::string DivergenceDetail(const market::RoundReport& recorded,
                             const market::RoundReport& replayed) {
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

Status ReplayRecordedRounds(const RecordedRun& recorded,
                            const std::vector<SellerFlip>& flips,
                            core::CmabHs* run) {
  const std::int64_t from = run->engine().current_round();
  const std::int64_t last_round =
      recorded.base_round + static_cast<std::int64_t>(recorded.rounds.size());
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
          DivergenceDetail(recorded.rounds[index], report.value()) +
          ") — the build no longer reproduces the recorded log");
    }
  }
  apply_flips_through(std::numeric_limits<std::int64_t>::max());
  return Status::OK();
}

Result<ReplayResult> VerifyReplay(const RecordedRun& recorded) {
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
  result.rounds_verified = static_cast<std::int64_t>(recorded.rounds.size());
  return result;
}

Result<ResumedRun> ResumeFromSnapshot(const RecordedRun& recorded,
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
