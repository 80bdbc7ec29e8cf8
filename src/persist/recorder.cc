#include "persist/recorder.h"

#include <cerrno>
#include <cstdio>
#include <utility>

#include "market/trading_engine.h"
#include "persist/codec.h"
#include "persist/io_hooks.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

namespace {

Status ValidateOptions(const RunRecorder::Options& options) {
  if (options.log_path.empty()) {
    return Status::InvalidArgument("RunRecorder needs a log_path");
  }
  if (options.snapshot_every < 0) {
    return Status::InvalidArgument("snapshot_every must be >= 0");
  }
  if (options.snapshot_every > 0 && options.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "snapshot_every > 0 needs a snapshot_path");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RunRecorder>> RunRecorder::Create(
    Options options, const core::MechanismConfig& config,
    const core::PolicySpec& policy) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  auto log = EventLogWriter::Open(options.log_path, config, policy);
  CDT_RETURN_NOT_OK(log.status());
  return std::unique_ptr<RunRecorder>(
      new RunRecorder(std::move(options), std::move(log).value()));
}

Result<std::unique_ptr<RunRecorder>> RunRecorder::Attach(
    Options options, const EventLogTail& tail) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  auto log = EventLogWriter::OpenForAppend(options.log_path, tail);
  CDT_RETURN_NOT_OK(log.status());
  return std::unique_ptr<RunRecorder>(
      new RunRecorder(std::move(options), std::move(log).value()));
}

Result<std::unique_ptr<RunRecorder>> RunRecorder::Rebase(
    Options options, const core::MechanismConfig& config,
    const core::PolicySpec& policy, const market::TradingEngine& engine) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  if (options.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "cannot rebase '" + options.log_path +
        "' without a snapshot path (snapshots are disabled)");
  }
  const std::int64_t round = engine.current_round();
  // The snapshot pairs with the rebased log through the CRC of the config
  // payload that OpenRebased is about to write.
  std::string config_payload;
  EncodeConfigPayload(config, policy, &config_payload);
  CDT_RETURN_NOT_OK(WriteSnapshotFile(options.snapshot_path,
                                      Crc32(config_payload),
                                      engine.SnapshotView()));
  auto log =
      EventLogWriter::OpenRebased(options.log_path, config, policy, round);
  CDT_RETURN_NOT_OK(log.status());
  if (round >= 1) {
    CDT_RETURN_NOT_OK(log.value()->AppendSnapshotNote(round));
  }
  return std::unique_ptr<RunRecorder>(
      new RunRecorder(std::move(options), std::move(log).value()));
}

Status RunRecorder::OnRound(const market::TradingEngine& engine,
                            const market::RoundReport& report) {
  CDT_RETURN_NOT_OK(log_->AppendRound(report));
  if (options_.snapshot_every > 0 &&
      report.round % options_.snapshot_every == 0) {
    return CheckpointNow(engine);
  }
  return Status::OK();
}

Status RunRecorder::CheckpointNow(const market::TradingEngine& engine) {
  if (options_.snapshot_path.empty()) return Status::OK();
  const std::int64_t round = engine.current_round();
  // Snapshot notes must follow the round they cover; before round 1 there
  // is nothing to checkpoint.
  if (round < 1 || round != log_->rounds_written()) return Status::OK();
  // The checker's O(M) ledger audit rides on the snapshot's O(M) encode.
  CDT_RETURN_NOT_OK(engine.AuditInvariants());
  // Snapshot first, note second: the log never claims a snapshot that did
  // not reach disk. The encoder reads the engine's state in place.
  CDT_RETURN_NOT_OK(WriteSnapshotFile(options_.snapshot_path,
                                      log_->config_crc(),
                                      engine.SnapshotView()));
  return log_->AppendSnapshotNote(round);
}

Status RunRecorder::Finish() { return log_->Finish(); }

Status RunRecorder::SealAs(const std::string& path) {
  CDT_RETURN_NOT_OK(log_->Finish());
  std::remove(path.c_str());
  const IoDecision rename_fault = IoHooks::Instance().Check(IoOp::kRename);
  if (rename_fault.error != 0) {
    errno = rename_fault.error;
    return Status::IoError("cannot retain compacted segment as '" + path +
                           "': injected rename fault");
  }
  if (std::rename(options_.log_path.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot retain compacted segment as '" + path +
                           "'");
  }
  return Status::OK();
}

}  // namespace persist
}  // namespace cdt
