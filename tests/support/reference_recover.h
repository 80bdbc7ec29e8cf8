// The hosted recovery before each WAL file was read once: the reference
// for runtime::HostedMarketplace::Recover. It loads the log with every
// round decoded and kept, copies every round payload into its own string,
// reads the journal and the snapshot, restores (or replays from round 1),
// replays the tail against the copies, and then reattaches by reading and
// scanning the log and the journal a second time — five reads where
// Recover makes three. It writes no byte Recover would not. The hosted
// recovery tests pin the two to the same engine state, and
// bench/micro_persist links this for its BM_RecoverMarketplaceReference
// rows.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_RECOVER_H_
#define CDT_TESTS_SUPPORT_REFERENCE_RECOVER_H_

#include <memory>
#include <string>

#include "core/cmab_hs.h"
#include "persist/event_log.h"
#include "runtime/journal.h"
#include "runtime/marketplace.h"
#include "util/status.h"

namespace cdt {
namespace testsupport {

/// What the reference recovery leaves: the rebuilt run and, for an
/// unsealed log, the log and journal reopened for appending.
struct ReferenceRecovery {
  std::unique_ptr<core::CmabHs> run;
  std::unique_ptr<persist::EventLogWriter> log;
  std::unique_ptr<runtime::JournalWriter> journal;
};

/// Recovers marketplace `id` from the WAL files under `options.wal_dir`
/// the way Recover did before it read each file once.
util::Result<ReferenceRecovery> ReferenceRecoverMarketplace(
    const std::string& id, const runtime::HostedMarketplace::Options& options);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_RECOVER_H_
