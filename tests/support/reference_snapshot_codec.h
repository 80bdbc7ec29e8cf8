// The per-field EngineSnapshot encoder: every field appended to a growing
// std::string through the codec's Put* calls, and the snapshot file built
// from a separate payload string. The byte oracle for
// persist::EncodeEngineSnapshot and persist::WriteSnapshotFile, which
// size the snapshot first and write it through one raw cursor;
// codec_fuzz_test pins them to it, and bench/micro_persist links it for
// its BM_EncodeEngineSnapshotReference rows. It also writes the layouts
// older writers produced, which the decoder must keep reading or refuse.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_SNAPSHOT_CODEC_H_
#define CDT_TESTS_SUPPORT_REFERENCE_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "market/snapshot.h"
#include "persist/codec.h"
#include "util/status.h"

namespace cdt {
namespace testsupport {

/// A varint length, then the bytes: the field older writers gave each
/// transfer's memo. No current format has a string field.
void PutString(std::string* out, std::string_view value);

/// Reads PutString's field back through the production reader.
util::Status ReadString(persist::ByteReader* in, std::string* value);

/// Appends the snapshot's canonical bytes to `out`, field by field.
void ReferenceEncodeEngineSnapshot(const market::EngineSnapshot& snapshot,
                                   std::string* out);

/// One row of the transfer history older writers appended after the
/// ledger aggregates.
struct LegacyTransfer {
  std::int64_t round = 0;
  std::int32_t from = 0;
  std::int32_t to = 0;
  double amount = 0.0;
  std::string memo;
};

/// Where older writers' bytes differ from the canonical layout. The
/// default writes the canonical bytes.
struct LegacySnapshotLayout {
  /// Non-null: the flag byte after the arms is 1 and these arms follow it
  /// as a second section (written before the arms were stored once; under
  /// CUCB a copy of the first).
  const std::vector<bandit::ArmState>* second_arms = nullptr;
  std::uint64_t second_total = 0;
  /// Written in the consumer-spend slot in place of the ledger outflow
  /// (written while the engine kept its own spend counter).
  std::optional<double> consumer_spend;
  /// The transfer-history section (written with history tracking on).
  std::vector<LegacyTransfer> transfers;
};

/// The snapshot's bytes in an older writer's layout.
void ReferenceEncodeLegacySnapshot(const market::EngineSnapshot& snapshot,
                                   const LegacySnapshotLayout& layout,
                                   std::string* out);

/// The bytes of the snapshot file persist::WriteSnapshotFile writes.
std::string ReferenceSnapshotFileBytes(std::uint32_t config_crc,
                                       const market::EngineSnapshot& snapshot);

/// The same file around snapshot bytes already encoded, e.g. by
/// ReferenceEncodeLegacySnapshot.
std::string ReferenceSnapshotFileBytes(std::uint32_t config_crc,
                                       const std::string& encoded_snapshot);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_SNAPSHOT_CODEC_H_
