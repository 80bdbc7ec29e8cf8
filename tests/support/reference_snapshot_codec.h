// The per-field EngineSnapshot encoder: every field appended to a growing
// std::string through the codec's Put* calls, and the snapshot file built
// from a separate payload string. The byte oracle for
// persist::EncodeEngineSnapshot and persist::WriteSnapshotFile, which
// size the snapshot first and write it through one raw cursor;
// codec_fuzz_test pins them to it, and bench/micro_persist links it for
// its BM_EncodeEngineSnapshotReference rows. It also writes the older
// two-section layout, which the decoder must keep reading.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_SNAPSHOT_CODEC_H_
#define CDT_TESTS_SUPPORT_REFERENCE_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "market/snapshot.h"

namespace cdt {
namespace testsupport {

/// Appends the snapshot's canonical bytes to `out`, field by field.
void ReferenceEncodeEngineSnapshot(const market::EngineSnapshot& snapshot,
                                   std::string* out);

/// The two-section layout writers used before the arms were stored once:
/// the canonical bytes, except that the flag byte after the arms is 1 and
/// `second_arms`/`second_total` follow it as a second arms section (under
/// CUCB a copy of the first).
void ReferenceEncodeTwoSectionSnapshot(
    const market::EngineSnapshot& snapshot,
    const std::vector<bandit::ArmState>& second_arms,
    std::uint64_t second_total, std::string* out);

/// The bytes of the snapshot file persist::WriteSnapshotFile writes.
std::string ReferenceSnapshotFileBytes(std::uint32_t config_crc,
                                       const market::EngineSnapshot& snapshot);

/// The same file around snapshot bytes already encoded, e.g. by
/// ReferenceEncodeTwoSectionSnapshot.
std::string ReferenceSnapshotFileBytes(std::uint32_t config_crc,
                                       const std::string& encoded_snapshot);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_SNAPSHOT_CODEC_H_
