// Canonical binary serialization of the domain structures the persistence
// layer records: the full MechanismConfig + PolicySpec (everything needed
// to rebuild a deterministic run), the per-round RoundReport (the replay
// gate byte-compares these), and the EngineSnapshot (restore without full
// replay). Field order is fixed and guarded by the event-log format
// version — any layout change must bump persist::kFormatVersion so old
// readers fail closed instead of misparsing.

#ifndef CDT_PERSIST_SERIALIZE_H_
#define CDT_PERSIST_SERIALIZE_H_

#include <string>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "market/snapshot.h"
#include "market/types.h"
#include "persist/codec.h"
#include "util/status.h"

namespace cdt {
namespace persist {

// Every Encode* appends the canonical bytes to `out`; every Decode*
// consumes exactly what the encoder wrote and fails with ParseError on
// truncated or out-of-range input, leaving *value partially written.

void EncodeMechanismConfig(const core::MechanismConfig& config,
                           std::string* out);
util::Status DecodeMechanismConfig(ByteReader* in,
                                   core::MechanismConfig* config);

void EncodePolicySpec(const core::PolicySpec& spec, std::string* out);
util::Status DecodePolicySpec(ByteReader* in, core::PolicySpec* spec);

void EncodeRoundReport(const market::RoundReport& report, std::string* out);
util::Status DecodeRoundReport(ByteReader* in, market::RoundReport* report);

/// The snapshot in one sizing pass and one write pass through a raw
/// cursor: EngineSnapshotSize counts the bytes, EncodeEngineSnapshotAt
/// writes them at `cursor` (which must have that much room) and returns
/// the end, and EncodeEngineSnapshot appends them to `out`, growing it
/// once. Each reads a view, so the live engine's state
/// (TradingEngine::SnapshotView) encodes without a copy, and a captured
/// EngineSnapshot converts to one. tests/support keeps the per-field
/// encoder as the byte oracle.
std::size_t EngineSnapshotSize(const market::EngineSnapshotView& snapshot);
char* EncodeEngineSnapshotAt(const market::EngineSnapshotView& snapshot,
                             char* cursor);
void EncodeEngineSnapshot(const market::EngineSnapshotView& snapshot,
                          std::string* out);
util::Status DecodeEngineSnapshot(ByteReader* in,
                                  market::EngineSnapshot* snapshot);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_SERIALIZE_H_
