// Binary codec primitives for the persistence layer: LEB128 varints,
// zigzag-mapped signed integers, fixed-width little-endian words, doubles
// persisted as exact IEEE-754 bit patterns (byte-identical round trips are
// the whole point), length-prefixed strings, and CRC-32 for record guards.
//
// Encoding appends to a std::string sink; decoding goes through ByteReader,
// which bounds-checks every read and reports truncation through
// util::Status instead of crashing — the fuzz suite feeds it bit-flipped
// and truncated inputs under asan/ubsan.

#ifndef CDT_PERSIST_CODEC_H_
#define CDT_PERSIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace persist {

// --- encoding (append to `out`) ---------------------------------------

/// LEB128: 7 bits per byte, high bit = continuation. At most 10 bytes.
void PutVarint64(std::string* out, std::uint64_t value);

/// Zigzag-mapped signed varint: small magnitudes stay small either sign.
void PutZigzag64(std::string* out, std::int64_t value);

/// Little-endian fixed words.
void PutFixed32(std::string* out, std::uint32_t value);
void PutFixed64(std::string* out, std::uint64_t value);

/// IEEE-754 bit pattern as fixed64 — exact round trip, NaNs included.
void PutDouble(std::string* out, double value);

void PutBool(std::string* out, bool value);
void PutByte(std::string* out, std::uint8_t value);

/// Varint length prefix + raw bytes.
void PutString(std::string* out, std::string_view value);

/// Varint count prefix + per-element PutDouble / PutZigzag64.
void PutDoubleVector(std::string* out, const std::vector<double>& values);
void PutIntVector(std::string* out, const std::vector<int>& values);

// --- decoding ----------------------------------------------------------

/// Bounds-checked sequential reader over a borrowed byte range. Every
/// Read* fails with ParseError on truncation or malformed input and leaves
/// the cursor unspecified afterwards (callers stop at the first error).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return pos_ >= data_.size(); }
  std::size_t position() const { return pos_; }

  util::Status ReadVarint64(std::uint64_t* value);
  util::Status ReadZigzag64(std::int64_t* value);
  util::Status ReadFixed32(std::uint32_t* value);
  util::Status ReadFixed64(std::uint64_t* value);
  util::Status ReadDouble(double* value);
  util::Status ReadBool(bool* value);
  util::Status ReadByte(std::uint8_t* value);
  util::Status ReadString(std::string* value);
  /// Borrows `length` bytes from the underlying range (no copy).
  util::Status ReadBytes(std::size_t length, std::string_view* value);
  util::Status ReadDoubleVector(std::vector<double>* values);
  util::Status ReadIntVector(std::vector<int>* values);

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- integrity ----------------------------------------------------------

/// CRC-32 (ISO 3309, reflected 0xEDB88320), same polynomial as zlib.
/// Chainable: pass the previous value to extend a running checksum.
/// Computed slicing-by-8; tests pin it to the bytewise table loop kept as
/// testsupport::ReferenceCrc32.
std::uint32_t Crc32(std::string_view data, std::uint32_t seed = 0);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_CODEC_H_
