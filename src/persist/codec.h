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

#include <bit>
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

// --- encoding through a raw cursor ------------------------------------
// The same bytes as the Put* forms above, written at `cursor`, which must
// have room for them; each returns the position after the last byte.

// Inline, since a snapshot makes millions of these calls.

/// Bytes PutVarint64 writes for `value` (1 to 10): one per started group
/// of 7 significant bits.
inline std::size_t VarintSize(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value | 1) + 6) / 7;
}

/// The zigzag map PutZigzag64 applies before its varint.
inline std::uint64_t ZigzagEncode(std::int64_t value) {
  const std::uint64_t u = static_cast<std::uint64_t>(value);
  return (u << 1) ^ (u >> 63 ? ~std::uint64_t{0} : 0);
}

inline char* PutVarint64At(char* cursor, std::uint64_t value) {
  while (value >= 0x80) {
    *cursor++ = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  *cursor++ = static_cast<char>(value);
  return cursor;
}

inline char* PutFixed32At(char* cursor, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    *cursor++ = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return cursor;
}

inline char* PutFixed64At(char* cursor, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *cursor++ = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return cursor;
}

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
