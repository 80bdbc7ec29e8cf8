// Binary codec primitives for the persistence layer: LEB128 varints,
// zigzag-mapped signed integers, fixed-width little-endian words, doubles
// persisted as exact IEEE-754 bit patterns (byte-identical round trips are
// the whole point), and CRC-32 for record guards.
//
// Encoding appends to a std::string sink; decoding goes through ByteReader,
// which bounds-checks every read and reports truncation through
// util::Status instead of crashing — the fuzz suite feeds it bit-flipped
// and truncated inputs under asan/ubsan.

#ifndef CDT_PERSIST_CODEC_H_
#define CDT_PERSIST_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
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
///
/// The reads a round or snapshot decode makes per field are inline: a
/// one-byte varint, fixed words, doubles, bools and bytes, and vectors
/// that check their bounds once. Their failures, and varints of more than
/// one byte, go through the out-of-line paths below, so every error code
/// and message is the same whichever path a read takes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return pos_ >= data_.size(); }
  std::size_t position() const { return pos_; }

  util::Status ReadVarint64(std::uint64_t* value) {
    if (pos_ < data_.size() && Byte(pos_) < 0x80) {
      *value = Byte(pos_++);
      return util::Status::OK();
    }
    return ReadVarint64Slow(value);
  }

  util::Status ReadZigzag64(std::int64_t* value) {
    std::uint64_t u = 0;
    CDT_RETURN_NOT_OK(ReadVarint64(&u));
    *value = ZigzagDecode(u);
    return util::Status::OK();
  }

  util::Status ReadFixed32(std::uint32_t* value);

  util::Status ReadFixed64(std::uint64_t* value) {
    if (remaining() < 8) return Truncated("fixed64");
    *value = LoadFixed64(pos_);
    pos_ += 8;
    return util::Status::OK();
  }

  util::Status ReadDouble(double* value) {
    if (remaining() < 8) return Truncated("fixed64");
    *value = std::bit_cast<double>(LoadFixed64(pos_));
    pos_ += 8;
    return util::Status::OK();
  }

  util::Status ReadBool(bool* value) {
    if (empty()) return Truncated("byte");
    const std::uint8_t byte = Byte(pos_++);
    if (byte > 1) return BadBool();
    *value = byte != 0;
    return util::Status::OK();
  }

  util::Status ReadByte(std::uint8_t* value) {
    if (empty()) return Truncated("byte");
    *value = Byte(pos_++);
    return util::Status::OK();
  }

  /// Borrows `length` bytes from the underlying range (no copy).
  util::Status ReadBytes(std::size_t length, std::string_view* value) {
    if (length > remaining()) return Truncated("byte range");
    *value = data_.substr(pos_, length);
    pos_ += length;
    return util::Status::OK();
  }

  /// A varint count, then that many doubles. Each element takes 8 bytes,
  /// so one check of the count against what is left covers every element
  /// and rejects absurd counts before any allocation.
  util::Status ReadDoubleVector(std::vector<double>* values) {
    std::uint64_t count = 0;
    CDT_RETURN_NOT_OK(ReadVarint64(&count));
    if (count > remaining() / 8) return Truncated("double vector");
    values->resize(static_cast<std::size_t>(count));
    for (double& v : *values) {
      v = std::bit_cast<double>(LoadFixed64(pos_));
      pos_ += 8;
    }
    return util::Status::OK();
  }

  /// A varint count, then that many zigzag varints, each in int32 range.
  /// Each element takes at least one byte, so the count is checked
  /// against what is left once; one-byte elements skip the varint loop.
  util::Status ReadIntVector(std::vector<int>* values) {
    std::uint64_t count = 0;
    CDT_RETURN_NOT_OK(ReadVarint64(&count));
    if (count > remaining()) return Truncated("int vector");
    values->resize(static_cast<std::size_t>(count));
    for (int& v : *values) {
      if (pos_ < data_.size() && Byte(pos_) < 0x80) {
        v = static_cast<int>(ZigzagDecode(Byte(pos_++)));
        continue;
      }
      std::uint64_t u = 0;
      CDT_RETURN_NOT_OK(ReadVarint64Slow(&u));
      const std::int64_t wide = ZigzagDecode(u);
      if (wide < INT32_MIN || wide > INT32_MAX) return IntOverflow();
      v = static_cast<int>(wide);
    }
    return util::Status::OK();
  }

 private:
  static std::int64_t ZigzagDecode(std::uint64_t u) {
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::uint8_t Byte(std::size_t at) const {
    return static_cast<std::uint8_t>(data_[at]);
  }

  /// The little-endian word at `at`; the caller checked the bounds.
  std::uint64_t LoadFixed64(std::size_t at) const {
    std::uint64_t word;
    std::memcpy(&word, data_.data() + at, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return word;
  }

  /// The byte-at-a-time varint loop with its overflow and length checks.
  util::Status ReadVarint64Slow(std::uint64_t* value);

  // Error statuses, out of line so the inline reads stay small.
  static util::Status Truncated(const char* what);
  static util::Status BadBool();
  static util::Status IntOverflow();

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- integrity ----------------------------------------------------------

/// CRC-32 (ISO 3309, reflected 0xEDB88320), same polynomial as zlib.
/// Chainable: pass the previous value to extend a running checksum.
/// On x86-64 hosts with PCLMULQDQ and SSE4.1 (checked once, at start-up)
/// inputs of 64 bytes or more are folded 64 bytes at a time with
/// carry-less multiplies; shorter inputs, the last 0-15 bytes and other
/// hosts take Crc32Portable. Both give the same value for every input;
/// tests pin each to the bytewise loop kept as testsupport::ReferenceCrc32.
std::uint32_t Crc32(std::string_view data, std::uint32_t seed = 0);

/// The CRC of a ‖ b from the CRCs of its parts: `crc_a` = Crc32(a, seed),
/// `crc_b` = Crc32(b) and `length_b` = b.size() give Crc32(b, crc_a),
/// which is Crc32(a ‖ b, seed), without reading b again. It carries
/// crc_a over the length of b by multiplying it by x^(8 · length_b) mod
/// P: one to four multiplies mod P whatever the length, each one
/// carry-less multiply where the fold runs.
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint32_t length_b);

/// The same CRC, slicing-by-8: eight table lookups per eight bytes.
std::uint32_t Crc32Portable(std::string_view data, std::uint32_t seed = 0);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_CODEC_H_
