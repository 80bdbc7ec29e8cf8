#include "persist/codec.h"

#include <cstring>

namespace cdt {
namespace persist {

using util::Status;

// --- encoding -----------------------------------------------------------

void PutVarint64(std::string* out, std::uint64_t value) {
  char bytes[10];
  std::size_t n = 0;
  while (value >= 0x80) {
    bytes[n++] = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  bytes[n++] = static_cast<char>(value);
  out->append(bytes, n);
}

void PutZigzag64(std::string* out, std::int64_t value) {
  std::uint64_t u = static_cast<std::uint64_t>(value);
  PutVarint64(out, (u << 1) ^ (u >> 63 ? ~std::uint64_t{0} : 0));
}

void PutFixed32(std::string* out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  out->append(bytes, sizeof(bytes));
}

void PutFixed64(std::string* out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  out->append(bytes, sizeof(bytes));
}

void PutDouble(std::string* out, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(out, bits);
}

void PutBool(std::string* out, bool value) {
  out->push_back(value ? '\1' : '\0');
}

void PutByte(std::string* out, std::uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void PutString(std::string* out, std::string_view value) {
  PutVarint64(out, value.size());
  out->append(value.data(), value.size());
}

void PutDoubleVector(std::string* out, const std::vector<double>& values) {
  PutVarint64(out, values.size());
  for (double v : values) PutDouble(out, v);
}

void PutIntVector(std::string* out, const std::vector<int>& values) {
  PutVarint64(out, values.size());
  for (int v : values) PutZigzag64(out, v);
}

// --- decoding -----------------------------------------------------------

namespace {

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated input reading ") + what);
}

}  // namespace

Status ByteReader::ReadVarint64(std::uint64_t* value) {
  std::uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return Truncated("varint");
    std::uint8_t byte = static_cast<std::uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7F) > 1) {
      return Status::ParseError("varint overflows 64 bits");
    }
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return Status::OK();
    }
  }
  return Status::ParseError("varint longer than 10 bytes");
}

Status ByteReader::ReadZigzag64(std::int64_t* value) {
  std::uint64_t u;
  CDT_RETURN_NOT_OK(ReadVarint64(&u));
  *value = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  return Status::OK();
}

Status ByteReader::ReadFixed32(std::uint32_t* value) {
  if (remaining() < 4) return Truncated("fixed32");
  std::uint32_t result = 0;
  for (int i = 0; i < 4; ++i) {
    result |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(data_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 4;
  *value = result;
  return Status::OK();
}

Status ByteReader::ReadFixed64(std::uint64_t* value) {
  if (remaining() < 8) return Truncated("fixed64");
  std::uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(data_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 8;
  *value = result;
  return Status::OK();
}

Status ByteReader::ReadDouble(double* value) {
  std::uint64_t bits = 0;
  CDT_RETURN_NOT_OK(ReadFixed64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status ByteReader::ReadBool(bool* value) {
  std::uint8_t byte = 0;
  CDT_RETURN_NOT_OK(ReadByte(&byte));
  if (byte > 1) return Status::ParseError("bool byte not 0/1");
  *value = byte != 0;
  return Status::OK();
}

Status ByteReader::ReadByte(std::uint8_t* value) {
  if (empty()) return Truncated("byte");
  *value = static_cast<std::uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ByteReader::ReadString(std::string* value) {
  std::string_view bytes;
  std::uint64_t length;
  CDT_RETURN_NOT_OK(ReadVarint64(&length));
  if (length > remaining()) return Truncated("string body");
  CDT_RETURN_NOT_OK(ReadBytes(static_cast<std::size_t>(length), &bytes));
  value->assign(bytes);
  return Status::OK();
}

Status ByteReader::ReadBytes(std::size_t length, std::string_view* value) {
  if (length > remaining()) return Truncated("byte range");
  *value = data_.substr(pos_, length);
  pos_ += length;
  return Status::OK();
}

Status ByteReader::ReadDoubleVector(std::vector<double>* values) {
  std::uint64_t count;
  CDT_RETURN_NOT_OK(ReadVarint64(&count));
  // Each element consumes 8 bytes, so the count is bounded by what is
  // actually present — rejects absurd counts before any allocation.
  if (count > remaining() / 8) return Truncated("double vector");
  values->clear();
  values->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    double v;
    CDT_RETURN_NOT_OK(ReadDouble(&v));
    values->push_back(v);
  }
  return Status::OK();
}

Status ByteReader::ReadIntVector(std::vector<int>* values) {
  std::uint64_t count;
  CDT_RETURN_NOT_OK(ReadVarint64(&count));
  if (count > remaining()) return Truncated("int vector");
  values->clear();
  values->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t v;
    CDT_RETURN_NOT_OK(ReadZigzag64(&v));
    if (v < INT32_MIN || v > INT32_MAX) {
      return Status::ParseError("int vector element overflows int32");
    }
    values->push_back(static_cast<int>(v));
  }
  return Status::OK();
}

// --- integrity -----------------------------------------------------------

namespace {

// Slicing-by-8: table[0] is the classic bytewise table, and table[k][b] is
// the CRC register after byte b is followed by k zero bytes. XOR-ing eight
// lookups folds eight input bytes into the register per step, with the
// same result as eight bytewise steps.
struct Crc32Tables {
  std::uint32_t table[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables.table[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables.table[k - 1][i];
      tables.table[k][i] = (prev >> 8) ^ tables.table[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32 = MakeCrc32Tables();

/// Little-endian by construction, so the CRC is the same on any host.
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(std::string_view data, std::uint32_t seed) {
  const auto& t = kCrc32.table;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace persist
}  // namespace cdt
