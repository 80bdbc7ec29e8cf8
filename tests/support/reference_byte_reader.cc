#include "support/reference_byte_reader.h"

#include <cstring>
#include <string>

namespace cdt {
namespace testsupport {

using util::Status;

namespace {

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated input reading ") + what);
}

}  // namespace

Status ReferenceByteReader::ReadVarint64(std::uint64_t* value) {
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

Status ReferenceByteReader::ReadZigzag64(std::int64_t* value) {
  std::uint64_t u;
  CDT_RETURN_NOT_OK(ReadVarint64(&u));
  *value = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  return Status::OK();
}

Status ReferenceByteReader::ReadFixed32(std::uint32_t* value) {
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

Status ReferenceByteReader::ReadFixed64(std::uint64_t* value) {
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

Status ReferenceByteReader::ReadDouble(double* value) {
  std::uint64_t bits = 0;
  CDT_RETURN_NOT_OK(ReadFixed64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status ReferenceByteReader::ReadBool(bool* value) {
  std::uint8_t byte = 0;
  CDT_RETURN_NOT_OK(ReadByte(&byte));
  if (byte > 1) return Status::ParseError("bool byte not 0/1");
  *value = byte != 0;
  return Status::OK();
}

Status ReferenceByteReader::ReadByte(std::uint8_t* value) {
  if (empty()) return Truncated("byte");
  *value = static_cast<std::uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ReferenceByteReader::ReadBytes(std::size_t length,
                                      std::string_view* value) {
  if (length > remaining()) return Truncated("byte range");
  *value = data_.substr(pos_, length);
  pos_ += length;
  return Status::OK();
}

Status ReferenceByteReader::ReadDoubleVector(std::vector<double>* values) {
  std::uint64_t count;
  CDT_RETURN_NOT_OK(ReadVarint64(&count));
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

Status ReferenceByteReader::ReadIntVector(std::vector<int>* values) {
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

}  // namespace testsupport
}  // namespace cdt
