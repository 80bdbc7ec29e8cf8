// The out-of-line ByteReader: every read a function call that checks its
// bounds byte by byte, and vectors that read element by element. The
// oracle for persist::ByteReader's inline reads; codec_fuzz_test holds the
// two to the same status code and message, value and position on random,
// truncated and bit-flipped inputs.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_BYTE_READER_H_
#define CDT_TESTS_SUPPORT_REFERENCE_BYTE_READER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace testsupport {

class ReferenceByteReader {
 public:
  explicit ReferenceByteReader(std::string_view data) : data_(data) {}

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
  util::Status ReadBytes(std::size_t length, std::string_view* value);
  util::Status ReadDoubleVector(std::vector<double>* values);
  util::Status ReadIntVector(std::vector<int>* values);

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_BYTE_READER_H_
