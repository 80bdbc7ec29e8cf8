// A read-only view of one column of an array of rows: `size` values of
// type T spaced `stride` bytes apart. With stride == sizeof(T) it views a
// plain array. Lets one encoder read the same field from a structure of
// arrays (the live engine) and from an array of structures (a captured
// snapshot) without copying either.

#ifndef CDT_UTIL_STRIDED_SPAN_H_
#define CDT_UTIL_STRIDED_SPAN_H_

#include <cstddef>
#include <cstring>
#include <vector>

namespace cdt {
namespace util {

template <typename T>
class StridedSpan {
 public:
  StridedSpan() = default;
  /// `first` addresses the first value; the i-th lies i * stride bytes
  /// further. Its bytes are read as a T, so a bool field may be viewed as
  /// a std::uint8_t.
  StridedSpan(const void* first, std::size_t size, std::size_t stride)
      : base_(static_cast<const unsigned char*>(first)),
        size_(size),
        stride_(stride) {}
  /// A contiguous vector.
  StridedSpan(const std::vector<T>& values)  // NOLINT(runtime/explicit)
      : StridedSpan(values.data(), values.size(), sizeof(T)) {}

  std::size_t size() const { return size_; }

  T operator[](std::size_t i) const {
    T value;
    std::memcpy(&value, base_ + i * stride_, sizeof value);
    return value;
  }

 private:
  const unsigned char* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t stride_ = sizeof(T);
};

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_STRIDED_SPAN_H_
