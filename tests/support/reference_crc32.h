// The bytewise CRC-32 table loop: the test oracle for persist::Crc32's
// slicing-by-8 body. Same polynomial (reflected 0xEDB88320), same
// pre/post inversion and the same chaining contract, one byte per step.
// codec_fuzz_test pins the production CRC to it, and bench/micro_persist
// links it for its BM_Crc32Reference rows.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_CRC32_H_
#define CDT_TESTS_SUPPORT_REFERENCE_CRC32_H_

#include <cstdint>
#include <string_view>

namespace cdt {
namespace testsupport {

/// CRC-32 of `data`, continuing the checksum `seed` (0 starts a new one).
std::uint32_t ReferenceCrc32(std::string_view data, std::uint32_t seed = 0);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_CRC32_H_
