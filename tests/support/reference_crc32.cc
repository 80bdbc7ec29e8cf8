#include "support/reference_crc32.h"

namespace cdt {
namespace testsupport {

namespace {

struct Crc32Table {
  std::uint32_t entries[256];

  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

std::uint32_t ReferenceCrc32(std::string_view data, std::uint32_t seed) {
  static const Crc32Table table;
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (char c : data) {
    crc = (crc >> 8) ^ table.entries[(crc ^ static_cast<std::uint8_t>(c)) &
                                     0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace testsupport
}  // namespace cdt
