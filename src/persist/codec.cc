#include "persist/codec.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cdt {
namespace persist {

using util::Status;

// --- encoding -----------------------------------------------------------

void PutVarint64(std::string* out, std::uint64_t value) {
  char bytes[10];
  out->append(bytes, PutVarint64At(bytes, value) - bytes);
}

void PutZigzag64(std::string* out, std::int64_t value) {
  PutVarint64(out, ZigzagEncode(value));
}

void PutFixed32(std::string* out, std::uint32_t value) {
  char bytes[4];
  out->append(bytes, PutFixed32At(bytes, value) - bytes);
}

void PutFixed64(std::string* out, std::uint64_t value) {
  char bytes[8];
  out->append(bytes, PutFixed64At(bytes, value) - bytes);
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

void PutDoubleVector(std::string* out, const std::vector<double>& values) {
  PutVarint64(out, values.size());
  for (double v : values) PutDouble(out, v);
}

void PutIntVector(std::string* out, const std::vector<int>& values) {
  PutVarint64(out, values.size());
  for (int v : values) PutZigzag64(out, v);
}

// --- decoding -----------------------------------------------------------

Status ByteReader::Truncated(const char* what) {
  return Status::ParseError(std::string("truncated input reading ") + what);
}

Status ByteReader::BadBool() {
  return Status::ParseError("bool byte not 0/1");
}

Status ByteReader::IntOverflow() {
  return Status::ParseError("int vector element overflows int32");
}

Status ByteReader::ReadVarint64Slow(std::uint64_t* value) {
  std::uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return Truncated("varint");
    std::uint8_t byte = Byte(pos_++);
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

Status ByteReader::ReadFixed32(std::uint32_t* value) {
  if (remaining() < 4) return Truncated("fixed32");
  std::uint32_t result = 0;
  for (int i = 0; i < 4; ++i) {
    result |= static_cast<std::uint32_t>(Byte(pos_ + i)) << (8 * i);
  }
  pos_ += 4;
  *value = result;
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

// Polynomials mod P in the CRC's reflected form: bit 31 is x^0's
// coefficient and bit 0 is x^31's, so x^k is 1 << (31 - k) for k < 32.
constexpr std::uint32_t kOne = 1u << 31;

/// a · b mod P, one bit of `a` per step (zlib's multmodp).
constexpr std::uint32_t MultiplyModPPortable(std::uint32_t a,
                                             std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = kOne; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b >> 1) ^ ((b & 1) ? 0xEDB88320u : 0u);  // b · x
  }
  return product;
}

/// table[j][b] = x^(8 · b · 256^j) mod P: multiplying by the entries for
/// the four bytes of n carries a CRC over n bytes.
struct Crc32ShiftTables {
  std::uint32_t table[4][256];
};

constexpr Crc32ShiftTables MakeCrc32ShiftTables() {
  Crc32ShiftTables tables{};
  std::uint32_t step = kOne >> 8;  // x^8: one byte
  for (auto& row : tables.table) {
    row[0] = kOne;
    for (int b = 1; b < 256; ++b) {
      row[b] = MultiplyModPPortable(row[b - 1], step);
    }
    step = MultiplyModPPortable(row[255], step);
  }
  return tables;
}

constexpr Crc32ShiftTables kCrc32Shift = MakeCrc32ShiftTables();

/// Little-endian by construction, so the CRC is the same on any host.
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)

// Folding with carry-less multiplies (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in
// the bit-reflected domain of 0xEDB88320. Four 128-bit lanes take 64
// bytes per step: each lane's two 64-bit halves are multiplied by
// x^(512±32) mod P (k1, k2) and XORed into the lane's next block, which
// moves the lane 512 bits along without changing its remainder mod P.
// The lanes are then folded into one with x^(128±32) mod P (k3, k4),
// further 16-byte blocks are folded into it, and its 128 bits are reduced
// to 64 (k5 = x^64 mod P) and by Barrett reduction (P and mu) to the
// 32-bit register. The constants are the ones zlib's and Linux's
// PCLMULQDQ CRC-32 bodies use.
//
// The fold needs PCLMULQDQ and SSE4.1, which the build does not assume:
// the functions that use them are compiled for them, and Crc32 and
// Crc32Combine call them only on a host that has both.
#define CDT_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

/// One lane moved `k`'s stride along and XORed into the block there.
CDT_CRC_FOLD_TARGET inline __m128i FoldInto(__m128i lane, __m128i k,
                                            __m128i block) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       block);
}

/// Takes and returns the CRC register (the pre-inverted value); `len` is
/// a multiple of 16 and at least 64.
CDT_CRC_FOLD_TARGET std::uint32_t FoldCrc32(const unsigned char* p,
                                            std::size_t len,
                                            std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto* block = reinterpret_cast<const __m128i*>(p);
  const auto* const end = block + len / 16;

  __m128i x0 = _mm_xor_si128(_mm_loadu_si128(block),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = _mm_loadu_si128(block + 1);
  __m128i x2 = _mm_loadu_si128(block + 2);
  __m128i x3 = _mm_loadu_si128(block + 3);
  for (block += 4; end - block >= 4; block += 4) {
    x0 = FoldInto(x0, k1k2, _mm_loadu_si128(block));
    x1 = FoldInto(x1, k1k2, _mm_loadu_si128(block + 1));
    x2 = FoldInto(x2, k1k2, _mm_loadu_si128(block + 2));
    x3 = FoldInto(x3, k1k2, _mm_loadu_si128(block + 3));
  }
  __m128i x = FoldInto(FoldInto(FoldInto(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; block < end; ++block) x = FoldInto(x, k3k4, _mm_loadu_si128(block));

  // 128 bits to 64: the low half times k4 into the high half, then the
  // low 32 bits of that times k5 into the rest.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  // Barrett: q = (low 32 · mu) mod x^32, then x ⊕ q · P leaves the
  // remainder in bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

/// a · b mod P with one carry-less multiply. The 63-bit product, shifted
/// up one bit, is x^0..x^31 in its high word and x^32..x^63 in its low
/// word; the low word times x^32 mod P is the CRC register after those
/// four bytes, which four slicing-table lookups give.
CDT_CRC_FOLD_TARGET std::uint32_t MultiplyModPClmul(std::uint32_t a,
                                                    std::uint32_t b) {
  const __m128i product =
      _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(a)),
                           _mm_cvtsi32_si128(static_cast<int>(b)), 0x00);
  const std::uint64_t shifted =
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(product)) << 1;
  const auto low_terms = static_cast<std::uint32_t>(shifted >> 32);
  const auto high_terms = static_cast<std::uint32_t>(shifted);
  const auto& t = kCrc32.table;
  return low_terms ^ t[3][high_terms & 0xFF] ^
         t[2][(high_terms >> 8) & 0xFF] ^ t[1][(high_terms >> 16) & 0xFF] ^
         t[0][high_terms >> 24];
}

bool CpuCanFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

/// Chosen once, at static initialisation. A Crc32 that runs before it is
/// set (from another file's static initialiser) takes the portable body,
/// which gives the same value.
const bool kCpuCanFold = CpuCanFold();

#undef CDT_CRC_FOLD_TARGET

#endif  // __x86_64__

}  // namespace

std::uint32_t Crc32Portable(std::string_view data, std::uint32_t seed) {
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

std::uint32_t Crc32(std::string_view data, std::uint32_t seed) {
#if defined(__x86_64__)
  if (data.size() >= 64 && kCpuCanFold) {
    // Fold whole 16-byte blocks; the portable body takes the tail.
    const std::size_t bulk = data.size() & ~std::size_t{15};
    seed = ~FoldCrc32(reinterpret_cast<const unsigned char*>(data.data()),
                      bulk, ~seed);
    data.remove_prefix(bulk);
  }
#endif
  return Crc32Portable(data, seed);
}

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint32_t length_b) {
  auto multiply = [](std::uint32_t a, std::uint32_t b) {
#if defined(__x86_64__)
    if (kCpuCanFold) return MultiplyModPClmul(a, b);
#endif
    return MultiplyModPPortable(a, b);
  };
  // x^(8 · length_b) mod P, one factor per byte of the length; a zero
  // byte's factor is 1.
  const auto& t = kCrc32Shift.table;
  std::uint32_t shift = t[0][length_b & 0xFF];
  for (int j = 1; j < 4; ++j) {
    const std::uint32_t byte = (length_b >> (8 * j)) & 0xFF;
    if (byte != 0) shift = multiply(shift, t[j][byte]);
  }
  return multiply(crc_a, shift) ^ crc_b;
}

}  // namespace persist
}  // namespace cdt
