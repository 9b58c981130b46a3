#include "util/crc32.h"

#include <array>

namespace util {

namespace {

constexpr uint32_t kPoly = 0xedb88320u;

/**
 * Slice-by-8 tables. kTables[0] is the classic byte-at-a-time table;
 * kTables[k][i] is the CRC register after byte i is followed by k zero
 * bytes, so eight lookups fold eight input bytes at once.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    return t;
}

constexpr auto kTables = makeTables();

/** Little-endian 32-bit load, independent of the host byte order. */
uint32_t
load32le(std::span<const uint8_t> p, size_t i)
{
    return static_cast<uint32_t>(p[i]) |
        (static_cast<uint32_t>(p[i + 1]) << 8) |
        (static_cast<uint32_t>(p[i + 2]) << 16) |
        (static_cast<uint32_t>(p[i + 3]) << 24);
}

} // namespace

void
Crc32::update(std::span<const uint8_t> data)
{
    const auto &t = kTables;
    uint32_t c = state_;
    size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {
        uint32_t lo = c ^ load32le(data, i);
        uint32_t hi = load32le(data, i + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; i < data.size(); ++i)
        c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
    state_ = c;
}

uint32_t
crc32(std::span<const uint8_t> data)
{
    Crc32 c;
    c.update(data);
    return c.value();
}

namespace {

/** Multiply GF(2) 32x32 matrix by vector. */
uint32_t
gf2MatTimesVec(const std::array<uint32_t, 32> &mat, uint32_t vec)
{
    uint32_t sum = 0;
    size_t i = 0;
    while (vec) {
        if (vec & 1)
            sum ^= mat[i];
        vec >>= 1;
        ++i;
    }
    return sum;
}

/** Square a GF(2) matrix. */
std::array<uint32_t, 32>
gf2MatSquare(const std::array<uint32_t, 32> &mat)
{
    std::array<uint32_t, 32> sq{};
    for (size_t i = 0; i < 32; ++i)
        sq[i] = gf2MatTimesVec(mat, mat[i]);
    return sq;
}

} // namespace

uint32_t
crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b)
{
    if (len_b == 0)
        return crc_a;

    // odd = matrix advancing the CRC register by one zero bit.
    std::array<uint32_t, 32> odd{};
    odd[0] = kPoly;
    for (size_t i = 1; i < 32; ++i)
        odd[i] = 1u << (i - 1);
    auto even = gf2MatSquare(odd);    // two zero bits
    odd = gf2MatSquare(even);         // four zero bits

    // Advance crc_a through len_b zero BYTES by repeated squaring.
    uint64_t len = len_b;
    do {
        even = gf2MatSquare(odd);
        if (len & 1)
            crc_a = gf2MatTimesVec(even, crc_a);
        len >>= 1;
        if (len == 0)
            break;
        odd = gf2MatSquare(even);
        if (len & 1)
            crc_a = gf2MatTimesVec(odd, crc_a);
        len >>= 1;
    } while (len != 0);

    return crc_a ^ crc_b;
}

} // namespace util
