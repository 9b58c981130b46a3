/**
 * @file
 * RFC 1951 (DEFLATE) constants: alphabet sizes, the length and distance
 * code tables, and the code-length-code transmission order. Shared by the
 * software codec and the accelerator model — both must speak exactly this
 * format for cross round trips to succeed.
 */

#ifndef NXSIM_DEFLATE_CONSTANTS_H
#define NXSIM_DEFLATE_CONSTANTS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include "util/checked.h"
#include "util/contracts.h"

namespace deflate {

/** Literal/length alphabet size (0-255 literals, 256 EOB, 257-285 lengths). */
constexpr int kNumLitLen = 286;
/** Distance alphabet size. */
constexpr int kNumDist = 30;
/** Code-length alphabet size (for the dynamic block header). */
constexpr int kNumClc = 19;
/** End-of-block symbol. */
constexpr int kEob = 256;
/** Maximum Huffman code length for litlen/dist alphabets. */
constexpr int kMaxBits = 15;
/** Maximum Huffman code length for the code-length alphabet. */
constexpr int kMaxClcBits = 7;
/** Match length bounds. */
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
/** History window size. */
constexpr int kWindowSize = 32 * 1024;

/** Order in which code-length-code lengths are transmitted (RFC 1951). */
constexpr std::array<uint8_t, kNumClc> kClcOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15
};

/** Base match length for each length code 257..285 (index 0 = code 257). */
constexpr std::array<uint16_t, 29> kLengthBase = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258
};

/** Extra bits for each length code 257..285. */
constexpr std::array<uint8_t, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0
};

/** Base distance for each distance code 0..29. */
constexpr std::array<uint16_t, 30> kDistBase = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
    8193, 12289, 16385, 24577
};

/** Extra bits for each distance code 0..29. */
constexpr std::array<uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13
};

/** Map a match length (3..258) to its length code (257..285). */
int lengthToCode(int length);

/** Map a match distance (1..32768) to its distance code (0..29). */
int distToCode(int dist);

/** Block type field values (BTYPE). */
enum class BlockType : uint8_t
{
    Stored = 0,
    FixedHuffman = 1,
    DynamicHuffman = 2,
};

namespace detail {

/** Length code lookup built at static-init time; index by length - 3. */
struct LengthCodeTable
{
    std::array<uint8_t, kMaxMatch - kMinMatch + 1> code{};

    LengthCodeTable()
    {
        for (size_t c = 0; c < 29; ++c) {
            int base = kLengthBase[c];
            int span = 1 << kLengthExtra[c];
            for (int l = base; l < base + span && l <= kMaxMatch; ++l)
                code[static_cast<size_t>(l - kMinMatch)] =
                    nx::checked_cast<uint8_t>(c);
        }
        // Length 258 is its own code (285), overriding code 284's range.
        code[kMaxMatch - kMinMatch] = 28;
    }
};

inline const LengthCodeTable kLengthCodeTable;

/**
 * Distance code lookup in zlib's 512-entry _dist_code layout: distances
 * up to 256 index it directly by dist - 1, longer ones by 256 +
 * ((dist - 1) >> 7). Codes 16..29 start at multiples of 128 past 1 and
 * span at least 128 distances, so the shifted index never splits one.
 */
struct DistCodeTable
{
    std::array<uint8_t, 512> code{};

    static size_t
    index(int dist)
    {
        auto d = static_cast<size_t>(dist - 1);
        return d < 256 ? d : 256 + (d >> 7);
    }

    DistCodeTable()
    {
        for (size_t c = 0; c < kDistBase.size(); ++c) {
            int base = kDistBase[c];
            for (int d = base; d < base + (1 << kDistExtra[c]); ++d)
                code[index(d)] = nx::checked_cast<uint8_t>(c);
        }
    }
};

inline const DistCodeTable kDistCodeTable;

} // namespace detail

inline int
lengthToCode(int length)
{
    return 257 +
        detail::kLengthCodeTable.code[static_cast<size_t>(length -
                                                          kMinMatch)];
}

inline int
distToCode(int dist)
{
    NXSIM_EXPECT(1 <= dist && dist <= kWindowSize,
                 "distance outside the window");
    return detail::kDistCodeTable.code[detail::DistCodeTable::index(dist)];
}

} // namespace deflate

#endif // NXSIM_DEFLATE_CONSTANTS_H
