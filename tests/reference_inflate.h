/**
 * @file
 * Reference RFC 1951 inflater for differential tests. It reads one bit
 * at a time and decodes canonical codes by walking the per-length code
 * counts, the way puff and test_huffman.cc's ReferenceDecoder do. It
 * shares no code with src/deflate (no HuffmanDecodeTable, BitReader or
 * InflateStream; its own RFC tables), and accepts exactly the codes
 * HuffmanDecodeTable accepts:
 *  - no over-subscribed code;
 *  - an incomplete code only when it has one symbol;
 *  - an empty code only for the distance alphabet (RFC 1951 3.2.7).
 *
 * Speed is not a goal: it is an oracle for test-sized inputs.
 */

#ifndef NXSIM_TESTS_REFERENCE_INFLATE_H
#define NXSIM_TESTS_REFERENCE_INFLATE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace reference {

namespace detail {

constexpr std::array<uint16_t, 29> kLengthBase = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<uint8_t, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::array<uint16_t, 30> kDistBase = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193,
    12289, 16385, 24577};
constexpr std::array<uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
constexpr std::array<uint8_t, 19> kClcOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

/** A canonical code: codes per length, symbols in code order. */
struct Code
{
    std::array<int, 16> count{};
    std::vector<int> symbols;
};

/** Build a code; false for a code HuffmanDecodeTable would reject. */
inline bool
build(std::span<const uint8_t> lengths, bool allow_empty, Code &c)
{
    c = Code{};
    for (uint8_t l : lengths)
        ++c.count[l];
    int used = static_cast<int>(lengths.size()) - c.count[0];
    c.count[0] = 0;
    long left = 1;
    for (int len = 1; len <= 15; ++len) {
        left = 2 * left - c.count[static_cast<size_t>(len)];
        if (left < 0)
            return false;    // over-subscribed
    }
    for (int len = 1; len <= 15; ++len)
        for (size_t s = 0; s < lengths.size(); ++s)
            if (lengths[s] == len)
                c.symbols.push_back(static_cast<int>(s));
    if (used == 0)
        return allow_empty;
    return left == 0 || used == 1;
}

struct Inflater
{
    std::span<const uint8_t> in;
    size_t bit = 0;
    std::vector<uint8_t> out;    // dictionary tail, then output

    bool
    bits(unsigned n, unsigned &v)
    {
        v = 0;
        for (unsigned i = 0; i < n; ++i, ++bit) {
            if (bit >= in.size() * 8)
                return false;
            v |= ((in[bit / 8] >> (bit % 8)) & 1u) << i;
        }
        return true;
    }

    /** One symbol, MSB-first; -1 for no code or end of input. */
    int
    decode(const Code &c)
    {
        int code = 0, first = 0, index = 0;
        for (size_t len = 1; len <= 15; ++len) {
            unsigned b = 0;
            if (!bits(1, b))
                return -1;
            code |= static_cast<int>(b);
            int count = c.count[len];
            if (code - first < count)
                return c.symbols[static_cast<size_t>(index + code - first)];
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        return -1;
    }

    bool
    dynamicCodes(Code &lit, Code &dist)
    {
        unsigned hlit = 0, hdist = 0, hclen = 0;
        if (!bits(5, hlit) || !bits(5, hdist) || !bits(4, hclen))
            return false;
        hlit += 257;
        hdist += 1;
        hclen += 4;
        if (hlit > 286 || hdist > 30)
            return false;
        std::array<uint8_t, 19> clLengths{};
        for (size_t i = 0; i < hclen; ++i) {
            unsigned v = 0;
            if (!bits(3, v))
                return false;
            clLengths[kClcOrder[i]] = static_cast<uint8_t>(v);
        }
        Code cl;
        if (!build(clLengths, false, cl))
            return false;
        std::vector<uint8_t> lengths;
        while (lengths.size() < hlit + hdist) {
            int sym = decode(cl);
            if (sym < 0)
                return false;
            if (sym < 16) {
                lengths.push_back(static_cast<uint8_t>(sym));
                continue;
            }
            unsigned rep = 0;
            uint8_t fill = 0;
            if (sym == 16) {
                if (lengths.empty() || !bits(2, rep))
                    return false;
                fill = lengths.back();
                rep += 3;
            } else if (sym == 17) {
                if (!bits(3, rep))
                    return false;
                rep += 3;
            } else {
                if (!bits(7, rep))
                    return false;
                rep += 11;
            }
            if (lengths.size() + rep > hlit + hdist)
                return false;
            lengths.insert(lengths.end(), rep, fill);
        }
        std::span<const uint8_t> all(lengths);
        return build(all.first(hlit), false, lit) &&
               build(all.subspan(hlit), true, dist);
    }

    bool
    codes(const Code &lit, const Code &dist, size_t limit)
    {
        while (true) {
            int sym = decode(lit);
            if (sym < 0 || sym > 285)
                return false;
            if (sym == 256)
                return true;
            if (sym < 256) {
                out.push_back(static_cast<uint8_t>(sym));
            } else {
                auto li = static_cast<size_t>(sym - 257);
                unsigned extra = 0;
                if (!bits(kLengthExtra[li], extra))
                    return false;
                size_t length = kLengthBase[li] + extra;
                int d = decode(dist);
                if (d < 0 || d > 29)
                    return false;
                auto di = static_cast<size_t>(d);
                if (!bits(kDistExtra[di], extra))
                    return false;
                size_t distance = kDistBase[di] + extra;
                if (distance > out.size() || distance > 32768)
                    return false;
                for (size_t i = 0; i < length; ++i)
                    out.push_back(out[out.size() - distance]);
            }
            if (out.size() > limit)
                return false;
        }
    }

    bool
    run(size_t limit)
    {
        unsigned last = 0;
        do {
            unsigned type = 0;
            if (!bits(1, last) || !bits(2, type))
                return false;
            if (type == 0) {
                bit = (bit + 7) / 8 * 8;
                unsigned len = 0, nlen = 0;
                if (!bits(16, len) || !bits(16, nlen) ||
                    (len ^ nlen) != 0xffff)
                    return false;
                for (unsigned i = 0; i < len; ++i) {
                    unsigned b = 0;
                    if (!bits(8, b))
                        return false;
                    out.push_back(static_cast<uint8_t>(b));
                }
                if (out.size() > limit)
                    return false;
                continue;
            }
            Code lit, dist;
            if (type == 1) {
                std::array<uint8_t, 288> l{};
                for (size_t s = 0; s < l.size(); ++s)
                    l[s] = s < 144 ? 8 : s < 256 ? 9 : s < 280 ? 7 : 8;
                std::array<uint8_t, 32> d{};
                d.fill(5);
                build(l, false, lit);
                build(d, false, dist);
            } else if (type != 2 || !dynamicCodes(lit, dist)) {
                return false;
            }
            if (!codes(lit, dist, limit))
                return false;
        } while (last == 0);
        return true;
    }
};

} // namespace detail

/**
 * Inflate a raw DEFLATE stream, with back-references allowed into the
 * last 32 KiB of @p dict.
 * @return the output, or nullopt for a malformed or truncated stream,
 *         or one whose output would pass @p max_output bytes
 */
inline std::optional<std::vector<uint8_t>>
inflate(std::span<const uint8_t> in, std::span<const uint8_t> dict = {},
        size_t max_output = size_t{1} << 30)
{
    detail::Inflater r{in, 0, {}};
    size_t base = std::min<size_t>(dict.size(), 32768);
    r.out.assign(dict.end() - static_cast<long>(base), dict.end());
    if (!r.run(base + max_output))
        return std::nullopt;
    r.out.erase(r.out.begin(), r.out.begin() + static_cast<long>(base));
    return r.out;
}

} // namespace reference

#endif // NXSIM_TESTS_REFERENCE_INFLATE_H
