/**
 * @file
 * Canonical Huffman coding for DEFLATE alphabets.
 *
 * Three layers:
 *  - buildCodeLengths(): frequencies -> length-limited code lengths
 *    (Huffman tree via a heap, with zlib-style overflow fix-up to respect
 *    the 15-bit / 7-bit limits);
 *  - HuffmanCode: code lengths -> canonical codes ready for a BitWriter;
 *  - HuffmanDecodeTable: code lengths -> root lookup table sized to the
 *    code (at most 2^10 entries) plus a canonical walk for longer codes.
 *
 * Both the software codec and the accelerator's Huffman stage use these.
 */

#ifndef NXSIM_DEFLATE_HUFFMAN_H
#define NXSIM_DEFLATE_HUFFMAN_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "deflate/constants.h"
#include "util/bitstream.h"
#include "util/checked.h"

namespace deflate {

/**
 * Compute length-limited Huffman code lengths from symbol frequencies.
 *
 * @param freqs frequency of each symbol; zero-frequency symbols get
 *              length 0 (not coded)
 * @param max_bits maximum permitted code length (15 or 7 in DEFLATE)
 * @return per-symbol code lengths, Kraft-complete over used symbols
 *
 * If only one symbol has nonzero frequency it still receives length 1,
 * as DEFLATE requires at least one bit per coded symbol.
 */
std::vector<uint8_t> buildCodeLengths(std::span<const uint64_t> freqs,
                                      int max_bits);

/** A canonical Huffman code: per-symbol (code, length) pairs. */
class HuffmanCode
{
  public:
    HuffmanCode() = default;

    /** Build canonical codes from code lengths (RFC 1951 section 3.2.2). */
    explicit HuffmanCode(std::span<const uint8_t> lengths);

    /** Emit symbol @p sym (codes are emitted MSB-first via bit reversal). */
    void
    writeSymbol(util::BitWriter &bw, int sym) const
    {
        auto s = static_cast<size_t>(sym);
        bw.writeBits(codes_[s], lengths_[s]);
    }

    /** Code length of @p sym in bits (0 = not coded). */
    uint8_t
    length(int sym) const
    {
        return lengths_[static_cast<size_t>(sym)];
    }

    /** Bit-reversed (write-ready) code of @p sym. */
    uint16_t
    code(int sym) const
    {
        return codes_[static_cast<size_t>(sym)];
    }

    /** Number of symbols in the alphabet. */
    size_t size() const { return lengths_.size(); }

    /** Total encoded size in bits for a frequency vector. */
    uint64_t costBits(std::span<const uint64_t> freqs) const;

    /** The fixed literal/length code of RFC 1951 section 3.2.6. */
    static const HuffmanCode &fixedLitLen();

    /** The fixed distance code (all 5-bit). */
    static const HuffmanCode &fixedDist();

  private:
    std::vector<uint16_t> codes_;
    std::vector<uint8_t> lengths_;
};

/**
 * Canonical decoder sized to the code it holds, not to kMaxBits.
 *
 * A root table of 2^rootBits entries, rootBits = min(longest code,
 * kRootBits), resolves every code of up to rootBits bits in one lookup.
 * The root entry under the first rootBits bits of a longer code is
 * marked, and decode() finishes such codes with a canonical walk
 * (puff's decode(), started at rootBits + 1) over the per-length code
 * counts and the long-coded symbols in code order. Building therefore
 * costs O(2^rootBits + symbols), at most 1024 entries * 4 bytes = 4 KiB,
 * which keeps the two table builds of a dynamic block cheap next to
 * decoding a small record. The accelerator model reports its own table
 * in the area inventory; functional decode goes through this class.
 */
class HuffmanDecodeTable
{
  public:
    /** Root width cap: codes up to this many bits decode in one lookup. */
    static constexpr int kRootBits = 10;

    HuffmanDecodeTable() = default;

    /**
     * Build from code lengths.
     * @return false if lengths are not a valid (sub-)Kraft code; every
     *         window then decodes as invalid.
     */
    bool init(std::span<const uint8_t> lengths, int max_bits = kMaxBits);

    /**
     * Decode one symbol from @p br.
     * @return symbol index, or -1 on invalid code / input overrun.
     */
    int
    decode(util::BitReader &br) const
    {
        uint32_t window = br.peekBits(longest_);
        // nxtaint: allow(taint-index): the window is masked to
        // rootBits_ bits and root_ holds 1 << rootBits_ entries (see
        // init), so the subscript is in range by construction.
        Entry e = root_[window & rootMask_];
        if (e.length == kLongCode) [[unlikely]]
            e = decodeLong(window);
        if (e.length == 0)
            return -1;
        br.consumeBits(e.length);
        if (br.overrun())
            return -1;
        return e.symbol;
    }

    bool valid() const { return !root_.empty(); }

    /** The fixed literal/length code of RFC 1951 section 3.2.6. */
    static const HuffmanDecodeTable &fixedLitLen();

    /** The fixed distance code, all 32 symbols of 5 bits. */
    static const HuffmanDecodeTable &fixedDist();

  private:
    struct Entry
    {
        int16_t symbol = -1;
        uint8_t length = 0;    ///< 0 = no code; kLongCode = walk on
    };

    /** Root entry length marking the first bits of a longer code. */
    static constexpr uint8_t kLongCode = 0xff;

    /** Finish a code longer than rootBits_ from the peeked window. */
    Entry decodeLong(uint32_t window) const;

    std::vector<Entry> root_;
    std::vector<int16_t> longSymbols_;    ///< codes > rootBits_, in code order
    std::array<uint32_t, kMaxBits + 1> count_{};    ///< codes per length
    std::array<uint16_t, kMaxBits + 1> first_{};    ///< first code per length
    std::array<uint16_t, kMaxBits + 1> offset_{};   ///< into longSymbols_
    unsigned longest_ = 0;
    unsigned rootBits_ = 0;
    uint32_t rootMask_ = 0;
};

} // namespace deflate

#endif // NXSIM_DEFLATE_HUFFMAN_H
