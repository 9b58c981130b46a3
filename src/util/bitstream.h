/**
 * @file
 * Bit-granular I/O in the LSB-first convention used by DEFLATE (RFC 1951).
 *
 * DEFLATE packs the first bit of the stream into the least significant bit
 * of the first byte. Huffman codes are written most-significant-bit first
 * (i.e. bit-reversed relative to the packing order), while extra-bits fields
 * are written LSB first. BitWriter/BitReader expose exactly those two
 * primitives so the codec layers never deal with bit order directly.
 */

#ifndef NXSIM_UTIL_BITSTREAM_H
#define NXSIM_UTIL_BITSTREAM_H

#include <cstdint>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace util {

/**
 * Accumulates bits LSB-first into a growing byte buffer.
 *
 * All write methods take the value in "natural" (LSB-first) order; Huffman
 * codes must be pre-reversed by the encoder (see reverseBits()). Bits
 * collect in a 64-bit accumulator that moves 32 of them to the buffer at
 * a time, so fewer than 32 bits are ever pending.
 */
// nxstate: protocol(BitWriter: {writeBits|append|reserveBits|alignToByte|writeByte|writeBytes|writeU16le|writeU32le|drain}* -> take)
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the low @p nbits bits of @p value, LSB first. nbits <= 32. */
    void
    writeBits(uint32_t value, unsigned nbits)
    {
        bitBuf_ |= static_cast<uint64_t>(value & mask(nbits)) << bitCount_;
        bitCount_ += nbits;
        if (bitCount_ >= 32) {
            for (int i = 0; i < 4; ++i)
                bytes_.push_back(static_cast<uint8_t>(bitBuf_ >> (8 * i)));
            bitBuf_ >>= 32;
            bitCount_ -= 32;
        }
    }

    /** Append every bit @p other holds, as if written here. */
    void
    append(const BitWriter &other)
    {
        for (uint8_t b : other.bytes_)
            writeBits(b, 8);
        writeBits(static_cast<uint32_t>(other.bitBuf_), other.bitCount_);
    }

    /** Make room for @p nbits more bits, so writing them never reallocates. */
    void
    reserveBits(uint64_t nbits)
    {
        bytes_.reserve(bytes_.size() + (bitCount_ + nbits + 7) / 8);
    }

    /** Move the pending bits out, zero-padding the last partial byte. */
    void
    alignToByte()
    {
        while (bitCount_ > 0) {
            bytes_.push_back(static_cast<uint8_t>(bitBuf_ & 0xff));
            bitBuf_ >>= 8;
            bitCount_ = bitCount_ > 8 ? bitCount_ - 8 : 0;
        }
    }

    /** Append a whole byte; requires byte alignment. */
    void writeByte(uint8_t b);

    /** Append raw bytes; requires byte alignment. */
    void writeBytes(std::span<const uint8_t> data);

    /** Append a 16-bit little-endian value; requires byte alignment. */
    void writeU16le(uint16_t v);

    /** Append a 32-bit little-endian value; requires byte alignment. */
    void writeU32le(uint32_t v);

    /** Total bits written so far (including unflushed ones). */
    uint64_t bitsWritten() const { return bytes_.size() * 8 + bitCount_; }

    /** True when the cursor sits on a byte boundary. */
    bool aligned() const { return bitCount_ % 8 == 0; }

    /** Finish the stream (zero-pad) and move the bytes out. */
    std::vector<uint8_t> take();

    /**
     * Move out the bytes completed so far WITHOUT finishing: any
     * partial byte stays buffered, so writing can continue with bit
     * continuity. This is the streaming-compressor drain primitive.
     */
    std::vector<uint8_t>
    drain()
    {
        for (; bitCount_ >= 8; bitCount_ -= 8) {
            bytes_.push_back(static_cast<uint8_t>(bitBuf_ & 0xff));
            bitBuf_ >>= 8;
        }
        return std::exchange(bytes_, {});
    }

  private:
    static uint32_t
    mask(unsigned nbits)
    {
        return nbits >= 32 ? 0xffffffffu : ((1u << nbits) - 1u);
    }

    std::vector<uint8_t> bytes_;
    uint64_t bitBuf_ = 0;
    unsigned bitCount_ = 0;
};

/**
 * Reads bits LSB-first from a byte buffer.
 *
 * Reading past the end is reported via overrun() rather than by throwing,
 * so the inflate hot loop stays branch-light; callers check overrun() at
 * block boundaries.
 */
class BitReader
{
  public:
    explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

    /** Read @p nbits (<= 32) LSB-first; returns 0 and sets overrun at EOF. */
    uint32_t
    readBits(unsigned nbits)
    {
        fill(nbits);
        if (bitCount_ < nbits) {
            overrun_ = true;
            bitCount_ = 0;
            bitBuf_ = 0;
            return 0;
        }
        uint32_t v = static_cast<uint32_t>(bitBuf_) &
            (nbits >= 32 ? 0xffffffffu : ((1u << nbits) - 1u));
        bitBuf_ >>= nbits;
        bitCount_ -= nbits;
        return v;
    }

    /**
     * Peek up to @p nbits without consuming. Missing high bits beyond EOF
     * read as zero; the caller consumes only what a decode table says is
     * valid, and true overrun is caught on consume.
     */
    uint32_t
    peekBits(unsigned nbits)
    {
        fill(nbits);
        return static_cast<uint32_t>(bitBuf_) &
            (nbits >= 32 ? 0xffffffffu : ((1u << nbits) - 1u));
    }

    /** Consume @p nbits previously peeked. */
    void
    consumeBits(unsigned nbits)
    {
        if (bitCount_ < nbits) {
            overrun_ = true;
            bitCount_ = 0;
            bitBuf_ = 0;
            return;
        }
        bitBuf_ >>= nbits;
        bitCount_ -= nbits;
    }

    /** Discard bits to the next byte boundary. */
    void alignToByte();

    /** Read a whole little-endian 16-bit value (must be byte-aligned). */
    uint16_t readU16le();

    /** Read a whole little-endian 32-bit value (must be byte-aligned). */
    uint32_t readU32le();

    /** Copy @p n raw bytes (must be byte-aligned). Returns false at EOF. */
    bool readBytes(uint8_t *out, size_t n);

    /** True once any read ran past the end of the input. */
    bool overrun() const { return overrun_; }

    /** Bits consumed so far. */
    uint64_t bitsConsumed() const { return pos_ * 8 - bitCount_; }

    /** Bytes fully or partially consumed, rounded up. */
    size_t bytesConsumed() const { return (bitsConsumed() + 7) / 8; }

    /** Bits not yet consumed. */
    uint64_t bitsLeft() const { return (data_.size() - pos_) * 8 + bitCount_; }

    /** True when all input bits have been consumed. */
    bool
    exhausted() const
    {
        return pos_ == data_.size() && bitCount_ == 0;
    }

  private:
    void
    fill(unsigned need)
    {
        while (bitCount_ < need && pos_ < data_.size()) {
            bitBuf_ |= static_cast<uint64_t>(data_[pos_++]) << bitCount_;
            bitCount_ += 8;
        }
    }

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    uint64_t bitBuf_ = 0;
    unsigned bitCount_ = 0;
    bool overrun_ = false;
};

/** Reverse the low @p nbits of @p v (used to emit Huffman codes MSB-first). */
inline uint32_t
reverseBits(uint32_t v, unsigned nbits)
{
    // Reverse all 32 bits by swapping ever wider groups, then shift the
    // low nbits, now on top, back down.
    v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
    v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
    v = ((v >> 4) & 0x0f0f0f0fu) | ((v & 0x0f0f0f0fu) << 4);
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
    return nbits == 0 ? 0 : v >> (32 - nbits);
}

} // namespace util

#endif // NXSIM_UTIL_BITSTREAM_H
