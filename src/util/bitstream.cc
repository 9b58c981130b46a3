#include "util/bitstream.h"

#include "util/contracts.h"
#include <cstring>

namespace util {

void
BitWriter::writeByte(uint8_t b)
{
    writeBytes(std::span<const uint8_t>(&b, 1));
}

void
BitWriter::writeBytes(std::span<const uint8_t> data)
{
    NXSIM_EXPECT(aligned(), "requires byte alignment");
    alignToByte();    // moves the accumulator's whole bytes out first
    bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void
BitWriter::writeU16le(uint16_t v)
{
    const uint8_t le[2] = {static_cast<uint8_t>(v & 0xff),
                           static_cast<uint8_t>(v >> 8)};
    writeBytes(le);
}

void
BitWriter::writeU32le(uint32_t v)
{
    uint8_t le[4] = {};
    for (int i = 0; i < 4; ++i)
        le[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
    writeBytes(le);
}

std::vector<uint8_t>
BitWriter::take()
{
    alignToByte();
    return std::move(bytes_);
}

void
BitReader::alignToByte()
{
    unsigned drop = bitCount_ % 8;
    bitBuf_ >>= drop;
    bitCount_ -= drop;
}

uint16_t
BitReader::readU16le()
{
    alignToByte();
    uint16_t lo = static_cast<uint16_t>(readBits(8));
    uint16_t hi = static_cast<uint16_t>(readBits(8));
    return static_cast<uint16_t>(lo | (hi << 8));
}

uint32_t
BitReader::readU32le()
{
    alignToByte();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= readBits(8) << (8 * i);
    return v;
}

bool
BitReader::readBytes(uint8_t *out, size_t n)
{
    alignToByte();
    // Drain any bytes still sitting in the bit buffer first.
    size_t i = 0;
    while (i < n && bitCount_ >= 8) {
        out[i++] = static_cast<uint8_t>(bitBuf_ & 0xff);
        bitBuf_ >>= 8;
        bitCount_ -= 8;
    }
    size_t remain = n - i;
    if (pos_ + remain > data_.size()) {
        overrun_ = true;
        return false;
    }
    if (remain != 0) {
        std::memcpy(out + i, data_.data() + pos_, remain);
        pos_ += remain;
    }
    return true;
}

} // namespace util
