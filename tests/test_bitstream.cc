/**
 * @file
 * Unit tests for LSB-first bit packing, byte alignment, peek/consume and
 * overrun semantics of util::BitWriter / util::BitReader.
 */

#include <gtest/gtest.h>

#include "util/bitstream.h"
#include "util/prng.h"

using util::BitReader;
using util::BitWriter;
using util::reverseBits;

TEST(BitWriter, PacksLsbFirst)
{
    BitWriter bw;
    bw.writeBits(0b1, 1);
    bw.writeBits(0b01, 2);
    bw.writeBits(0b10110, 5);
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 1u);
    // bit0=1, bits1-2=01, bits3-7=10110 -> 0b10110'01'1
    EXPECT_EQ(bytes[0], 0b10110011);
}

TEST(BitWriter, AlignPadsWithZeros)
{
    BitWriter bw;
    bw.writeBits(0b11, 2);
    bw.alignToByte();
    bw.writeByte(0xab);
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 0b00000011);
    EXPECT_EQ(bytes[1], 0xab);
}

TEST(BitWriter, LittleEndianHelpers)
{
    BitWriter bw;
    bw.writeU16le(0x1234);
    bw.writeU32le(0xdeadbeef);
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 6u);
    EXPECT_EQ(bytes[0], 0x34);
    EXPECT_EQ(bytes[1], 0x12);
    EXPECT_EQ(bytes[2], 0xef);
    EXPECT_EQ(bytes[3], 0xbe);
    EXPECT_EQ(bytes[4], 0xad);
    EXPECT_EQ(bytes[5], 0xde);
}

TEST(BitWriter, BitsWrittenTracksUnflushed)
{
    BitWriter bw;
    EXPECT_EQ(bw.bitsWritten(), 0u);
    bw.writeBits(0x7, 3);
    EXPECT_EQ(bw.bitsWritten(), 3u);
    bw.writeBits(0xff, 8);
    EXPECT_EQ(bw.bitsWritten(), 11u);
}

TEST(BitReader, ReadsBackWhatWriterWrote)
{
    BitWriter bw;
    bw.writeBits(0x5, 3);
    bw.writeBits(0x1234, 16);
    bw.writeBits(0x1, 1);
    bw.writeBits(0xabcde, 20);
    auto bytes = bw.take();

    BitReader br(bytes);
    EXPECT_EQ(br.readBits(3), 0x5u);
    EXPECT_EQ(br.readBits(16), 0x1234u);
    EXPECT_EQ(br.readBits(1), 0x1u);
    EXPECT_EQ(br.readBits(20), 0xabcdeu);
    EXPECT_FALSE(br.overrun());
}

TEST(BitReader, PeekDoesNotConsume)
{
    std::vector<uint8_t> data = {0xa5, 0x5a};
    BitReader br(data);
    EXPECT_EQ(br.peekBits(8), 0xa5u);
    EXPECT_EQ(br.peekBits(8), 0xa5u);
    br.consumeBits(4);
    EXPECT_EQ(br.peekBits(8), 0xaau);    // low nibble of 0x5a ++ high of a5
}

TEST(BitReader, OverrunFlagsOnPastEnd)
{
    std::vector<uint8_t> data = {0xff};
    BitReader br(data);
    EXPECT_EQ(br.readBits(8), 0xffu);
    EXPECT_FALSE(br.overrun());
    br.readBits(1);
    EXPECT_TRUE(br.overrun());
}

TEST(BitReader, AlignDiscardsPartialByte)
{
    std::vector<uint8_t> data = {0b00000111, 0x42};
    BitReader br(data);
    EXPECT_EQ(br.readBits(3), 0b111u);
    br.alignToByte();
    EXPECT_EQ(br.readBits(8), 0x42u);
}

TEST(BitReader, ReadBytesDrainsBitBufferFirst)
{
    std::vector<uint8_t> data = {0x01, 0x02, 0x03, 0x04};
    BitReader br(data);
    EXPECT_EQ(br.readBits(8), 0x01u);
    uint8_t out[3];
    ASSERT_TRUE(br.readBytes(out, 3));
    EXPECT_EQ(out[0], 0x02);
    EXPECT_EQ(out[1], 0x03);
    EXPECT_EQ(out[2], 0x04);
    EXPECT_TRUE(br.exhausted());
}

TEST(BitReader, BytesConsumedRoundsUp)
{
    std::vector<uint8_t> data = {0xff, 0xff, 0xff};
    BitReader br(data);
    br.readBits(3);
    EXPECT_EQ(br.bytesConsumed(), 1u);
    br.readBits(8);
    EXPECT_EQ(br.bytesConsumed(), 2u);
}

TEST(ReverseBits, KnownValues)
{
    EXPECT_EQ(reverseBits(0b1, 1), 0b1u);
    EXPECT_EQ(reverseBits(0b100, 3), 0b001u);
    EXPECT_EQ(reverseBits(0b1011, 4), 0b1101u);
    EXPECT_EQ(reverseBits(0x1, 15), 0x4000u);
}

TEST(ReverseBits, Involution)
{
    for (uint32_t v = 0; v < 256; ++v)
        EXPECT_EQ(reverseBits(reverseBits(v, 9), 9), v);
}

TEST(ReverseBits, MatchesBitLoop)
{
    util::Xoshiro256 rng(31);
    for (unsigned nbits = 0; nbits <= 32; ++nbits) {
        for (int trial = 0; trial < 64; ++trial) {
            auto v = static_cast<uint32_t>(rng.next());
            uint32_t want = 0;
            for (unsigned i = 0; i < nbits; ++i)
                want |= ((v >> i) & 1u) << (nbits - 1 - i);
            ASSERT_EQ(reverseBits(v, nbits), want) << nbits << " bits";
        }
    }
}

TEST(BitWriter, DrainMovesEveryWholeByte)
{
    // 40 bits: the accumulator has moved 32 of them out and holds 8;
    // drain must hand over all five bytes and keep bit continuity.
    BitWriter bw;
    bw.writeBits(0x12345678, 32);
    bw.writeBits(0x9a, 8);
    bw.writeBits(0x5, 3);
    auto first = bw.drain();
    EXPECT_EQ(first, (std::vector<uint8_t>{0x78, 0x56, 0x34, 0x12, 0x9a}));
    EXPECT_EQ(bw.bitsWritten(), 3u);
    EXPECT_FALSE(bw.aligned());
    bw.writeBits(0x1f, 5);
    EXPECT_TRUE(bw.aligned());
    EXPECT_EQ(bw.take(), std::vector<uint8_t>{0xfd});
}

TEST(BitWriter, AppendMatchesWritingInPlace)
{
    util::Xoshiro256 rng(32);
    for (int trial = 0; trial < 200; ++trial) {
        BitWriter whole;
        BitWriter head;
        BitWriter tail;
        int fields = static_cast<int>(rng.below(40));
        int split = static_cast<int>(rng.below(40));
        for (int i = 0; i < fields; ++i) {
            auto n = static_cast<unsigned>(rng.below(33));
            auto v = static_cast<uint32_t>(rng.next());
            whole.writeBits(v, n);
            (i < split ? head : tail).writeBits(v, n);
        }
        head.append(tail);
        ASSERT_EQ(head.bitsWritten(), whole.bitsWritten());
        ASSERT_EQ(head.take(), whole.take()) << "trial " << trial;
    }
}
