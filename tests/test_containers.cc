/**
 * @file
 * gzip (RFC 1952) and zlib (RFC 1950) container tests: wrap/unwrap round
 * trips, header parsing, checksum verification, corruption detection,
 * multi-member gzip files and the output cap.
 */

#include <gtest/gtest.h>

#include <string>

#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/zlib_stream.h"
#include "util/crc32.h"
#include "util/prng.h"

using deflate::deflateCompress;
using deflate::gzipUnwrap;
using deflate::gzipWrap;
using deflate::zlibUnwrap;
using deflate::zlibWrap;

namespace {

std::vector<uint8_t>
sampleData(size_t n, uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = rng.chance(0.7) ? static_cast<uint8_t>('a' + i % 17)
                               : static_cast<uint8_t>(rng.next());
    return v;
}

} // namespace

TEST(Gzip, RoundTrip)
{
    auto data = sampleData(50000, 1);
    auto raw = deflateCompress(data).bytes;
    auto member = gzipWrap(raw, data);
    auto res = gzipUnwrap(member);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, data);
}

TEST(Gzip, NameFieldPreserved)
{
    auto data = sampleData(100, 2);
    auto raw = deflateCompress(data).bytes;
    deflate::GzipWriteOptions opts;
    opts.name = "file.txt";
    auto member = gzipWrap(raw, data, opts);
    auto res = gzipUnwrap(member);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.header.name, "file.txt");
    EXPECT_EQ(res.inflate.bytes, data);
}

TEST(Gzip, EmptyPayload)
{
    std::vector<uint8_t> data;
    auto raw = deflateCompress(data).bytes;
    auto member = gzipWrap(raw, data);
    auto res = gzipUnwrap(member);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.inflate.bytes.empty());
}

TEST(Gzip, BadMagicRejected)
{
    auto data = sampleData(100, 3);
    auto member = gzipWrap(deflateCompress(data).bytes, data);
    member[0] = 0x00;
    auto res = gzipUnwrap(member);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "bad magic");
}

TEST(Gzip, CrcMismatchDetected)
{
    auto data = sampleData(1000, 4);
    auto member = gzipWrap(deflateCompress(data).bytes, data);
    member[member.size() - 5] ^= 0xff;    // corrupt stored CRC
    auto res = gzipUnwrap(member);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "CRC mismatch");
}

TEST(Gzip, IsizeMismatchDetected)
{
    auto data = sampleData(1000, 5);
    auto member = gzipWrap(deflateCompress(data).bytes, data);
    member[member.size() - 1] ^= 0x01;    // corrupt ISIZE
    auto res = gzipUnwrap(member);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "ISIZE mismatch");
}

TEST(Gzip, TruncatedMemberRejected)
{
    auto data = sampleData(1000, 6);
    auto member = gzipWrap(deflateCompress(data).bytes, data);
    member.resize(12);
    auto res = gzipUnwrap(member);
    EXPECT_FALSE(res.ok);
}

TEST(Gzip, PayloadCorruptionDetected)
{
    auto data = sampleData(5000, 7);
    auto member = gzipWrap(deflateCompress(data).bytes, data);
    member[member.size() / 2] ^= 0x55;
    auto res = gzipUnwrap(member);
    // Either inflate fails outright or the CRC catches it.
    EXPECT_FALSE(res.ok);
}

TEST(Gzip, FullHeaderFieldsRoundTrip)
{
    auto data = sampleData(20000, 20);
    deflate::GzipWriteOptions opts;
    opts.name = "payload.bin";
    opts.comment = "produced by nxsim";
    opts.extra = {0x41, 0x42, 0x04, 0x00, 1, 2, 3, 4};    // subfield
    opts.mtime = 1720000000;
    opts.headerCrc = true;
    auto member = deflate::gzipWrap(
        deflate::deflateCompress(data).bytes, data, opts);

    auto res = deflate::gzipUnwrap(member);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.header.name, "payload.bin");
    EXPECT_EQ(res.header.comment, "produced by nxsim");
    EXPECT_EQ(res.header.extra, opts.extra);
    EXPECT_EQ(res.header.mtime, 1720000000u);
    EXPECT_TRUE(res.header.hcrcPresent);
    EXPECT_TRUE(res.header.hcrcValid);
    EXPECT_EQ(res.inflate.bytes, data);
}

TEST(Gzip, HeaderCrcCatchesHeaderCorruption)
{
    auto data = sampleData(1000, 21);
    deflate::GzipWriteOptions opts;
    opts.name = "x";
    opts.headerCrc = true;
    auto member = deflate::gzipWrap(
        deflate::deflateCompress(data).bytes, data, opts);
    member[10] ^= 0x01;    // corrupt the name field
    auto res = deflate::gzipUnwrap(member);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "header CRC mismatch");
}

TEST(Gzip, TruncatedExtraRejected)
{
    auto data = sampleData(100, 22);
    deflate::GzipWriteOptions opts;
    opts.extra = std::vector<uint8_t>(64, 0x5a);
    auto member = deflate::gzipWrap(
        deflate::deflateCompress(data).bytes, data, opts);
    member.resize(14);    // cuts inside FEXTRA
    auto res = deflate::gzipUnwrap(member);
    EXPECT_FALSE(res.ok);
}

TEST(Gzip, EveryMemberIsRead)
{
    // Three members, the way `cat` or a parallel compressor joins them:
    // level 6 with a name, an empty one, then level 1.
    auto a = sampleData(20000, 23);
    std::vector<uint8_t> b;
    auto c = sampleData(7000, 24);
    deflate::DeflateOptions fast;
    fast.level = 1;
    deflate::GzipWriteOptions named;
    named.name = "a";
    auto file = gzipWrap(deflateCompress(a).bytes, a, named);
    std::vector<size_t> ends = {file.size()};
    for (auto member : {gzipWrap(deflateCompress(b).bytes, b),
                        gzipWrap(deflateCompress(c, fast).bytes, c)}) {
        file.insert(file.end(), member.begin(), member.end());
        ends.push_back(file.size());
    }
    std::vector<uint8_t> whole(a);
    whole.insert(whole.end(), c.begin(), c.end());

    auto res = gzipUnwrap(file);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, whole);
    EXPECT_EQ(res.memberEnds, ends);
    EXPECT_EQ(res.header.name, "a");
    EXPECT_EQ(res.crc, util::crc32(whole));

    // One cap covers every member.
    EXPECT_TRUE(gzipUnwrap(file, whole.size()).ok);
    auto over = gzipUnwrap(file, whole.size() - 1);
    EXPECT_FALSE(over.ok);
    EXPECT_EQ(over.inflate.status, deflate::InflateStatus::OutputLimit);
}

TEST(Zlib, RoundTrip)
{
    auto data = sampleData(30000, 8);
    auto raw = deflateCompress(data).bytes;
    auto stream = zlibWrap(raw, data);
    auto res = zlibUnwrap(stream);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, data);
}

TEST(Zlib, HeaderCheckBitsValid)
{
    auto data = sampleData(10, 9);
    for (int level : {0, 1, 6, 9}) {
        auto stream = zlibWrap(deflateCompress(data).bytes, data, level);
        unsigned cmf = stream[0], flg = stream[1];
        EXPECT_EQ((cmf * 256 + flg) % 31, 0u) << "level " << level;
        EXPECT_EQ(cmf & 0x0f, 8u);
    }
}

TEST(Zlib, HeaderFlevelFollowsZlib)
{
    // zlib's deflate.c: FLEVEL 0 below level 2, 1 up to level 5, 2 at
    // level 6 and 3 above, so level 1 writes 78 01 and level 9 78 DA.
    const uint8_t expected[10] = {0x01, 0x01, 0x5e, 0x5e, 0x5e,
                                  0x5e, 0x9c, 0xda, 0xda, 0xda};
    auto data = sampleData(10, 12);
    for (int level = 0; level <= 9; ++level) {
        auto stream = zlibWrap(deflateCompress(data).bytes, data, level);
        EXPECT_EQ(stream[0], 0x78) << "level " << level;
        EXPECT_EQ(stream[1], expected[level]) << "level " << level;
        // The preset-dictionary header carries the same FLEVEL.
        auto dict = zlibWrap(deflateCompress(data).bytes, data, level,
                             data);
        EXPECT_EQ(dict[1] >> 6, expected[level] >> 6) << "level " << level;
    }
}

TEST(Zlib, DictionaryReadHonoursCap)
{
    auto dict = sampleData(4096, 13);
    auto data = sampleData(3000, 14);
    auto stream = zlibWrap(
        deflate::deflateCompressWithDict(data, dict).bytes, data, 6, dict);

    auto at = zlibUnwrap(stream, data.size(), dict);
    ASSERT_TRUE(at.ok) << at.error;
    EXPECT_EQ(at.inflate.bytes, data);
    auto over = zlibUnwrap(stream, data.size() - 1, dict);
    EXPECT_FALSE(over.ok);
    EXPECT_EQ(over.inflate.status, deflate::InflateStatus::OutputLimit);
}

TEST(Zlib, AdlerMismatchDetected)
{
    auto data = sampleData(1000, 10);
    auto stream = zlibWrap(deflateCompress(data).bytes, data);
    stream[stream.size() - 1] ^= 0x01;
    auto res = zlibUnwrap(stream);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "Adler-32 mismatch");
}

TEST(Zlib, FcheckFailureRejected)
{
    auto data = sampleData(100, 11);
    auto stream = zlibWrap(deflateCompress(data).bytes, data);
    stream[1] ^= 0x01;
    auto res = zlibUnwrap(stream);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "FCHECK failed");
}

TEST(Zlib, TooShortRejected)
{
    std::vector<uint8_t> stream = {0x78, 0x9c};
    auto res = zlibUnwrap(stream);
    EXPECT_FALSE(res.ok);
}
