/**
 * @file
 * Differential and fuzz tests across independent implementations:
 *
 *  - the inflate core, called once and fed in random chunks, vs the
 *    bit-at-a-time reference inflater (reference_inflate.h) on every
 *    stream, valid or corrupted: same bytes or both reject;
 *  - the accelerator decompress engine vs software inflate on the
 *    same streams;
 *  - bit-flip fuzz over encoder outputs must never produce a crash,
 *    and whenever a decoder accepts a corrupted gzip member the CRC
 *    must catch it at the container level;
 *  - random valid streams from all three encoders (one-shot,
 *    streaming, accelerator) decode identically everywhere.
 */

#include <gtest/gtest.h>

#include "core/device.h"
#include "core/topology.h"
#include "deflate/deflate_encoder.h"
#include "deflate/deflate_stream.h"
#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/inflate_stream.h"
#include "reference_inflate.h"
#include "util/prng.h"
#include "workloads/corpus.h"

namespace {

/** Run the streaming inflater over the whole stream in one feed. */
std::pair<bool, std::vector<uint8_t>>
streamInflate(std::span<const uint8_t> stream)
{
    deflate::InflateStream is;
    std::vector<uint8_t> out;
    auto st = is.feed(stream, out);
    return {st == deflate::StreamStatus::Done, std::move(out)};
}

/**
 * Feed the stream to InflateStream in random chunks of 1..8 KiB, the
 * last one marked as the end of input.
 */
std::pair<bool, std::vector<uint8_t>>
chunkedInflate(std::span<const uint8_t> stream, util::Xoshiro256 &rng,
               size_t max_output = size_t{1} << 30)
{
    deflate::InflateStream is({}, max_output);
    std::vector<uint8_t> out;
    auto st = deflate::StreamStatus::NeedMoreInput;
    size_t off = 0;
    do {
        size_t n = std::min<size_t>(1 + rng.below(8192), stream.size() - off);
        st = is.feed(stream.subspan(off, n), out, off + n == stream.size());
        off += n;
    } while (off < stream.size() && st == deflate::StreamStatus::NeedMoreInput);
    return {st == deflate::StreamStatus::Done, std::move(out)};
}

std::vector<uint8_t>
randomInput(util::Xoshiro256 &rng)
{
    size_t n = rng.below(120000);
    switch (rng.below(5)) {
      case 0: return workloads::makeText(n, rng.next());
      case 1: return workloads::makeLog(n, rng.next());
      case 2: return workloads::makeBinary(n, rng.next());
      case 3: return workloads::makeRandom(n, rng.next());
      default: return workloads::makeMixed(n, rng.next());
    }
}

} // namespace

TEST(Differential, OneShotVsStreamingOnValidStreams)
{
    util::Xoshiro256 rng(0xd1ff);
    util::Xoshiro256 chunks(0xd1ff0);
    for (int trial = 0; trial < 30; ++trial) {
        auto input = randomInput(rng);
        deflate::DeflateOptions opts;
        opts.level = static_cast<int>(rng.below(10));
        opts.blockBytes = 4096 + rng.below(1 << 17);
        auto stream = deflate::deflateCompress(input, opts).bytes;

        auto one = deflate::inflateDecompress(stream);
        auto [ok, streamed] = chunkedInflate(stream, chunks);
        auto ref = reference::inflate(stream);
        ASSERT_TRUE(one.ok()) << trial;
        ASSERT_TRUE(ok) << trial;
        ASSERT_TRUE(ref.has_value()) << trial;
        EXPECT_EQ(one.bytes, streamed) << trial;
        EXPECT_EQ(one.bytes, *ref) << trial;
        EXPECT_EQ(one.bytes, input) << trial;
    }
}

TEST(Differential, DecodersAgreeOnCorruptedStreams)
{
    util::Xoshiro256 rng(0xc0de);
    util::Xoshiro256 chunks(0xc0de0);
    auto input = workloads::makeMixed(60000, 2);
    auto stream = deflate::deflateCompress(input).bytes;

    int both_error = 0, both_ok_same = 0, disagreements = 0;
    for (int trial = 0; trial < 300; ++trial) {
        auto corrupted = stream;
        // 1-3 random bit flips.
        int flips = 1 + static_cast<int>(rng.below(3));
        for (int f = 0; f < flips; ++f)
            corrupted[rng.below(corrupted.size())] ^=
                static_cast<uint8_t>(1u << rng.below(8));

        size_t cap = input.size() * 4;
        auto one = deflate::inflateDecompress(corrupted, cap);
        auto [ok, streamed] = chunkedInflate(corrupted, chunks, cap);
        auto ref = reference::inflate(corrupted, {}, cap);

        // The core, called once or fed in chunks, must reach the
        // reference's verdict: the same bytes, or a rejection.
        if (one.ok() != ref.has_value() || ok != ref.has_value() ||
            (ref && (one.bytes != *ref || streamed != *ref)))
            ++disagreements;
        else if (ref)
            ++both_ok_same;
        else
            ++both_error;
    }
    EXPECT_EQ(disagreements, 0);
    EXPECT_GE(both_error, 1);
    // Raw DEFLATE has no integrity check: a flipped literal or
    // extra-bits field often still yields a VALID stream with wrong
    // content — both decoders accept it and agree on the wrong bytes.
    // That is the motivation for the container CRC, which the next
    // test shows catching every such case.
    EXPECT_GE(both_ok_same, 1);
}

TEST(Differential, GzipCrcCatchesSilentCorruption)
{
    // Whenever a corrupted gzip member still parses, the CRC check
    // must reject payload damage (flips in the header name field or
    // trailer may legitimately pass/fail differently).
    util::Xoshiro256 rng(0xcafe);
    auto input = workloads::makeText(40000, 3);
    auto member = deflate::gzipWrap(
        deflate::deflateCompress(input).bytes, input);

    int silent_wrong_payload = 0;
    for (int trial = 0; trial < 300; ++trial) {
        auto corrupted = member;
        // Corrupt strictly inside the DEFLATE payload.
        size_t lo = 10, hi = corrupted.size() - 8;
        corrupted[lo + rng.below(hi - lo)] ^=
            static_cast<uint8_t>(1u << rng.below(8));
        auto res = deflate::gzipUnwrap(corrupted);
        if (res.ok && res.inflate.bytes != input)
            ++silent_wrong_payload;
    }
    EXPECT_EQ(silent_wrong_payload, 0);
}

TEST(Differential, ThreeEncodersOneTruth)
{
    util::Xoshiro256 rng(0x3e3e);
    core::NxDevice dev(nx::NxConfig::power9());
    for (int trial = 0; trial < 10; ++trial) {
        auto input = randomInput(rng);

        // Encoder 1: one-shot software.
        auto s1 = deflate::deflateCompress(input).bytes;
        // Encoder 2: streaming software with random chunking.
        deflate::DeflateStream ds;
        std::vector<uint8_t> s2;
        size_t off = 0;
        while (off < input.size()) {
            size_t n = std::min<size_t>(1 + rng.below(30000),
                                        input.size() - off);
            bool last = off + n >= input.size();
            ds.write(std::span<const uint8_t>(input).subspan(off, n),
                     last ? deflate::Flush::Finish
                          : deflate::Flush::None,
                     s2);
            off += n;
        }
        if (input.empty())
            ds.write({}, deflate::Flush::Finish, s2);
        // Encoder 3: accelerator model (raw framing).
        auto s3job = dev.compress(input, nx::Framing::Raw,
                                  core::Mode::DhtSampled);
        ASSERT_TRUE(s3job.ok());

        for (const auto *stream : {&s1, &s2, &s3job.data}) {
            auto one = deflate::inflateDecompress(*stream);
            ASSERT_TRUE(one.ok()) << trial;
            EXPECT_EQ(one.bytes, input) << trial;
            auto [ok, streamed] = streamInflate(*stream);
            ASSERT_TRUE(ok) << trial;
            EXPECT_EQ(streamed, input) << trial;
        }
    }
}

TEST(Differential, AcceleratorDecompressAgreesWithSoftware)
{
    util::Xoshiro256 rng(0xfeed);
    core::NxDevice dev(nx::NxConfig::z15());
    for (int trial = 0; trial < 10; ++trial) {
        auto input = randomInput(rng);
        deflate::DeflateOptions opts;
        opts.level = static_cast<int>(1 + rng.below(9));
        auto raw = deflate::deflateCompress(input, opts).bytes;
        auto member = deflate::gzipWrap(raw, input);

        auto sw = deflate::gzipUnwrap(member);
        auto hw = dev.decompress(member, nx::Framing::Gzip);
        ASSERT_TRUE(sw.ok) << trial;
        ASSERT_TRUE(hw.ok()) << trial;
        EXPECT_EQ(sw.inflate.bytes, hw.data) << trial;
    }
}
