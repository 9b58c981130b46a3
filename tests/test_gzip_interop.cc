/**
 * @file
 * Interoperability against the REAL gzip implementation installed on
 * the host (when present): streams produced by the accelerator model
 * and by our software codec must gunzip cleanly, and streams produced
 * by system gzip must decode through both of our decoders. This is
 * the strongest external check that the bit format is right.
 *
 * All tests skip gracefully when /usr/bin/gzip is unavailable.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/session.h"
#include "core/topology.h"
#include "deflate/gzip_stream.h"
#include "workloads/corpus.h"

namespace {

bool
haveGzip()
{
    return std::system("command -v gzip > /dev/null 2>&1") == 0;
}

std::string
tmpPath(const std::string &name)
{
    return std::string("/tmp/nxsim_interop_") + name;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(out.good());
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

int
run(const std::string &cmd)
{
    return std::system(cmd.c_str());
}

} // namespace

class GzipInterop : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!haveGzip())
            GTEST_SKIP() << "system gzip not available";
    }
};

TEST_F(GzipInterop, SystemGunzipAcceptsAcceleratorOutput)
{
    auto input = workloads::makeMixed(300000, 71);
    nx::Session sess(core::power9Chip().accel);
    auto c = sess.compress(input);
    ASSERT_TRUE(c.ok);
    ASSERT_EQ(c.backend, nx::Backend::Accelerator);

    auto gz = tmpPath("accel.gz");
    auto out = tmpPath("accel.out");
    writeFile(gz, c.data);
    ASSERT_EQ(run("gunzip -c " + gz + " > " + out + " 2>/dev/null"),
              0);
    EXPECT_EQ(readFile(out), input);
}

TEST_F(GzipInterop, SystemGunzipAcceptsSoftwareOutput)
{
    auto input = workloads::makeLog(200000, 72);
    for (int level : {0, 1, 6, 9}) {
        core::SoftwareCodec sw(level);
        auto c = sw.compress(input, nx::Framing::Gzip);
        ASSERT_TRUE(c.ok());
        auto gz = tmpPath("sw" + std::to_string(level) + ".gz");
        auto out = tmpPath("sw" + std::to_string(level) + ".out");
        writeFile(gz, c.data);
        ASSERT_EQ(run("gunzip -c " + gz + " > " + out +
                      " 2>/dev/null"),
                  0)
            << "level " << level;
        EXPECT_EQ(readFile(out), input) << "level " << level;
    }
}

TEST_F(GzipInterop, SystemGunzipAcceptsEveryAcceleratorMode)
{
    auto input = workloads::makeJson(150000, 73);
    core::NxDevice dev(nx::NxConfig::z15());
    for (auto mode : {core::Mode::Fht, core::Mode::DhtSampled,
                      core::Mode::DhtTwoPass}) {
        auto c = dev.compress(input, nx::Framing::Gzip, mode);
        ASSERT_TRUE(c.ok());
        auto gz = tmpPath("mode.gz");
        auto out = tmpPath("mode.out");
        writeFile(gz, c.data);
        ASSERT_EQ(run("gunzip -c " + gz + " > " + out +
                      " 2>/dev/null"),
                  0);
        EXPECT_EQ(readFile(out), input);
    }
}

TEST_F(GzipInterop, WeAcceptSystemGzipOutput)
{
    auto input = workloads::makeText(250000, 74);
    auto raw = tmpPath("sysgzip.in");
    auto gz = tmpPath("sysgzip.in.gz");
    writeFile(raw, input);
    for (const char *level : {"-1", "-6", "-9"}) {
        ASSERT_EQ(run(std::string("gzip -kf ") + level + " " + raw),
                  0);
        auto stream = readFile(gz);
        ASSERT_FALSE(stream.empty());

        // One-shot software decoder.
        auto res = deflate::gzipUnwrap(stream);
        ASSERT_TRUE(res.ok) << res.error << " at gzip " << level;
        EXPECT_EQ(res.inflate.bytes, input);

        // Accelerator decompress engine.
        nx::Session sess(core::power9Chip().accel);
        auto d = sess.decompress(stream);
        ASSERT_TRUE(d.ok) << d.error;
        EXPECT_EQ(d.backend, nx::Backend::Accelerator);
        EXPECT_EQ(d.data, input);
    }
}

TEST_F(GzipInterop, WeAcceptConcatenatedSystemGzipMembers)
{
    auto a = workloads::makeText(50000, 77);
    auto b = workloads::makeLog(60000, 78);
    auto fa = tmpPath("cat_a");
    auto fb = tmpPath("cat_b");
    writeFile(fa, a);
    writeFile(fb, b);
    ASSERT_EQ(run("gzip -kf " + fa + " " + fb), 0);
    ASSERT_EQ(run("cat " + fa + ".gz " + fb + ".gz > " +
                  tmpPath("cat.gz")),
              0);
    auto file = readFile(tmpPath("cat.gz"));
    auto res = deflate::gzipUnwrap(file);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.memberEnds.size(), 2u);
    std::vector<uint8_t> both(a);
    both.insert(both.end(), b.begin(), b.end());
    EXPECT_EQ(res.inflate.bytes, both);
}

TEST_F(GzipInterop, BinaryDataBothDirections)
{
    auto input = workloads::makeBinary(100000, 75);

    // Ours -> gunzip.
    nx::Session sess(core::z15Chip().accel);
    auto c = sess.compress(input);
    ASSERT_TRUE(c.ok);
    auto gz = tmpPath("bin.gz");
    auto out = tmpPath("bin.out");
    writeFile(gz, c.data);
    ASSERT_EQ(run("gunzip -c " + gz + " > " + out + " 2>/dev/null"),
              0);
    EXPECT_EQ(readFile(out), input);

    // gzip -> ours.
    auto raw = tmpPath("bin.in");
    writeFile(raw, input);
    ASSERT_EQ(run("gzip -kf " + raw), 0);
    auto stream = readFile(raw + ".gz");
    auto d = sess.decompress(stream);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.data, input);
}

TEST_F(GzipInterop, DynamicBlockWithoutDistanceCodesAgreesWithGzip)
{
    // A dynamic block with one distance code of zero bits, which RFC
    // 1951 3.2.7 reads as "no distance codes used at all". Our encoder
    // never writes it, so a hand-made raw stream is wrapped and system
    // gzip judges it.
    const std::vector<uint8_t> raw = {
        0x05, 0xc0, 0x01, 0x09, 0x00, 0x00, 0x00, 0x80,
        0xa0, 0xad, 0xf5, 0x7f, 0x84, 0xf4, 0x01,
    };
    const std::vector<uint8_t> text = {'a', 'b', 'b', 'a'};
    auto member = deflate::gzipWrap(raw, text);
    auto gz = tmpPath("nodist.gz");
    auto out = tmpPath("nodist.out");
    writeFile(gz, member);
    ASSERT_EQ(run("gzip -dc " + gz + " > " + out + " 2>/dev/null"), 0);
    EXPECT_EQ(readFile(out), text);

    auto res = deflate::gzipUnwrap(member);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, readFile(out));
}
