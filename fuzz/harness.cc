#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/device.h"
#include "core/fault_injector.h"
#include "core/session.h"
#include "deflate/deflate_encoder.h"
#include "deflate/deflate_stream.h"
#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/inflate_stream.h"
#include "deflate/zlib_stream.h"
#include "e842/e842.h"
#include "nx/compress_engine.h"
#include "util/crc32.h"

namespace fuzz {

namespace {

/**
 * Hard assertion that survives NDEBUG: fuzzing builds are usually
 * RelWithDebInfo, where assert() is compiled out.
 */
#define FUZZ_CHECK(cond, msg)                                          \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::fprintf(stderr, "FUZZ_CHECK failed: %s (%s:%d)\n",    \
                         msg, __FILE__, __LINE__);                     \
            std::abort();                                              \
        }                                                              \
    } while (0)

/** Output cap: bounds memory per exec without masking logic bugs. */
constexpr size_t kMaxOutput = size_t{1} << 20;

} // namespace

int
fuzzInflate(std::span<const uint8_t> data)
{
    auto one = deflate::inflateDecompress(data, kMaxOutput);

    // Resumption leg: the same core fed in chunks, split at offsets
    // taken from the data and capped alike, must end with the one-call
    // status and bytes, including the partial output of a failure.
    size_t chunk = data.empty() ? 1 : 1 + data.back() % 97;
    deflate::InflateStream is({}, kMaxOutput);
    std::vector<uint8_t> streamed;
    auto st = deflate::StreamStatus::NeedMoreInput;
    size_t off = 0;
    do {
        size_t n = std::min(chunk, data.size() - off);
        st = is.feed(data.subspan(off, n), streamed, off + n == data.size());
        off += n;
    } while (st == deflate::StreamStatus::NeedMoreInput);
    FUZZ_CHECK((st == deflate::StreamStatus::Done) == one.ok(),
               "chunked and one-call inflate disagree on success");
    FUZZ_CHECK(one.ok() || is.error() == one.status,
               "chunked and one-call inflate report different errors");
    FUZZ_CHECK(streamed == one.bytes,
               "chunked and one-call inflate produced different bytes");

    // The dictionary path shares the distance checks; drive it too.
    static const std::vector<uint8_t> dict(512, 0x41);
    (void)deflate::inflateDecompressWithDict(data, dict, kMaxOutput);
    return 0;
}

int
fuzzGzip(std::span<const uint8_t> data)
{
    auto one = deflate::gzipUnwrap(data, kMaxOutput);
    (void)deflate::zlibUnwrap(data, kMaxOutput);
    static const std::vector<uint8_t> dict = {'f', 'u', 'z', 'z'};
    (void)deflate::zlibUnwrap(data, kMaxOutput, dict);

    // Concatenation: a gzip file followed by itself is a gzip file of
    // twice the members, twice the output and the combined CRC-32.
    if (one.ok) {
        std::vector<uint8_t> twice(data.begin(), data.end());
        twice.insert(twice.end(), data.begin(), data.end());
        auto two = deflate::gzipUnwrap(twice, 2 * kMaxOutput);
        std::vector<uint8_t> want(one.inflate.bytes);
        want.insert(want.end(), one.inflate.bytes.begin(),
                    one.inflate.bytes.end());
        FUZZ_CHECK(two.ok, "a gzip file followed by itself fails");
        FUZZ_CHECK(two.memberEnds.size() == 2 * one.memberEnds.size(),
                   "doubled gzip file has the wrong member count");
        FUZZ_CHECK(two.inflate.bytes == want,
                   "doubled gzip file is not the output twice");
        FUZZ_CHECK(two.crc == util::crc32Combine(
                                  one.crc, one.crc, one.inflate.bytes.size()),
                   "doubled gzip file's CRC-32 is not the combined one");
    }
    return 0;
}

int
fuzzE842(std::span<const uint8_t> data)
{
    // Decode arbitrary bytes: must only ever fail via res.status.
    auto dec = e842::decompress(data, kMaxOutput);
    if (dec.ok)
        FUZZ_CHECK(dec.bytes.size() <= kMaxOutput,
                   "e842 output exceeded max_output");

    // Output-limit contract, with a cap small enough that fuzz-sized
    // inputs can actually overrun it (corpus: shortdata-limit.842).
    constexpr size_t kTinyCap = 64;
    auto tiny = e842::decompress(data, kTinyCap);
    if (tiny.ok)
        FUZZ_CHECK(tiny.bytes.size() <= kTinyCap,
                   "e842 output exceeded small max_output");
    // Past the cap is an overflow, never a corrupt stream.
    if (dec.ok && dec.bytes.size() > kTinyCap)
        FUZZ_CHECK(!tiny.ok &&
                       tiny.status == e842::DecodeStatus::OutputLimit,
                   "e842 stream past a small max_output is not OutputLimit");

    // Identity: our own encoder's output must decode to the input.
    auto enc = e842::compress(data);
    auto rt = e842::decompress(enc.bytes, data.size() + 8);
    FUZZ_CHECK(rt.ok, "e842 cannot decode its own stream");
    FUZZ_CHECK(rt.bytes.size() == data.size() &&
                   std::equal(rt.bytes.begin(), rt.bytes.end(),
                              data.begin()),
               "e842 round trip mismatch");
    return 0;
}

int
fuzzRoundtrip(std::span<const uint8_t> data)
{
    if (data.size() < 2)
        return 0;
    int level = data[0] % 10;
    bool dht = (data[1] & 1) != 0;
    auto payload = data.subspan(2);

    // Software encoder leg.
    deflate::DeflateOptions opts;
    opts.level = level;
    auto sw = deflate::deflateCompress(payload, opts);
    auto swDec = deflate::inflateDecompress(sw.bytes,
                                            payload.size() + 64);
    FUZZ_CHECK(swDec.ok(), "software deflate stream does not inflate");
    FUZZ_CHECK(swDec.bytes.size() == payload.size() &&
                   std::equal(swDec.bytes.begin(), swDec.bytes.end(),
                              payload.begin()),
               "software round trip mismatch");

    // Streaming leg: the same payload as two writes, split at an
    // offset the mode byte's upper bits choose, with a Sync between.
    size_t split = payload.size() * (size_t{data[1]} >> 1) / 127;
    deflate::DeflateStream ds(opts);
    std::vector<uint8_t> streamed;
    ds.write(payload.first(split), deflate::Flush::Sync, streamed);
    ds.write(payload.subspan(split), deflate::Flush::Finish, streamed);
    auto stDec = deflate::inflateDecompress(streamed, payload.size() + 64);
    FUZZ_CHECK(stDec.ok(), "streamed deflate stream does not inflate");
    FUZZ_CHECK(stDec.bytes == swDec.bytes,
               "streamed round trip mismatch");

    // NX engine leg (model of the hardware compress pipeline).
    static nx::NxConfig cfg = nx::NxConfig::power9();
    static nx::CompressEngine eng(cfg);
    auto job = core::runCompressJob(
        eng, cfg, payload, nx::Framing::Raw,
        dht ? core::Mode::DhtSampled : core::Mode::Fht, 0);
    FUZZ_CHECK(job.ok(), "NX compress CRB failed on valid input");
    auto nxDec = deflate::inflateDecompress(job.data,
                                            payload.size() + 64);
    FUZZ_CHECK(nxDec.ok(), "NX deflate stream does not inflate");
    FUZZ_CHECK(nxDec.bytes == swDec.bytes,
               "NX and software decompressed outputs differ");
    FUZZ_CHECK(util::crc32(nxDec.bytes) == util::crc32(payload),
               "round-trip CRC32 mismatch");
    return 0;
}

namespace {

/**
 * Long-lived engine pool + fault hook shared across session execs,
 * like the static CompressEngine in fuzzRoundtrip: session churn
 * against a persistent server is exactly the production shape, and
 * reusing the workers keeps per-exec cost at fuzzing speed.
 */
struct SessionRig
{
    nx::FaultInjector injector;
    core::JobServer server;

    SessionRig()
        : server(nx::NxConfig::power9(), config(&injector))
    {
    }

    static core::JobServerConfig
    config(nx::FaultInjector *inj)
    {
        core::JobServerConfig jcfg;
        jcfg.workers = 2;
        jcfg.windows = 1;
        jcfg.window.fifoDepth = 8;
        jcfg.faultInjector = inj;
        return jcfg;
    }
};

/** Pure-software decode of a session-format stream. */
std::vector<uint8_t>
oracleDecode(nx::SessionFormat f, std::span<const uint8_t> stream,
             bool *ok)
{
    if (f == nx::SessionFormat::E842) {
        auto r = e842::decompress(stream, kMaxOutput);
        *ok = r.ok;
        return std::move(r.bytes);
    }
    nx::Framing framing = f == nx::SessionFormat::Gzip
        ? nx::Framing::Gzip
        : (f == nx::SessionFormat::Zlib ? nx::Framing::Zlib
                                        : nx::Framing::Raw);
    core::SoftwareCodec codec(6);
    auto r = codec.decompress(stream, framing);
    *ok = r.ok();
    return std::move(r.data);
}

} // namespace

int
fuzzSession(std::span<const uint8_t> data)
{
    if (data.size() < 4)
        return 0;
    static SessionRig rig;

    nx::SessionPolicy pol;
    switch (data[0] % 4) {
      case 0: pol.format = nx::SessionFormat::Gzip; break;
      case 1: pol.format = nx::SessionFormat::Zlib; break;
      case 2: pol.format = nx::SessionFormat::RawDeflate; break;
      default: pol.format = nx::SessionFormat::E842; break;
    }
    pol.level = 1 + (data[0] / 4) % 9;
    pol.accelThresholdBytes = uint64_t{1} << (data[1] % 12);
    pol.faultRetries = data[2] % 3;
    pol.maxOutputBytes = kMaxOutput;
    pol.backoff.maxAttempts = 4;
    pol.backoff.initialDelay = std::chrono::microseconds(1);
    pol.backoff.maxDelay = std::chrono::microseconds(10);

    // The fault plan byte programs the shared injector for this exec:
    // low bits pick one-shot faults (count and condition code), the
    // high bit adds a periodic failure underneath.
    uint8_t plan = data[3];
    rig.injector.reset();
    if (plan & 0x0F) {
        nx::CondCode cc = (plan & 0x10) ? nx::CondCode::OutputOverflow
                                        : nx::CondCode::TranslationFault;
        rig.injector.failNext(plan & 0x0F, cc);
    }
    if (plan & 0x80)
        rig.injector.failEveryNth(2 + ((plan >> 5) & 0x3));

    auto payload = data.subspan(4);
    {
        nx::Session sess(rig.server, pol);

        // Whatever routing/fallback path the policy and faults force,
        // the produced stream must decode to the payload through the
        // pure software oracle...
        auto c = sess.compress(payload);
        FUZZ_CHECK(c.ok, "session compress failed");
        FUZZ_CHECK(c.backend == nx::Backend::Software || !pol.forceSoftware,
                   "forceSoftware violated");
        bool ok = false;
        auto decoded = oracleDecode(pol.format, c.data, &ok);
        FUZZ_CHECK(ok, "session stream rejected by the software oracle");
        FUZZ_CHECK(decoded.size() == payload.size() &&
                       std::equal(decoded.begin(), decoded.end(),
                                  payload.begin()),
                   "session stream does not decode to the payload");

        // ...and the session must round-trip its own stream, again
        // regardless of which backend each leg lands on.
        auto d = sess.decompress(c.data);
        FUZZ_CHECK(d.ok, "session decompress failed");
        FUZZ_CHECK(d.data.size() == payload.size() &&
                       std::equal(d.data.begin(), d.data.end(),
                                  payload.begin()),
                   "session round trip mismatch");

        auto st = sess.stats();
        FUZZ_CHECK(st.requests == 2, "request count wrong");
        FUZZ_CHECK(st.softwareRouted + st.accelRouted == st.requests,
                   "routing counters do not add up");
        FUZZ_CHECK(st.fallbacks <= st.accelRouted,
                   "more fallbacks than accelerator-routed requests");
        sess.close();
    }
    // Disarm the injector so queued-but-unrelated work and the next
    // exec start from a clean fault state.
    rig.injector.reset();

    // Exercise the raw ticket discipline below the session layer once
    // per exec: paste directly, claim the ticket with wait(). The
    // not-accepted early-out and the wait() are exactly the
    // acquire/release pair nxown checks against the job_ticket
    // annotations.
    core::JobSpec spec;
    spec.kind = core::JobKind::Compress;
    spec.payload.assign(payload.begin(), payload.end());
    auto r = rig.server.submitWithRetry(spec, 0, pol.backoff);
    if (!r.accepted())
        return 0;
    core::AsyncJob job = rig.server.wait(r.ticket);
    FUZZ_CHECK(job.ticket == r.ticket,
               "wait() claimed a different ticket than it was given");
    return 0;
}

} // namespace fuzz
