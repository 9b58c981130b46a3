#include "plan.h"

#include <algorithm>
#include <cmath>

#include "core/device.h"
#include "e842/e842.h"
#include "e842/e842_engine.h"
#include "util/checked.h"
#include "workloads/corpus.h"

namespace perfbench {

namespace {

using nx::SessionFormat;

constexpr size_t KiB = 1024;

// Why each workload exists is in perfbench/README.md and BENCHMARK.json.
// Sizes and shares follow the request classes the paper's users send;
// entry counts set the pool, and so the set-up work, of each workload.
const std::vector<WorkloadSpec> kWorkloads = {
    {"sw-small", 1,
     {
         {"text-gzip", Content::Text, SessionFormat::Gzip, 256, 4095, 160,
          0.25},
         {"text-zlib", Content::Text, SessionFormat::Zlib, 256, 4095, 160,
          0.25},
         {"json-gzip", Content::Json, SessionFormat::Gzip, 256, 4095, 160,
          0.25},
         {"json-zlib", Content::Json, SessionFormat::Zlib, 256, 4095, 160,
          0.25},
         {"log-gzip", Content::Log, SessionFormat::Gzip, 256, 4095, 160,
          0.25},
         {"log-zlib", Content::Log, SessionFormat::Zlib, 256, 4095, 160,
          0.25},
     }},
    {"accel-bulk", 1,
     {
         {"log-gzip", Content::Log, SessionFormat::Gzip, 128 * KiB,
          512 * KiB, 12, 0.0},
         {"json-gzip", Content::Json, SessionFormat::Gzip, 128 * KiB,
          512 * KiB, 12, 0.0},
         {"mixed-gzip", Content::Mixed, SessionFormat::Gzip, 128 * KiB,
          512 * KiB, 12, 0.0},
     }},
    {"serve-mixed", 2,
     {
         {"text-gzip", Content::Text, SessionFormat::Gzip, 512, 4095, 80,
          0.6},
         {"json-zlib", Content::Json, SessionFormat::Zlib, 4 * KiB,
          64 * KiB, 80, 0.6},
         {"log-gzip", Content::Log, SessionFormat::Gzip, 16 * KiB,
          64 * KiB, 80, 0.6},
         {"page-842", Content::Binary, SessionFormat::E842, 4 * KiB,
          4 * KiB, 80, 0.6},
         {"random-gzip", Content::Random, SessionFormat::Gzip, 8 * KiB,
          32 * KiB, 10, 0.0},
     }},
};

std::vector<uint8_t>
generate(Content c, size_t bytes, uint64_t seed)
{
    switch (c) {
      case Content::Text: return workloads::makeText(bytes, seed);
      case Content::Json: return workloads::makeJson(bytes, seed);
      case Content::Log: return workloads::makeLog(bytes, seed);
      case Content::Mixed: return workloads::makeMixed(bytes, seed);
      case Content::Binary: return workloads::makeBinary(bytes, seed);
      case Content::Random: return workloads::makeRandom(bytes, seed);
    }
    return {};
}

/**
 * Locate the raw DEFLATE body of a stream this plan produced: a gzip
 * member with no optional header fields (10-byte header, 8-byte
 * trailer) or a zlib stream without a preset dictionary (2 + 4).
 */
bool
locateBody(Entry &e)
{
    const auto &s = e.stream;
    size_t head = 0;
    size_t tail = 0;
    if (e.format == SessionFormat::Gzip) {
        if (s.size() < 18 || s[0] != 0x1f || s[1] != 0x8b || s[3] != 0)
            return false;
        head = 10;
        tail = 8;
    } else if (e.format == SessionFormat::Zlib) {
        if (s.size() < 6 || (s[1] & 0x20) != 0)
            return false;
        head = 2;
        tail = 4;
    } else {
        return true;    // 842 has no DEFLATE body
    }
    e.bodyOffset = head;
    e.bodyBytes = s.size() - head - tail;
    return true;
}

uint64_t
fnv1a(uint64_t h, std::span<const uint8_t> bytes)
{
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    return fnv1a(h, std::span<const uint8_t>(b, 8));
}

/** SplitMix-style mix of a seed with an index (independent streams). */
uint64_t
mix(uint64_t seed, uint64_t a, uint64_t b = 0)
{
    uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ull) ^
        (b * 0xc2b2ae3d27d4eb4full);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

const char *
toString(Op op)
{
    return op == Op::Compress ? "compress" : "decompress";
}

const std::vector<WorkloadSpec> &
workloads()
{
    return kWorkloads;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

nx::SessionPolicy
sessionPolicy(SessionFormat format, int window)
{
    nx::SessionPolicy p;
    p.format = format;
    p.window = window;
    return p;
}

nx::NxConfig
chipConfig()
{
    return nx::NxConfig::power9();
}

nx::Framing
framingOf(SessionFormat f)
{
    switch (f) {
      case SessionFormat::Gzip: return nx::Framing::Gzip;
      case SessionFormat::Zlib: return nx::Framing::Zlib;
      case SessionFormat::RawDeflate:
      case SessionFormat::E842: break;
    }
    return nx::Framing::Raw;
}

std::vector<SessionFormat>
Plan::formats() const
{
    std::vector<SessionFormat> out;
    for (const ClassSpec &c : spec->classes)
        if (std::find(out.begin(), out.end(), c.format) == out.end())
            out.push_back(c.format);
    return out;
}

uint64_t
Plan::digest() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char *c = spec->name; *c != '\0'; ++c)
        h = fnv1a(h, static_cast<uint64_t>(*c));
    h = fnv1a(h, seed);
    for (const Entry &e : entries) {
        h = fnv1a(h, (uint64_t{e.cls} << 16) |
                         (uint64_t{static_cast<uint8_t>(e.format)} << 8) |
                         (uint64_t{static_cast<uint8_t>(e.op)} << 1) |
                         uint64_t{e.accel});
        h = fnv1a(h, e.payload);
        h = fnv1a(h, e.stream);
    }
    return h;
}

Plan
generatePlan(const WorkloadSpec &spec, uint64_t seed, double scale)
{
    Plan plan;
    plan.spec = &spec;
    plan.seed = seed;
    for (size_t ci = 0; ci < spec.classes.size(); ++ci) {
        const ClassSpec &c = spec.classes[ci];
        int n = std::max(1, static_cast<int>(std::lround(c.entries * scale)));
        util::Xoshiro256 rng(mix(seed, ci + 1));
        const double span = static_cast<double>(c.maxBytes - c.minBytes + 1);
        for (int j = 0; j < n; ++j) {
            Entry e;
            e.id = nx::checked_cast<uint32_t>(plan.entries.size());
            e.cls = nx::checked_cast<uint16_t>(ci);
            e.format = c.format;
            // Stratified sizes: one per equal slice of the range, so
            // the pool's total work hardly depends on the seed.
            double at = (static_cast<double>(j) + rng.uniform()) /
                static_cast<double>(n);
            size_t bytes = c.minBytes +
                static_cast<size_t>(std::floor(at * span));
            bytes = std::min(bytes, c.maxBytes);
            // Decompress entries spread evenly over the size order.
            double s = c.decompressShare;
            bool dec = std::floor((j + 1) * s) > std::floor(j * s);
            e.op = dec ? Op::Decompress : Op::Compress;
            e.payload = generate(c.content, bytes,
                                 mix(seed, ci + 1, static_cast<uint64_t>(j) + 1));
            plan.entries.push_back(std::move(e));
        }
    }
    return plan;
}

bool
oracleDecodes(SessionFormat format, std::span<const uint8_t> stream,
              std::span<const uint8_t> payload)
{
    if (format == SessionFormat::E842) {
        auto r = e842::decompress(stream);
        return r.ok && std::equal(r.bytes.begin(), r.bytes.end(),
                                  payload.begin(), payload.end());
    }
    core::SoftwareCodec oracle;
    core::JobResult r = oracle.decompress(stream, framingOf(format));
    return r.ok() && std::equal(r.data.begin(), r.data.end(),
                                payload.begin(), payload.end());
}

std::string
buildReferences(Plan &plan)
{
    const nx::NxConfig cfg = chipConfig();
    nx::CompressEngine engine(cfg);
    e842::E842Engine engine842;
    uint64_t seq = 0;
    for (Entry &e : plan.entries) {
        const nx::SessionPolicy pol = sessionPolicy(e.format, 0);
        const bool accelStream = e.payload.size() >= pol.accelThresholdBytes;
        if (e.format == SessionFormat::E842) {
            e.stream = accelStream ? engine842.compressJob(e.payload).output
                                   : e842::compress(e.payload).bytes;
        } else {
            core::JobResult r = accelStream
                ? core::runCompressJob(engine, cfg, e.payload,
                                       framingOf(e.format), pol.mode, seq++)
                : core::SoftwareCodec(pol.level).compress(
                      e.payload, framingOf(e.format));
            if (!r.ok())
                return "reference compress failed for entry " +
                    std::to_string(e.id);
            e.stream = std::move(r.data);
        }
        e.accel = e.input().size() >= pol.accelThresholdBytes;
        if (!locateBody(e))
            return "unexpected stream header for entry " +
                std::to_string(e.id);
        if (!oracleDecodes(e.format, e.stream, e.payload))
            return "reference stream of entry " + std::to_string(e.id) +
                " does not decode to its payload";
    }
    return {};
}

bool
verify(const Entry &e, const nx::SessionResult &r)
{
    if (!r.ok)
        return false;
    if (r.fellBack && e.op == Op::Compress)
        return oracleDecodes(e.format, r.data, e.payload);
    return std::equal(r.data.begin(), r.data.end(), e.expected().begin(),
                      e.expected().end());
}

Schedule::Schedule(size_t entries, uint64_t seed)
    : order_(entries), pos_(entries), rng_(seed)
{
    for (size_t i = 0; i < entries; ++i)
        order_[i] = nx::checked_cast<uint32_t>(i);
}

uint32_t
Schedule::next()
{
    if (pos_ == order_.size()) {
        for (size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng_.below(i)]);
        pos_ = 0;
    }
    return order_[pos_++];
}

} // namespace perfbench
