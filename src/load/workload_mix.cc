#include "load/workload_mix.h"

#include "util/checked.h"
#include "util/contracts.h"
#include "workloads/corpus.h"

namespace load {

namespace {

std::vector<uint8_t>
generate(Content c, size_t bytes, uint64_t seed)
{
    switch (c) {
      case Content::Text: return workloads::makeText(bytes, seed);
      case Content::Log: return workloads::makeLog(bytes, seed);
      case Content::Json: return workloads::makeJson(bytes, seed);
      case Content::Binary: return workloads::makeBinary(bytes, seed);
      case Content::Random: return workloads::makeRandom(bytes, seed);
      case Content::Zeros: return workloads::makeZeros(bytes);
      case Content::Mixed: break;
    }
    return workloads::makeMixed(bytes, seed);
}

/**
 * The stream a decompress request replays, produced by the software
 * path — the output every backend is bit-compatible with, so a
 * decompress request is valid on either route.
 */
std::vector<uint8_t>
compressFor(nx::SessionFormat format,
            const std::vector<uint8_t> &source)
{
    nx::SessionPolicy pol;
    pol.format = format;
    auto r = nx::softwareLeg(pol, core::JobKind::Compress, source);
    NXSIM_ENSURE(r.ok, "mix preparation: software compress failed");
    return std::move(r.data);
}

} // namespace

const char *
toString(Content c)
{
    switch (c) {
      case Content::Text: return "text";
      case Content::Log: return "log";
      case Content::Json: return "json";
      case Content::Binary: return "binary";
      case Content::Random: return "random";
      case Content::Zeros: return "zeros";
      case Content::Mixed: return "mixed";
    }
    return "?";
}

WorkloadMixConfig
defaultServingMix()
{
    WorkloadMixConfig cfg;
    cfg.classes = {
        // Small hot-path requests sit below the 4 KiB crossover and
        // exercise the software route.
        {"text-small", 3.0, nx::SessionFormat::Gzip, Content::Text,
         512, 4 * 1024, 0.25},
        // Bulk log batches ride the accelerator.
        {"log-bulk", 2.0, nx::SessionFormat::Gzip, Content::Log,
         32 * 1024, 256 * 1024, 0.25},
        // API documents straddle the crossover.
        {"json-api", 2.0, nx::SessionFormat::Zlib, Content::Json,
         2 * 1024, 64 * 1024, 0.5},
        // Memory-expansion pages on the 842 engines.
        {"page-842", 1.5, nx::SessionFormat::E842, Content::Binary,
         4 * 1024, 64 * 1024, 0.5},
        // Already-compressed tail: worst-case ratio, real in serving.
        {"opaque", 0.5, nx::SessionFormat::Gzip, Content::Random,
         8 * 1024, 32 * 1024, 0.0},
    };
    return cfg;
}

WorkloadMix::WorkloadMix(const WorkloadMixConfig &cfg) : cfg_(cfg)
{
    NXSIM_EXPECT(!cfg_.classes.empty(), "a mix needs >= 1 class");
    NXSIM_EXPECT(cfg_.variantsPerClass > 0,
                 "a mix needs >= 1 variant per class");

    pool_.resize(cfg_.classes.size());
    cumWeight_.reserve(cfg_.classes.size());
    for (size_t c = 0; c < cfg_.classes.size(); ++c) {
        const MixClass &mc = cfg_.classes[c];
        NXSIM_EXPECT(mc.weight > 0.0, "class weights must be positive");
        NXSIM_EXPECT(mc.minBytes > 0 && mc.minBytes <= mc.maxBytes,
                     "class size range must be non-empty");
        NXSIM_EXPECT(mc.decompressFraction >= 0.0 &&
                         mc.decompressFraction <= 1.0,
                     "decompress fraction must be in [0, 1]");
        totalWeight_ += mc.weight;
        cumWeight_.push_back(totalWeight_);

        auto &variants = pool_[c];
        variants.resize(nx::checked_cast<size_t>(cfg_.variantsPerClass));
        for (size_t v = 0; v < variants.size(); ++v) {
            // Deterministic per-(class, variant) seed; sizes drawn
            // from a side stream so adding a class never reshapes
            // another class's payloads.
            uint64_t seed = cfg_.seed ^ (0x9e3779b97f4a7c15ull * (c + 1))
                ^ (0xbf58476d1ce4e5b9ull * (v + 1));
            util::Xoshiro256 rng(seed);
            size_t bytes = nx::checked_cast<size_t>(rng.range(
                nx::checked_cast<int64_t>(mc.minBytes),
                nx::checked_cast<int64_t>(mc.maxBytes)));
            variants[v].source = generate(mc.content, bytes, seed);
            variants[v].compressed =
                compressFor(mc.format, variants[v].source);
        }
    }
}

SampledRequest
WorkloadMix::sample(util::Xoshiro256 &rng) const
{
    // Class by weight (CDF walk: the class list is short), then
    // variant uniformly, then operation by the class's split.
    double u = rng.uniform() * totalWeight_;
    size_t cls = 0;
    while (cls + 1 < cumWeight_.size() && u >= cumWeight_[cls])
        ++cls;
    const MixClass &mc = cfg_.classes[cls];
    size_t var = rng.below(pool_[cls].size());
    bool dec = rng.chance(mc.decompressFraction);

    SampledRequest out;
    out.classIndex = cls;
    out.variantIndex = var;
    out.format = mc.format;
    out.kind = dec ? core::JobKind::Decompress : core::JobKind::Compress;
    out.payload = dec ? &pool_[cls][var].compressed
                      : &pool_[cls][var].source;
    out.original = dec ? &pool_[cls][var].source : nullptr;
    return out;
}

const std::vector<uint8_t> &
WorkloadMix::variant(size_t cls, size_t var) const
{
    NXSIM_EXPECT(cls < pool_.size() && var < pool_[cls].size(),
                 "variant index out of range");
    return pool_[cls][var].source;
}

} // namespace load
