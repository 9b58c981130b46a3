/**
 * @file
 * The workloads and the request plan they expand to.
 *
 * A workload is a fixed set of request classes (content family, stream
 * format, size range, decompress share) and a client count. For a seed
 * it expands into a plan: a pool of distinct requests, each with its
 * payload, its reference stream and the route the session will take.
 * Clients walk the pool in shuffled full passes, so every seed serves
 * every request equally often and the work per pass varies little
 * between seeds.
 */

#ifndef PERFBENCH_PLAN_H
#define PERFBENCH_PLAN_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "nx/nx_config.h"
#include "util/prng.h"

namespace perfbench {

enum class Op : uint8_t
{
    Compress,
    Decompress,
};

const char *toString(Op op);

/** Content family, each one workloads/corpus.h generator. */
enum class Content : uint8_t
{
    Text,
    Json,
    Log,
    Mixed,
    Binary,
    Random,
};

/** One request class of a workload. */
struct ClassSpec
{
    const char *name;
    Content content;
    nx::SessionFormat format;
    size_t minBytes;
    size_t maxBytes;
    int entries;               ///< distinct requests of the class per plan
    double decompressShare;    ///< spread evenly across the size range
};

/** One workload: request classes and closed-loop client count. */
struct WorkloadSpec
{
    const char *name;
    int clients;
    std::vector<ClassSpec> classes;
};

/** Every workload, in report order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload called @p name, or nullptr. */
const WorkloadSpec *findWorkload(std::string_view name);

/** The session policy every client session uses, for @p format. */
nx::SessionPolicy sessionPolicy(nx::SessionFormat format, int window);

/** The modelled chip: the POWER9 preset. */
nx::NxConfig chipConfig();

/** CRB framing of a DEFLATE-family format (842 has none: Raw). */
nx::Framing framingOf(nx::SessionFormat f);

/** One distinct request of a plan, with its verified reference. */
struct Entry
{
    uint32_t id = 0;
    uint16_t cls = 0;
    nx::SessionFormat format = nx::SessionFormat::Gzip;
    Op op = Op::Compress;
    /** The session sends input() to the accelerator (size >= crossover). */
    bool accel = false;
    std::vector<uint8_t> payload;   ///< uncompressed bytes
    std::vector<uint8_t> stream;    ///< reference compressed stream
    /** Raw DEFLATE body inside stream (deflate formats). */
    size_t bodyOffset = 0;
    size_t bodyBytes = 0;

    std::span<const uint8_t>
    input() const
    {
        return op == Op::Compress ? std::span<const uint8_t>(payload)
                                  : std::span<const uint8_t>(stream);
    }

    std::span<const uint8_t>
    expected() const
    {
        return op == Op::Compress ? std::span<const uint8_t>(stream)
                                  : std::span<const uint8_t>(payload);
    }

    std::span<const uint8_t>
    body() const
    {
        return std::span<const uint8_t>(stream).subspan(bodyOffset,
                                                        bodyBytes);
    }

    /** Bytes a user is served: compress input or decompress output. */
    uint64_t uncompressedBytes() const { return payload.size(); }
};

/** The expanded workload for one seed. */
struct Plan
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 0;
    std::vector<Entry> entries;

    /** Formats the plan uses (one session per format per client). */
    std::vector<nx::SessionFormat> formats() const;

    /** FNV-1a over every entry's shape, payload and reference. */
    uint64_t digest() const;
};

/**
 * Generate every payload of @p spec for @p seed (the workloads layer).
 * @p scale shrinks the per-class entry counts (self-tests only).
 */
Plan generatePlan(const WorkloadSpec &spec, uint64_t seed,
                  double scale = 1.0);

/**
 * Produce each entry's reference stream on the route the session will
 * take (accelerator engine model or software codec), locate its
 * DEFLATE body, and verify it by decoding it with the software oracle.
 * Returns an empty string, or what failed.
 */
std::string buildReferences(Plan &plan);

/** Software-oracle decode of @p stream in @p format. */
bool oracleDecodes(nx::SessionFormat format,
                   std::span<const uint8_t> stream,
                   std::span<const uint8_t> payload);

/**
 * Check one session result against its entry: byte for byte against
 * the verified reference, or, when the request fell back to software
 * (a different but valid stream), by a full oracle decode.
 */
bool verify(const Entry &e, const nx::SessionResult &r);

/** One client's request order: shuffled full passes over the plan. */
class Schedule
{
  public:
    Schedule(size_t entries, uint64_t seed);

    uint32_t next();

  private:
    std::vector<uint32_t> order_;
    size_t pos_ = 0;
    util::Xoshiro256 rng_;
};

} // namespace perfbench

#endif // PERFBENCH_PLAN_H
