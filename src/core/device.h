/**
 * @file
 * NxDevice — the per-chip accelerator handle a user program opens.
 *
 * Mirrors the shape of the production software stack (libnxz / zEDC):
 * open a device (VAS window), build jobs, submit synchronously, read
 * back the CSB and the modelled completion time. The device runs every
 * job on its one compress or decompress engine; an engine resets its
 * state on each CRB, so one engine gives the same bytes and cycles as
 * any of several. Engines running in parallel are modelled by
 * core::JobServer's workers.
 */

#ifndef NXSIM_CORE_DEVICE_H
#define NXSIM_CORE_DEVICE_H

#include <cstdint>
#include <span>
#include <vector>

#include "nx/compress_engine.h"
#include "nx/decompress_engine.h"
#include "nx/nx_config.h"

namespace core {

/** User-visible compression mode. */
enum class Mode
{
    Fht,          ///< fixed Huffman: lowest latency
    DhtSampled,   ///< sampled dynamic Huffman: default for big jobs
    DhtTwoPass,   ///< exact dynamic Huffman (z15-style second pass)
    Auto,         ///< pick by job size (libnxz-style policy)
};

/** One completed job as the API reports it. */
struct JobResult
{
    nx::Csb csb;
    std::vector<uint8_t> data;       ///< output payload
    sim::Tick engineCycles = 0;      ///< modelled accelerator cycles
    double seconds = 0.0;            ///< engineCycles on the nest clock

    bool ok() const { return csb.cc == nx::CondCode::Success; }

    /** Source-side throughput implied by the modelled time. */
    double
    sourceBps() const
    {
        return seconds > 0.0
            ? static_cast<double>(csb.processedBytes) / seconds : 0.0;
    }
};

/**
 * Build and execute one compress CRB on @p eng. This is the single
 * code path shared by the synchronous NxDevice API and the
 * core::JobServer workers, which is what keeps async outputs
 * bit-identical to the sync path (the property suite enforces it).
 *
 * @param seq  CRB sequence number (debug/tracing; never affects the
 *             produced stream)
 */
[[nodiscard]] JobResult runCompressJob(nx::CompressEngine &eng,
                                       const nx::NxConfig &cfg,
                                       std::span<const uint8_t> source,
                                       nx::Framing framing, Mode mode,
                                       uint64_t seq);

/** Build and execute one decompress CRB on @p eng (see runCompressJob). */
[[nodiscard]] JobResult runDecompressJob(nx::DecompressEngine &eng,
                                         const nx::NxConfig &cfg,
                                         std::span<const uint8_t> stream,
                                         nx::Framing framing,
                                         uint64_t max_output,
                                         uint64_t seq);

/** A per-chip accelerator device handle. */
class NxDevice
{
  public:
    explicit NxDevice(const nx::NxConfig &cfg);

    /**
     * Compress @p source into a framed stream.
     *
     * @param mode  table policy (Auto: FHT below autoFhtThreshold(),
     *              sampled DHT otherwise)
     */
    [[nodiscard]] JobResult compress(std::span<const uint8_t> source,
                       nx::Framing framing = nx::Framing::Gzip,
                       Mode mode = Mode::Auto);

    /** Decompress a framed stream produced by any conforming encoder. */
    [[nodiscard]] JobResult decompress(std::span<const uint8_t> stream,
                         nx::Framing framing = nx::Framing::Gzip,
                         uint64_t max_output = uint64_t{1} << 30);

    /** Job size below which Auto mode selects FHT. */
    static constexpr uint64_t autoFhtThreshold() { return 32 * 1024; }

    const nx::NxConfig &config() const { return cfg_; }

  private:
    nx::NxConfig cfg_;
    nx::CompressEngine comp_;
    nx::DecompressEngine decomp_;
    uint64_t seq_ = 0;
};

/**
 * SoftwareCodec — the zlib-equivalent path, with the same JobResult
 * shape so benches can treat both sides uniformly. `seconds` is wall
 * time measured on the host (the baseline-core stand-in; see
 * deflate/host_cal.h).
 */
class SoftwareCodec
{
  public:
    explicit SoftwareCodec(int level = 6) : level_(level) {}

    [[nodiscard]] JobResult compress(std::span<const uint8_t> source,
                       nx::Framing framing = nx::Framing::Gzip);
    /**
     * Decompress @p stream; one that inflates past @p max_output bytes
     * fails with CSB OutputOverflow, as on the device.
     */
    [[nodiscard]] JobResult decompress(std::span<const uint8_t> stream,
                         nx::Framing framing = nx::Framing::Gzip,
                         uint64_t max_output = uint64_t{1} << 30);

    int level() const { return level_; }

  private:
    int level_;
};

} // namespace core

#endif // NXSIM_CORE_DEVICE_H
