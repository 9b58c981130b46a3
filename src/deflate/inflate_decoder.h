/**
 * @file
 * One-call raw DEFLATE (RFC 1951) decode: inflateDecompress() is a
 * single end-of-input feed of the inflate core, InflateStream
 * (inflate_stream.h), and these are the result types both share.
 *
 * The decoder is fully independent of the encoder (no shared emission
 * code), so a successful round trip really exercises the format. It
 * reports per-block stats the accelerator decompress model uses for
 * its timing estimate.
 */

#ifndef NXSIM_DEFLATE_INFLATE_DECODER_H
#define NXSIM_DEFLATE_INFLATE_DECODER_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/taint.h"

namespace deflate {

/** Outcome of an inflate() call. */
enum class InflateStatus
{
    Ok,
    TruncatedInput,
    BadBlockType,
    BadStoredLength,
    BadCodeLengths,
    BadSymbol,
    BadDistance,
    OutputLimit,
};

/** Human-readable status name. */
const char *toString(InflateStatus s);

/** Decoded stream statistics (inputs to the decompress timing model). */
struct InflateStats
{
    uint64_t storedBlocks = 0;
    uint64_t fixedBlocks = 0;
    uint64_t dynamicBlocks = 0;
    uint64_t literals = 0;
    uint64_t matches = 0;
    uint64_t matchedBytes = 0;
    uint64_t inputBits = 0;

    uint64_t symbols() const { return literals + matches; }

    /** Add @p o's counts: the stats of two streams decoded in turn. */
    InflateStats &
    operator+=(const InflateStats &o)
    {
        storedBlocks += o.storedBlocks;
        fixedBlocks += o.fixedBlocks;
        dynamicBlocks += o.dynamicBlocks;
        literals += o.literals;
        matches += o.matches;
        matchedBytes += o.matchedBytes;
        inputBits += o.inputBits;
        return *this;
    }
};

/** Result of inflating a raw DEFLATE stream. */
struct InflateResult
{
    InflateStatus status = InflateStatus::Ok;
    std::vector<uint8_t> bytes;
    InflateStats stats;
    size_t consumedBytes = 0;   ///< input bytes consumed (incl. final bits)

    bool ok() const { return status == InflateStatus::Ok; }
};

/**
 * Inflate a raw DEFLATE stream.
 *
 * @param input compressed bytes (stream must start at offset 0)
 * @param max_output safety cap on decompressed size (default 1 GiB)
 */
[[nodiscard]] InflateResult inflateDecompress(
    NXSIM_UNTRUSTED std::span<const uint8_t> input,
    size_t max_output = size_t{1} << 30);

/**
 * Inflate a stream produced with a preset dictionary: back-references
 * may reach into the last 32 KiB of @p dict before output starts.
 * The dictionary bytes are NOT part of the returned output.
 */
[[nodiscard]] InflateResult inflateDecompressWithDict(
    NXSIM_UNTRUSTED std::span<const uint8_t> input,
    std::span<const uint8_t> dict, size_t max_output = size_t{1} << 30);

} // namespace deflate

#endif // NXSIM_DEFLATE_INFLATE_DECODER_H
