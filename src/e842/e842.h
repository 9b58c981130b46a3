/**
 * @file
 * An 842-class compression codec.
 *
 * Besides the gzip engines this paper focuses on, the POWER9 NX unit
 * carries "842" engines: a low-latency memory-compression codec used
 * for in-memory data (and by AIX/PowerVM Active Memory Expansion).
 * 842 trades ratio for simplicity: input is processed in 8-byte
 * chunks; each chunk is emitted under a 5-bit template that splits it
 * into 8/4/2-byte granules, each either literal data or a short index
 * into a ring dictionary of recently seen granules.
 *
 * This implementation follows the structure of the 842 family
 * (templates, per-granule-size ring dictionaries, ZEROS/REPEAT/
 * SHORT_DATA/END opcodes) but is its own self-consistent bit format —
 * we make no claim of interoperability with IBM hardware streams,
 * which we cannot test against. See DESIGN.md (substitutions).
 *
 * Dictionary model (identical in encoder and decoder, so indices are
 * deterministic): every 2-byte granule of reconstructed output is
 * appended to a 256-slot ring; every 4-byte granule to a 512-slot
 * ring; every 8-byte chunk to a 256-slot ring. An index operand
 * addresses a slot in the corresponding ring.
 */

#ifndef NXSIM_E842_E842_H
#define NXSIM_E842_E842_H

#include <cstdint>
#include <span>
#include <vector>

#include "util/taint.h"

namespace e842 {

/** Encoder statistics (inputs to the engine timing model). */
struct E842Stats
{
    uint64_t chunks = 0;
    uint64_t literalBits = 0;
    uint64_t indexBits = 0;
    uint64_t zeroOps = 0;
    uint64_t repeatOps = 0;
    uint64_t shortDataOps = 0;
};

/** Result of an 842 compression. */
struct E842Result
{
    std::vector<uint8_t> bytes;
    E842Stats stats;
};

/** Compress @p input into an 842-class stream. */
[[nodiscard]] E842Result compress(std::span<const uint8_t> input);

/** Why a decode stopped: the output cap, or a corrupt stream. */
enum class DecodeStatus : uint8_t
{
    Ok,
    Corrupt,       ///< truncated or malformed
    OutputLimit,   ///< the output would pass max_output
};

/** Decompression outcome. */
struct E842DecompressResult
{
    bool ok = false;
    DecodeStatus status = DecodeStatus::Ok;
    std::vector<uint8_t> bytes;
};

/** Decompress an 842-class stream. */
[[nodiscard]] E842DecompressResult decompress(
    NXSIM_UNTRUSTED std::span<const uint8_t> stream,
    size_t max_output = size_t{1} << 30);

} // namespace e842

#endif // NXSIM_E842_E842_H
