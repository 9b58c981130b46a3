/**
 * @file
 * The one framing switch each way: wrap() puts a raw DEFLATE stream in
 * the container a CRB selects, unwrap() reads any of them back (every
 * member of a gzip file). The accelerator engines and the software
 * codec both frame through these, so their streams and CSB checksums
 * agree.
 */

#ifndef NXSIM_DEFLATE_FRAMING_H
#define NXSIM_DEFLATE_FRAMING_H

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/inflate_decoder.h"
#include "util/taint.h"

namespace deflate {

/** Stream framing, as a CRB selects it. */
enum class Framing : uint8_t
{
    Raw,     ///< raw DEFLATE
    Gzip,    ///< RFC 1952 member(s)
    Zlib,    ///< RFC 1950 stream
};

/** A framed stream and the checksum of its payload. */
struct WrapResult
{
    std::vector<uint8_t> bytes;
    uint32_t checksum = 0;   ///< CRC-32 (raw, gzip) or Adler-32 (zlib)
};

/**
 * Frame @p deflate_stream, the raw DEFLATE encoding of @p original.
 * @p level is what a zlib header's FLEVEL reports.
 */
[[nodiscard]] WrapResult wrap(Framing framing,
                              std::vector<uint8_t> deflate_stream,
                              std::span<const uint8_t> original,
                              int level = 6);

/** A framed stream read back. */
struct UnwrapResult
{
    bool ok = false;
    /** Payload and block stats (summed over gzip members); on failure
     *  the status is OutputLimit when the payload passed the cap. */
    InflateResult inflate;
    uint32_t checksum = 0;   ///< of the payload, as WrapResult's
};

/** Inflate a @p framing stream, checksums verified, under one cap. */
[[nodiscard]] UnwrapResult unwrap(
    Framing framing, NXSIM_UNTRUSTED std::span<const uint8_t> stream,
    size_t max_output);

} // namespace deflate

#endif // NXSIM_DEFLATE_FRAMING_H
