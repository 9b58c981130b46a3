/**
 * @file
 * zlib (RFC 1950) container framing: 2-byte CMF/FLG header and Adler-32
 * trailer around a raw DEFLATE stream.
 */

#ifndef NXSIM_DEFLATE_ZLIB_STREAM_H
#define NXSIM_DEFLATE_ZLIB_STREAM_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "deflate/inflate_decoder.h"
#include "util/taint.h"

namespace deflate {

/** Wrap a raw DEFLATE stream in a zlib container. */
std::vector<uint8_t> zlibWrap(std::span<const uint8_t> deflate_stream,
                              std::span<const uint8_t> original,
                              int level = 6);

/**
 * The Adler-32 field of the trailer that ends @p stream, a whole stream
 * as zlibWrap() returns it: the wrap's checksum without recomputing it.
 */
uint32_t zlibTrailerAdler(std::span<const uint8_t> stream);

/** Result of unwrapping a zlib stream. */
struct ZlibUnwrapResult
{
    bool ok = false;
    std::string error;
    InflateResult inflate;
    /** Trailer Adler-32; when ok, verified equal to adler32(inflate.bytes). */
    uint32_t adler = 0;
};

/**
 * Parse header, inflate, verify Adler-32.
 *
 * @param max_output cap on the inflated size; a larger payload fails
 *                   with InflateStatus::OutputLimit in `inflate.status`
 */
[[nodiscard]] ZlibUnwrapResult
zlibUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
           size_t max_output = size_t{1} << 30);

/**
 * Wrap a preset-dictionary stream (RFC 1950 FDICT): the header
 * carries DICTID = Adler-32 of @p dict, and the payload must have
 * been produced by deflateCompressWithDict(input, dict).
 */
std::vector<uint8_t> zlibWrapWithDict(
    std::span<const uint8_t> deflate_stream,
    std::span<const uint8_t> original, std::span<const uint8_t> dict,
    int level = 6);

/**
 * Unwrap a possibly-FDICT stream. When the header demands a
 * dictionary, @p dict is checked against DICTID and used for the
 * inflate history; a mismatch or a missing dictionary fails.
 */
[[nodiscard]] ZlibUnwrapResult
zlibUnwrapWithDict(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
                   std::span<const uint8_t> dict);

} // namespace deflate

#endif // NXSIM_DEFLATE_ZLIB_STREAM_H
