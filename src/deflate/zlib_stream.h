/**
 * @file
 * zlib (RFC 1950) container framing: 2-byte CMF/FLG header (then
 * DICTID with a preset dictionary) and Adler-32 trailer around a raw
 * DEFLATE stream. zlibWrap() writes it and zlibUnwrap() reads it, with
 * or without a dictionary.
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

/**
 * Wrap a raw DEFLATE stream in a zlib container. A non-empty @p dict
 * sets FDICT (RFC 1950 preset dictionary): the header carries
 * DICTID = Adler-32 of @p dict, and the payload must have been produced
 * by deflateCompressWithDict(original, dict).
 *
 * @param level the compression level the header's FLEVEL reports
 */
std::vector<uint8_t> zlibWrap(std::span<const uint8_t> deflate_stream,
                              std::span<const uint8_t> original,
                              int level = 6,
                              std::span<const uint8_t> dict = {});

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
 * Parse the header, inflate, verify Adler-32. When the header sets
 * FDICT, @p dict is checked against DICTID and is the inflate's
 * history; a missing or mismatched dictionary fails.
 *
 * @param max_output cap on the inflated size; a larger payload fails
 *                   with InflateStatus::OutputLimit in `inflate.status`
 */
[[nodiscard]] ZlibUnwrapResult
zlibUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
           size_t max_output = size_t{1} << 30,
           std::span<const uint8_t> dict = {});

} // namespace deflate

#endif // NXSIM_DEFLATE_ZLIB_STREAM_H
