/**
 * @file
 * gzip (RFC 1952) container framing around raw DEFLATE: 10-byte header,
 * optional name field, CRC-32 + ISIZE trailer. This is the wire format
 * both the software path and the accelerator path produce, and what the
 * POWER9/z15 accelerators accept natively (gzip/zlib/raw selectable in
 * the CRB function code).
 */

#ifndef NXSIM_DEFLATE_GZIP_STREAM_H
#define NXSIM_DEFLATE_GZIP_STREAM_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "deflate/inflate_decoder.h"
#include "util/taint.h"

namespace deflate {

/** Parsed gzip member header fields we care about. */
struct GzipHeader
{
    uint8_t flags = 0;
    uint32_t mtime = 0;
    std::string name;
    std::string comment;
    std::vector<uint8_t> extra;
    bool hcrcPresent = false;
    bool hcrcValid = false;
};

/** Header options for gzipWrapEx (full RFC 1952 field support). */
struct GzipWriteOptions
{
    std::string name;
    std::string comment;
    std::vector<uint8_t> extra;    ///< FEXTRA payload (subfields)
    uint32_t mtime = 0;
    bool headerCrc = false;        ///< emit FHCRC
};

/** Wrap a raw DEFLATE stream in a gzip member. */
std::vector<uint8_t> gzipWrap(std::span<const uint8_t> deflate_stream,
                              std::span<const uint8_t> original,
                              const std::string &name = {});

/** Wrap with full header-field control. */
std::vector<uint8_t> gzipWrapEx(std::span<const uint8_t> deflate_stream,
                                std::span<const uint8_t> original,
                                const GzipWriteOptions &opts);

/**
 * The CRC-32 field of the trailer that ends @p member, a whole member
 * as gzipWrap() returns it: the wrap's checksum without recomputing it.
 */
uint32_t gzipTrailerCrc(std::span<const uint8_t> member);

/** Result of unwrapping a gzip member. */
struct GzipUnwrapResult
{
    bool ok = false;
    std::string error;
    GzipHeader header;
    InflateResult inflate;
    /** Trailer CRC-32; when ok, verified equal to crc32(inflate.bytes). */
    uint32_t crc = 0;
    /** Total bytes of this member (header + payload + trailer). */
    size_t memberBytes = 0;
};

/**
 * Parse the header, inflate the payload, verify CRC-32 and ISIZE.
 *
 * @param max_output cap on the inflated size; a larger payload fails
 *                   with InflateStatus::OutputLimit in `inflate.status`
 */
[[nodiscard]] GzipUnwrapResult
gzipUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> member,
           size_t max_output = size_t{1} << 30);

/** Result of unwrapping a whole (possibly multi-member) gzip file. */
struct GzipFileResult
{
    bool ok = false;
    std::string error;
    std::vector<uint8_t> bytes;      ///< concatenated payloads
    size_t members = 0;
};

/**
 * Decode a gzip file that may contain several concatenated members
 * (the `cat a.gz b.gz` form gunzip accepts).
 */
[[nodiscard]] GzipFileResult
gzipUnwrapAll(NXSIM_UNTRUSTED std::span<const uint8_t> file);

} // namespace deflate

#endif // NXSIM_DEFLATE_GZIP_STREAM_H
