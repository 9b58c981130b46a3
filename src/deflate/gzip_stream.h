/**
 * @file
 * gzip (RFC 1952) container framing around raw DEFLATE: 10-byte header,
 * optional header fields, CRC-32 + ISIZE trailer. A gzip file is a
 * series of such members; gzipWrap() writes one, gzipUnwrap() reads
 * them all. This is the wire format both the software path and the
 * accelerator path produce, and what the POWER9/z15 accelerators
 * accept natively (gzip/zlib/raw selectable in the CRB function code).
 */

#ifndef NXSIM_DEFLATE_GZIP_STREAM_H
#define NXSIM_DEFLATE_GZIP_STREAM_H

#include <cstdint>
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

/** Header fields gzipWrap() writes; the defaults give a bare header. */
struct GzipWriteOptions
{
    std::string name;
    std::string comment;
    std::vector<uint8_t> extra;    ///< FEXTRA payload (subfields)
    uint32_t mtime = 0;
    bool headerCrc = false;        ///< emit FHCRC
};

/** Wrap a raw DEFLATE stream in one gzip member. */
std::vector<uint8_t> gzipWrap(std::span<const uint8_t> deflate_stream,
                              std::span<const uint8_t> original,
                              const GzipWriteOptions &opts = {});

/** Result of reading a gzip file: every member, in order. */
struct GzipUnwrapResult
{
    bool ok = false;
    std::string error;
    GzipHeader header;           ///< the first member's
    /** The members' payloads, concatenated; stats summed over members. */
    InflateResult inflate;
    /**
     * CRC-32 of inflate.bytes when ok: one member's trailer CRC, or the
     * members' CRCs combined (util::crc32Combine).
     */
    uint32_t crc = 0;
    /** Where each member ends in the input; the last is its size. */
    std::vector<size_t> memberEnds;
};

/**
 * Read a gzip file as a series of members (RFC 1952 section 2.2, the
 * `cat a.gz b.gz` form gunzip accepts): parse each header, inflate
 * each payload, verify each CRC-32 and ISIZE. Bytes after a member
 * that do not begin a valid member fail the read.
 *
 * @param max_output cap on the members' total inflated size; a larger
 *                   file fails with InflateStatus::OutputLimit in
 *                   `inflate.status`
 */
[[nodiscard]] GzipUnwrapResult
gzipUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> file,
           size_t max_output = size_t{1} << 30);

} // namespace deflate

#endif // NXSIM_DEFLATE_GZIP_STREAM_H
