#include "deflate/gzip_stream.h"

#include "deflate/inflate_stream.h"
#include "util/crc32.h"
#include "util/checked.h"
#include "util/taint.h"

namespace deflate {

namespace {
constexpr uint8_t kId1 = 0x1f;
constexpr uint8_t kId2 = 0x8b;
constexpr uint8_t kCmDeflate = 8;
constexpr uint8_t kFlagName = 0x08;
constexpr uint8_t kOsUnix = 3;

/** Little-endian 32-bit field at @p p. */
uint32_t
readLe32(std::span<const uint8_t> bytes, size_t p)
{
    return nx::checked_cast<uint32_t>(bytes[p]) |
        (nx::checked_cast<uint32_t>(bytes[p + 1]) << 8) |
        (nx::checked_cast<uint32_t>(bytes[p + 2]) << 16) |
        (nx::checked_cast<uint32_t>(bytes[p + 3]) << 24);
}

/**
 * Parse the header that starts @p member into @p h. Returns where the
 * payload starts, or 0 with @p error set.
 */
size_t
readHeader(NXSIM_UNTRUSTED std::span<const uint8_t> member, GzipHeader &h,
           std::string &error)
{
    if (member.size() < 18) {
        error = "member too short";
        return 0;
    }
    if (member[0] != kId1 || member[1] != kId2) {
        error = "bad magic";
        return 0;
    }
    if (member[2] != kCmDeflate) {
        error = "unsupported compression method";
        return 0;
    }
    uint8_t flg = member[3];
    h.flags = flg;
    h.mtime = readLe32(member, 4);

    size_t pos = 10;
    if (flg & 0x04) {    // FEXTRA
        if (pos + 2 > member.size()) {
            error = "truncated FEXTRA";
            return 0;
        }
        size_t xlen = static_cast<size_t>(member[pos]) |
            (static_cast<size_t>(member[pos + 1]) << 8);
        pos += 2;
        if (pos + xlen > member.size()) {
            error = "truncated FEXTRA";
            return 0;
        }
        h.extra.assign(member.begin() + static_cast<long>(pos),
                       member.begin() + static_cast<long>(pos + xlen));
        pos += xlen;
    }
    if (flg & kFlagName) {
        while (pos < member.size() && member[pos] != 0)
            h.name.push_back(nx::truncate_cast<char>(member[pos++]));
        ++pos;    // NUL
    }
    if (flg & 0x10) {    // FCOMMENT
        while (pos < member.size() && member[pos] != 0)
            h.comment.push_back(nx::truncate_cast<char>(member[pos++]));
        ++pos;
    }
    if (flg & 0x02) {    // FHCRC
        h.hcrcPresent = true;
        if (pos + 2 > member.size()) {
            error = "truncated FHCRC";
            return 0;
        }
        uint16_t want = nx::checked_cast<uint16_t>(
            member[pos] | (member[pos + 1] << 8));
        uint16_t got = nx::checked_cast<uint16_t>(
            util::crc32(member.subspan(0, pos)) & 0xffff);
        h.hcrcValid = want == got;
        pos += 2;
        if (!h.hcrcValid) {
            error = "header CRC mismatch";
            return 0;
        }
    }
    if (pos + 8 > member.size()) {
        error = "truncated member";
        return 0;
    }
    return pos;
}
} // namespace

std::vector<uint8_t>
gzipWrap(std::span<const uint8_t> deflate_stream,
         std::span<const uint8_t> original, const GzipWriteOptions &opts)
{
    std::vector<uint8_t> out;
    out.reserve(deflate_stream.size() + 24 + opts.name.size() +
                opts.comment.size() + opts.extra.size());
    uint8_t flg = 0;
    if (!opts.extra.empty())
        flg |= 0x04;    // FEXTRA
    if (!opts.name.empty())
        flg |= kFlagName;
    if (!opts.comment.empty())
        flg |= 0x10;    // FCOMMENT
    if (opts.headerCrc)
        flg |= 0x02;    // FHCRC

    out.push_back(kId1);
    out.push_back(kId2);
    out.push_back(kCmDeflate);
    out.push_back(flg);
    for (int i = 0; i < 4; ++i)
        out.push_back(nx::checked_cast<uint8_t>(
            (opts.mtime >> (8 * i)) & 0xff));
    out.push_back(0);        // XFL
    out.push_back(kOsUnix);  // OS
    if (!opts.extra.empty()) {
        auto xlen = nx::checked_cast<uint16_t>(opts.extra.size());
        out.push_back(nx::checked_cast<uint8_t>(xlen & 0xff));
        out.push_back(nx::checked_cast<uint8_t>(xlen >> 8));
        out.insert(out.end(), opts.extra.begin(), opts.extra.end());
    }
    if (!opts.name.empty()) {
        out.insert(out.end(), opts.name.begin(), opts.name.end());
        out.push_back(0);
    }
    if (!opts.comment.empty()) {
        out.insert(out.end(), opts.comment.begin(),
                   opts.comment.end());
        out.push_back(0);
    }
    if (opts.headerCrc) {
        // CRC16 of everything written so far (low 16 bits of CRC-32).
        uint16_t hcrc = nx::checked_cast<uint16_t>(
            util::crc32(out) & 0xffff);
        out.push_back(nx::checked_cast<uint8_t>(hcrc & 0xff));
        out.push_back(nx::checked_cast<uint8_t>(hcrc >> 8));
    }
    out.insert(out.end(), deflate_stream.begin(), deflate_stream.end());

    uint32_t crc = util::crc32(original);
    auto isize = nx::truncate_cast<uint32_t>(original.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(nx::checked_cast<uint8_t>((crc >> (8 * i)) & 0xff));
    for (int i = 0; i < 4; ++i)
        out.push_back(nx::checked_cast<uint8_t>((isize >> (8 * i)) & 0xff));
    return out;
}

GzipUnwrapResult
gzipUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> file, size_t max_output)
{
    GzipUnwrapResult res;
    std::vector<uint8_t> &out = res.inflate.bytes;
    size_t off = 0;
    do {
        auto member = file.subspan(off);
        GzipHeader later;
        size_t pos = readHeader(member,
                                off == 0 ? res.header : later, res.error);
        if (pos == 0)
            return res;

        // Each member is its own DEFLATE stream, inflated in place
        // after the ones before it under what is left of the cap.
        const size_t start = out.size();
        InflateStream is({}, max_output - start);
        if (is.feed(member.subspan(pos, member.size() - pos - 8), out,
                    true) != StreamStatus::Done) {
            res.inflate.status = is.error();
            res.error = std::string("inflate: ") + toString(is.error());
            return res;
        }
        res.inflate.stats += is.stats();
        const size_t consumed = (is.stats().inputBits + 7) / 8;
        res.inflate.consumedBytes += consumed;

        size_t tpos = pos + consumed;
        if (tpos + 8 > member.size()) {
            res.error = "trailer overlaps payload";
            return res;
        }
        uint32_t crc = readLe32(member, tpos);
        uint32_t isize = readLe32(member, tpos + 4);
        auto payload = std::span<const uint8_t>(out).subspan(start);
        if (crc != util::crc32(payload)) {
            res.error = "CRC mismatch";
            return res;
        }
        if (isize != nx::truncate_cast<uint32_t>(payload.size())) {
            res.error = "ISIZE mismatch";
            return res;
        }
        res.crc = off == 0 ? crc
                           : util::crc32Combine(res.crc, crc, payload.size());
        off += tpos + 8;
        res.memberEnds.push_back(off);
    } while (off < file.size());
    res.ok = true;
    return res;
}

} // namespace deflate
