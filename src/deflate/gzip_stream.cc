#include "deflate/gzip_stream.h"

#include "util/crc32.h"
#include "util/checked.h"
#include "util/contracts.h"
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
} // namespace

std::vector<uint8_t>
gzipWrap(std::span<const uint8_t> deflate_stream,
         std::span<const uint8_t> original, const std::string &name)
{
    GzipWriteOptions opts;
    opts.name = name;
    return gzipWrapEx(deflate_stream, original, opts);
}

std::vector<uint8_t>
gzipWrapEx(std::span<const uint8_t> deflate_stream,
           std::span<const uint8_t> original,
           const GzipWriteOptions &opts)
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

uint32_t
gzipTrailerCrc(std::span<const uint8_t> member)
{
    NXSIM_EXPECT(member.size() >= 18, "a whole gzip member");
    return readLe32(member, member.size() - 8);
}

GzipUnwrapResult
gzipUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> member,
           size_t max_output)
{
    GzipUnwrapResult res;
    if (member.size() < 18) {
        res.error = "member too short";
        return res;
    }
    if (member[0] != kId1 || member[1] != kId2) {
        res.error = "bad magic";
        return res;
    }
    if (member[2] != kCmDeflate) {
        res.error = "unsupported compression method";
        return res;
    }
    uint8_t flg = member[3];
    res.header.flags = flg;
    res.header.mtime = nx::checked_cast<uint32_t>(member[4]) |
        (nx::checked_cast<uint32_t>(member[5]) << 8) |
        (nx::checked_cast<uint32_t>(member[6]) << 16) |
        (nx::checked_cast<uint32_t>(member[7]) << 24);

    size_t pos = 10;
    if (flg & 0x04) {    // FEXTRA
        if (pos + 2 > member.size()) {
            res.error = "truncated FEXTRA";
            return res;
        }
        size_t xlen = static_cast<size_t>(member[pos]) |
            (static_cast<size_t>(member[pos + 1]) << 8);
        pos += 2;
        if (pos + xlen > member.size()) {
            res.error = "truncated FEXTRA";
            return res;
        }
        res.header.extra.assign(member.begin() + static_cast<long>(pos),
                                member.begin() +
                                    static_cast<long>(pos + xlen));
        pos += xlen;
    }
    if (flg & kFlagName) {
        while (pos < member.size() && member[pos] != 0)
            res.header.name.push_back(nx::truncate_cast<char>(member[pos++]));
        ++pos;    // NUL
    }
    if (flg & 0x10) {    // FCOMMENT
        while (pos < member.size() && member[pos] != 0)
            res.header.comment.push_back(
                nx::truncate_cast<char>(member[pos++]));
        ++pos;
    }
    if (flg & 0x02) {    // FHCRC
        res.header.hcrcPresent = true;
        if (pos + 2 > member.size()) {
            res.error = "truncated FHCRC";
            return res;
        }
        uint16_t want = nx::checked_cast<uint16_t>(
            member[pos] | (member[pos + 1] << 8));
        uint16_t got = nx::checked_cast<uint16_t>(
            util::crc32(member.subspan(0, pos)) & 0xffff);
        res.header.hcrcValid = want == got;
        pos += 2;
        if (!res.header.hcrcValid) {
            res.error = "header CRC mismatch";
            return res;
        }
    }
    if (pos + 8 > member.size()) {
        res.error = "truncated member";
        return res;
    }

    res.inflate = inflateDecompress(member.subspan(pos,
        member.size() - pos - 8), max_output);
    if (!res.inflate.ok()) {
        res.error = std::string("inflate: ") +
            toString(res.inflate.status);
        return res;
    }

    size_t tpos = pos + res.inflate.consumedBytes;
    if (tpos + 8 > member.size()) {
        res.error = "trailer overlaps payload";
        return res;
    }
    res.crc = readLe32(member, tpos);
    uint32_t isize = readLe32(member, tpos + 4);
    if (res.crc != util::crc32(res.inflate.bytes)) {
        res.error = "CRC mismatch";
        return res;
    }
    if (isize != nx::truncate_cast<uint32_t>(res.inflate.bytes.size())) {
        res.error = "ISIZE mismatch";
        return res;
    }
    res.memberBytes = tpos + 8;
    res.ok = true;
    return res;
}

GzipFileResult
gzipUnwrapAll(NXSIM_UNTRUSTED std::span<const uint8_t> file)
{
    GzipFileResult out;
    size_t off = 0;
    while (off < file.size()) {
        auto res = gzipUnwrap(file.subspan(off));
        if (!res.ok) {
            out.error = res.error;
            return out;
        }
        out.bytes.insert(out.bytes.end(), res.inflate.bytes.begin(),
                         res.inflate.bytes.end());
        ++out.members;
        off += res.memberBytes;
    }
    if (out.members == 0) {
        out.error = "empty file";
        return out;
    }
    out.ok = true;
    return out;
}

} // namespace deflate
