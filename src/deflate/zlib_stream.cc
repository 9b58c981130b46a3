#include "deflate/zlib_stream.h"

#include "util/adler32.h"
#include "util/checked.h"
#include "util/taint.h"

namespace deflate {

namespace {

/** Big-endian 32-bit field at @p p (zlib stores DICTID and Adler so). */
uint32_t
readBe32(std::span<const uint8_t> bytes, size_t p)
{
    return (nx::checked_cast<uint32_t>(bytes[p]) << 24) |
        (nx::checked_cast<uint32_t>(bytes[p + 1]) << 16) |
        (nx::checked_cast<uint32_t>(bytes[p + 2]) << 8) |
        nx::checked_cast<uint32_t>(bytes[p + 3]);
}

/** CMF: method 8 (deflate) with a 32 KiB window (CINFO 7). */
constexpr uint8_t kCmf = 0x78;

/**
 * The FLG byte: FLEVEL as zlib's deflate.c sets it (levels 0-1 give 0,
 * 2-5 give 1, 6 gives 2, 7-9 give 3), FDICT, and the FCHECK that makes
 * CMF * 256 + FLG a multiple of 31.
 */
uint8_t
zlibFlg(int level, bool fdict)
{
    unsigned flevel = level >= 7 ? 3 : level == 6 ? 2 : level >= 2 ? 1 : 0;
    unsigned flg = (flevel << 6) | (fdict ? 0x20u : 0u);
    unsigned fcheck = (31 - (kCmf * 256u + flg) % 31) % 31;
    return nx::checked_cast<uint8_t>(flg + fcheck);
}

/** Append @p v big-endian (zlib stores DICTID and Adler so). */
void
putBe32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 3; i >= 0; --i)
        out.push_back(nx::checked_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

} // namespace

std::vector<uint8_t>
zlibWrap(std::span<const uint8_t> deflate_stream,
         std::span<const uint8_t> original, int level,
         std::span<const uint8_t> dict)
{
    std::vector<uint8_t> out;
    out.reserve(deflate_stream.size() + 10);
    out.push_back(kCmf);
    out.push_back(zlibFlg(level, !dict.empty()));
    if (!dict.empty())
        putBe32(out, util::adler32(dict));    // DICTID
    out.insert(out.end(), deflate_stream.begin(), deflate_stream.end());
    putBe32(out, util::adler32(original));
    return out;
}

ZlibUnwrapResult
zlibUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
           size_t max_output, std::span<const uint8_t> dict)
{
    ZlibUnwrapResult res;
    if (stream.size() < 6) {
        res.error = "stream too short";
        return res;
    }
    uint8_t cmf = stream[0];
    uint8_t flg = stream[1];
    if ((cmf & 0x0f) != 8) {
        res.error = "unsupported method";
        return res;
    }
    if ((nx::checked_cast<unsigned>(cmf) * 256 + flg) % 31 != 0) {
        res.error = "FCHECK failed";
        return res;
    }
    const bool fdict = (flg & 0x20) != 0;
    size_t payload = 2;
    if (fdict) {
        if (stream.size() < 10) {
            res.error = "truncated DICTID";
            return res;
        }
        if (dict.empty()) {
            res.error = "dictionary required";
            return res;
        }
        if (readBe32(stream, 2) != util::adler32(dict)) {
            res.error = "DICTID mismatch";
            return res;
        }
        payload = 6;
    }

    res.inflate = inflateDecompressWithDict(
        stream.subspan(payload, stream.size() - payload - 4),
        fdict ? dict : std::span<const uint8_t>{}, max_output);
    if (!res.inflate.ok()) {
        res.error = std::string("inflate: ") +
            toString(res.inflate.status);
        return res;
    }
    size_t tpos = payload + res.inflate.consumedBytes;
    if (tpos + 4 > stream.size()) {
        res.error = "trailer overlaps payload";
        return res;
    }
    res.adler = readBe32(stream, tpos);
    if (res.adler != util::adler32(res.inflate.bytes)) {
        res.error = "Adler-32 mismatch";
        return res;
    }
    res.ok = true;
    return res;
}

} // namespace deflate
