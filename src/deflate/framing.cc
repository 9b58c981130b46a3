#include "deflate/framing.h"

#include "deflate/gzip_stream.h"
#include "deflate/zlib_stream.h"
#include "util/crc32.h"
#include "util/taint.h"

namespace deflate {

namespace {

/**
 * The checksum a wrap just wrote into its trailer, read back instead of
 * recomputed: 4 bytes from @p back bytes before the end of @p framed
 * (gzip: little-endian CRC-32 at 8, zlib: big-endian Adler-32 at 4).
 */
uint32_t
trailerChecksum(std::span<const uint8_t> framed, size_t back,
                bool big_endian)
{
    auto field = framed.subspan(framed.size() - back, 4);
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i)
        v = (v << 8) | field[big_endian ? i : 3 - i];
    return v;
}

} // namespace

WrapResult
wrap(Framing framing, std::vector<uint8_t> deflate_stream,
     std::span<const uint8_t> original, int level)
{
    WrapResult out;
    switch (framing) {
      case Framing::Raw:
        out.bytes = std::move(deflate_stream);
        out.checksum = util::crc32(original);
        break;
      case Framing::Gzip:
        out.bytes = gzipWrap(deflate_stream, original);
        out.checksum = trailerChecksum(out.bytes, 8, false);
        break;
      case Framing::Zlib:
        out.bytes = zlibWrap(deflate_stream, original, level);
        out.checksum = trailerChecksum(out.bytes, 4, true);
        break;
    }
    return out;
}

UnwrapResult
unwrap(Framing framing, NXSIM_UNTRUSTED std::span<const uint8_t> stream,
       size_t max_output)
{
    UnwrapResult out;
    switch (framing) {
      case Framing::Raw:
        out.inflate = inflateDecompress(stream, max_output);
        out.ok = out.inflate.ok();
        if (out.ok)
            out.checksum = util::crc32(out.inflate.bytes);
        break;
      case Framing::Gzip: {
        auto res = gzipUnwrap(stream, max_output);
        out = {res.ok, std::move(res.inflate), res.crc};
        break;
      }
      case Framing::Zlib: {
        auto res = zlibUnwrap(stream, max_output);
        out = {res.ok, std::move(res.inflate), res.adler};
        break;
      }
    }
    return out;
}

} // namespace deflate
