#include "deflate/inflate_decoder.h"

#include "deflate/inflate_stream.h"
#include "util/taint.h"

namespace deflate {

const char *
toString(InflateStatus s)
{
    switch (s) {
      case InflateStatus::Ok: return "Ok";
      case InflateStatus::TruncatedInput: return "TruncatedInput";
      case InflateStatus::BadBlockType: return "BadBlockType";
      case InflateStatus::BadStoredLength: return "BadStoredLength";
      case InflateStatus::BadCodeLengths: return "BadCodeLengths";
      case InflateStatus::BadSymbol: return "BadSymbol";
      case InflateStatus::BadDistance: return "BadDistance";
      case InflateStatus::OutputLimit: return "OutputLimit";
    }
    return "Unknown";
}

InflateResult
inflateDecompress(NXSIM_UNTRUSTED std::span<const uint8_t> input,
                  size_t max_output)
{
    return inflateDecompressWithDict(input, {}, max_output);
}

InflateResult
inflateDecompressWithDict(NXSIM_UNTRUSTED std::span<const uint8_t> input,
                          std::span<const uint8_t> dict,
                          size_t max_output)
{
    InflateResult res;
    InflateStream is(dict, max_output);
    if (is.feed(input, res.bytes, true) != StreamStatus::Done)
        res.status = is.error();
    res.stats = is.stats();
    res.consumedBytes = (res.stats.inputBits + 7) / 8;
    return res;
}

} // namespace deflate
