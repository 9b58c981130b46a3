#include "deflate/deflate_stream.h"

#include <algorithm>
#include "util/contracts.h"
#include "util/checked.h"

namespace deflate {

namespace {

constexpr size_t kWindow = static_cast<size_t>(kWindowSize);
constexpr size_t kMaxStored = 65535;    ///< a stored block's LEN limit

} // namespace

DeflateStream::DeflateStream(const DeflateOptions &opts)
    : opts_(opts), store_(levelParams(opts.level).store),
      matcher_(levelParams(opts.level))
{
    NXSIM_EXPECT(opts.blockBytes > 0, "blockBytes must be positive");
}

void
DeflateStream::setDictionary(std::span<const uint8_t> dict)
{
    NXSIM_EXPECT(totalIn_ == 0 && !finished_,
                 "setDictionary after writing");
    if (dict.size() > kWindow)
        dict = dict.subspan(dict.size() - kWindow);
    buf_.assign(dict.begin(), dict.end());
    pendingAt_ = buf_.size();
}

void
DeflateStream::write(std::span<const uint8_t> data, Flush flush,
                     std::vector<uint8_t> &out)
{
    NXSIM_EXPECT(!finished_, "write after Finish");
    buf_.insert(buf_.end(), data.begin(), data.end());
    totalIn_ += data.size();

    // Full blocks go out as they accumulate; the last one is held
    // back, so a Finish on a whole number of blocks ends on a full one.
    while (buf_.size() - pendingAt_ > opts_.blockBytes)
        writeBlock(opts_.blockBytes, false);

    size_t rest = buf_.size() - pendingAt_;
    if (flush == Flush::Finish) {
        writeBlock(rest, true);
        finished_ = true;
    } else if (flush == Flush::Sync) {
        if (rest > 0)
            writeBlock(rest, false);
        // Z_SYNC_FLUSH marker: an empty non-final stored block, which
        // also byte-aligns the stream (00 00 FF FF after the header).
        writeStored({}, false);
    }

    // Trim the history to one window once it passes two, so the
    // front erase is amortised over at least a window of input.
    if (pendingAt_ > 2 * kWindow) {
        size_t drop = pendingAt_ - kWindow;
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(drop));
        pendingAt_ = kWindow;
    }

    auto bytes = finished_ ? bw_.take() : bw_.drain();
    totalOut_ += bytes.size();
    out.insert(out.end(), bytes.begin(), bytes.end());
}

void
DeflateStream::writeBlock(size_t n, bool final)
{
    size_t hist = std::min(pendingAt_, kWindow);
    std::span<const uint8_t> span(buf_.data() + pendingAt_ - hist, hist + n);
    std::span<const uint8_t> block = span.subspan(hist);
    pendingAt_ += n;
    if (store_) {
        writeStored(block, final);
        return;
    }

    auto tokens = matcher_.tokenize(span, hist);
    stats_.tokenCount += tokens.size();
    stats_.chainSteps += matcher_.chainSteps();

    SymbolFreqs freqs;
    freqs.accumulate(tokens);
    const HuffmanCode &fixedLitLen = HuffmanCode::fixedLitLen();
    const HuffmanCode &fixedDist = HuffmanCode::fixedDist();
    uint64_t fixed_cost = 3 + tokenCostBits(freqs, fixedLitLen, fixedDist);
    BlockCodes codes = buildDynamicCodes(freqs);
    util::BitWriter header;
    uint64_t dyn_cost = 3 + writeDynamicHeader(header, codes) +
        tokenCostBits(freqs, codes.litlen, codes.dist);
    // 5 framing bytes per stored piece, plus the worst-case alignment.
    uint64_t stored_cost = (n + 5 * (n / kMaxStored + 1)) * 8 + 8;

    if (stored_cost < dyn_cost && stored_cost < fixed_cost) {
        writeStored(block, final);
        return;
    }
    bw_.reserveBits(std::min(fixed_cost, dyn_cost));
    bw_.writeBits(final ? 1 : 0, 1);
    if (fixed_cost <= dyn_cost) {
        bw_.writeBits(nx::checked_cast<uint32_t>(BlockType::FixedHuffman), 2);
        emitTokens(bw_, tokens, fixedLitLen, fixedDist);
        ++stats_.fixedBlocks;
    } else {
        bw_.writeBits(nx::checked_cast<uint32_t>(BlockType::DynamicHuffman),
                      2);
        bw_.append(header);
        emitTokens(bw_, tokens, codes.litlen, codes.dist);
        ++stats_.dynamicBlocks;
    }
}

void
DeflateStream::writeStored(std::span<const uint8_t> data, bool final)
{
    do {
        size_t n = std::min(data.size(), kMaxStored);
        bw_.writeBits(final && n == data.size() ? 1 : 0, 1);
        bw_.writeBits(nx::checked_cast<uint32_t>(BlockType::Stored), 2);
        bw_.alignToByte();
        auto len = nx::checked_cast<uint16_t>(n);
        bw_.writeU16le(len);
        bw_.writeU16le(nx::truncate_cast<uint16_t>(~len));
        bw_.writeBytes(data.first(n));
        data = data.subspan(n);
        ++stats_.storedBlocks;
    } while (!data.empty());
}

} // namespace deflate
