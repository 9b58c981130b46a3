#include "deflate/inflate_stream.h"

#include <algorithm>
#include <cstring>

#include "deflate/constants.h"
#include "util/checked.h"
#include "util/taint.h"

namespace deflate {

namespace {

/** Decode the dynamic block header into litlen/dist decode tables. */
InflateStatus
readDynamicHeader(util::BitReader &br, HuffmanDecodeTable &litlen,
                  HuffmanDecodeTable &dist)
{
    unsigned hlit = br.readBits(5) + 257;
    unsigned hdist = br.readBits(5) + 1;
    unsigned hclen = br.readBits(4) + 4;
    if (br.overrun())
        return InflateStatus::TruncatedInput;
    if (hlit > 286 || hdist > 30)
        return InflateStatus::BadCodeLengths;

    std::vector<uint8_t> clLengths(kNumClc, 0);
    // nxtaint: allow(taint-loop-bound): hclen = readBits(4) + 4 is at
    // most 19 == kNumClc by field width, so i stays inside kClcOrder
    // and clLengths.
    for (unsigned i = 0; i < hclen; ++i)
        clLengths[kClcOrder[i]] = nx::checked_cast<uint8_t>(br.readBits(3));
    if (br.overrun())
        return InflateStatus::TruncatedInput;

    HuffmanDecodeTable clTable;
    if (!clTable.init(clLengths, kMaxClcBits))
        return InflateStatus::BadCodeLengths;

    std::vector<uint8_t> lengths;
    lengths.reserve(hlit + hdist);
    while (lengths.size() < hlit + hdist) {
        int sym = clTable.decode(br);
        if (sym < 0)
            return br.overrun() ? InflateStatus::TruncatedInput
                                : InflateStatus::BadCodeLengths;
        if (sym < 16) {
            lengths.push_back(nx::checked_cast<uint8_t>(sym));
            continue;
        }
        unsigned n = 0;
        uint8_t fill = 0;
        if (sym == 16) {
            if (lengths.empty())
                return InflateStatus::BadCodeLengths;
            n = 3 + br.readBits(2);
            fill = lengths.back();
        } else if (sym == 17) {
            n = 3 + br.readBits(3);
        } else {
            n = 11 + br.readBits(7);
        }
        if (br.overrun())
            return InflateStatus::TruncatedInput;
        // The run length is attacker-chosen (up to 138): reject a run
        // that overshoots the declared hlit+hdist before it grows the
        // array, as zlib does.
        if (lengths.size() + n > hlit + hdist)
            return InflateStatus::BadCodeLengths;
        lengths.insert(lengths.end(), n, fill);
    }

    std::span<const uint8_t> all(lengths);
    if (!litlen.init(all.first(hlit)))
        return InflateStatus::BadCodeLengths;
    // "One distance code of zero bits means that there are no distance
    // codes used at all" (RFC 1951 3.2.7). init() leaves a table that
    // rejects every code, so a length symbol is then BadSymbol.
    std::span<const uint8_t> distLengths = all.subspan(hlit);
    if (!dist.init(distLengths) &&
        std::ranges::any_of(distLengths, [](uint8_t l) { return l != 0; }))
        return InflateStatus::BadCodeLengths;
    return InflateStatus::Ok;
}

} // namespace

InflateStream::InflateStream(std::span<const uint8_t> dict,
                             size_t max_output)
    : maxOutput_(max_output)
{
    keepHistory(dict);
}

StreamStatus
InflateStream::feed(NXSIM_UNTRUSTED std::span<const uint8_t> data,
                    std::vector<uint8_t> &out, bool end_of_input)
{
    fedBytes_ += data.size();
    if (phase_ == Phase::Done)
        return StreamStatus::Done;
    if (phase_ == Phase::Error)
        return StreamStatus::Error;

    // A unit the last feed cut short is decoded again from its first
    // bit, with this feed's bytes behind it.
    const bool carried = !pending_.empty();
    if (carried)
        pending_.insert(pending_.end(), data.begin(), data.end());
    std::span<const uint8_t> in = carried ? pending_ : data;
    util::BitReader br(in);
    (void)br.readBits(skipBits_);

    const size_t outStart = out.size();
    uint64_t mark = 0;
    InflateStatus st = decode(br, out, outStart, mark);
    stats_.inputBits += mark - skipBits_;
    totalOut_ += out.size() - outStart;

    if (st == InflateStatus::TruncatedInput && !end_of_input) {
        auto from = static_cast<long>(mark / 8);
        if (carried)
            pending_.erase(pending_.begin(), pending_.begin() + from);
        else
            pending_.assign(in.begin() + from, in.end());
        skipBits_ = nx::checked_cast<unsigned>(mark % 8);
        keepHistory(std::span(out).subspan(outStart));
        return StreamStatus::NeedMoreInput;
    }
    pending_ = {};
    if (st != InflateStatus::Ok) {
        phase_ = Phase::Error;
        error_ = st;
        return StreamStatus::Error;
    }
    return StreamStatus::Done;
}

void
InflateStream::keepHistory(std::span<const uint8_t> produced)
{
    // The window holds up to twice the history and drops all but the
    // last 32 KiB only when it would overflow, so a feed costs its own
    // output, not the window size.
    constexpr auto kWindow = static_cast<size_t>(kWindowSize);
    if (produced.size() >= kWindow) {
        window_.assign(produced.end() - kWindow, produced.end());
        return;
    }
    if (window_.size() + produced.size() > 2 * kWindow)
        window_.erase(window_.begin(),
                      window_.end() -
                          static_cast<long>(kWindow - produced.size()));
    window_.insert(window_.end(), produced.begin(), produced.end());
}

InflateStatus
InflateStream::decode(util::BitReader &br, std::vector<uint8_t> &out,
                      size_t out_start, uint64_t &mark)
{
    while (true) {
        mark = br.bitsConsumed();
        InflateStatus st = InflateStatus::Ok;
        if (phase_ == Phase::Header) {
            st = readBlockHeader(br, totalOut_ + out.size() - out_start);
        } else if (phase_ == Phase::Stored) {
            auto n = nx::checked_cast<unsigned>(
                std::min<uint64_t>(storedLeft_, br.bitsLeft() / 8));
            size_t old = out.size();
            out.resize(old + n);
            (void)br.readBytes(out.data() + old, n);
            storedLeft_ -= n;
            mark = br.bitsConsumed();
            if (storedLeft_ != 0)
                return InflateStatus::TruncatedInput;
            phase_ = lastBlock_ ? Phase::Done : Phase::Header;
        } else {
            st = decodeCodes(br, out, out_start, mark);
        }
        if (st != InflateStatus::Ok)
            return st;
        if (phase_ == Phase::Done) {
            mark = br.bitsConsumed();
            return InflateStatus::Ok;
        }
    }
}

InflateStatus
InflateStream::readBlockHeader(util::BitReader &br, uint64_t produced)
{
    bool last = br.readBits(1) != 0;
    unsigned btype = br.readBits(2);
    if (br.overrun())
        return InflateStatus::TruncatedInput;
    if (btype == 0) {
        br.alignToByte();
        uint16_t len = br.readU16le();
        uint16_t nlen = br.readU16le();
        if (br.overrun())
            return InflateStatus::TruncatedInput;
        if ((len ^ nlen) != 0xffff)
            return InflateStatus::BadStoredLength;
        if (produced + len > maxOutput_)
            return InflateStatus::OutputLimit;
        storedLeft_ = len;
        ++stats_.storedBlocks;
        phase_ = Phase::Stored;
    } else if (btype == 1) {
        fixedCodes_ = true;
        ++stats_.fixedBlocks;
        phase_ = Phase::Codes;
    } else if (btype == 2) {
        InflateStatus st = readDynamicHeader(br, litlen_, dist_);
        if (st != InflateStatus::Ok)
            return st;
        fixedCodes_ = false;
        ++stats_.dynamicBlocks;
        phase_ = Phase::Codes;
    } else {
        return InflateStatus::BadBlockType;
    }
    lastBlock_ = last;
    return InflateStatus::Ok;
}

InflateStatus
InflateStream::decodeCodes(util::BitReader &br, std::vector<uint8_t> &out,
                           size_t out_start, uint64_t &mark)
{
    const HuffmanDecodeTable &lit =
        fixedCodes_ ? HuffmanDecodeTable::fixedLitLen() : litlen_;
    const HuffmanDecodeTable &dst =
        fixedCodes_ ? HuffmanDecodeTable::fixedDist() : dist_;
    // The loop works on a local reader and a raw cursor into out, which
    // the compiler can keep in registers. out is kept at least a whole
    // match plus the 8-byte tail of a chunked copy ahead of the cursor,
    // growing in small steps (resize zero-fills them), and is trimmed
    // to the cursor on the way out.
    constexpr size_t kSlack = kMaxMatch + 8;
    util::BitReader in = br;
    size_t n = out.size();
    uint8_t *base = out.data();
    size_t end = n;
    uint64_t room = maxOutput_ - totalOut_ - (n - out_start);
    const size_t history = window_.size();
    uint64_t unit = 0, literals = 0, matches = 0, matchedBytes = 0;
    InflateStatus st = InflateStatus::Ok;
    while (true) {
        if (end - n < kSlack) {
            out.resize(n + 4 * kSlack);
            base = out.data();
            end = out.size();
        }
        unit = in.bitsConsumed();
        int sym = lit.decode(in);
        if (sym < 0) {
            st = in.overrun() ? InflateStatus::TruncatedInput
                              : InflateStatus::BadSymbol;
            break;
        }
        if (sym < 256) {
            if (room == 0) {
                st = InflateStatus::OutputLimit;
                break;
            }
            --room;
            base[n++] = nx::checked_cast<uint8_t>(sym);
            ++literals;
            continue;
        }
        if (sym == kEob) {
            phase_ = lastBlock_ ? Phase::Done : Phase::Header;
            break;
        }
        if (sym > 285) {
            st = InflateStatus::BadSymbol;
            break;
        }
        auto li = static_cast<size_t>(sym - 257);
        unsigned length = kLengthBase[li] + in.readBits(kLengthExtra[li]);
        int dsym = dst.decode(in);
        if (dsym < 0 || dsym > 29) {
            st = in.overrun() ? InflateStatus::TruncatedInput
                              : InflateStatus::BadSymbol;
            break;
        }
        auto di = static_cast<size_t>(dsym);
        unsigned dist = kDistBase[di] + in.readBits(kDistExtra[di]);
        if (in.overrun()) {
            st = InflateStatus::TruncatedInput;
            break;
        }
        size_t fresh = n - out_start;
        if (dist > fresh + history || dist > kWindowSize) {
            st = InflateStatus::BadDistance;
            break;
        }
        if (length > room) {
            st = InflateStatus::OutputLimit;
            break;
        }
        room -= length;
        unsigned i = 0;
        if (dist > fresh) {
            // The match starts in the history of earlier feeds.
            size_t back = dist - fresh;
            for (; i < length && i < back; ++i)
                base[n + i] = window_[history - back + i];
        }
        size_t from = n + i - dist;
        if (dist >= 8) {
            for (; i < length; i += 8, from += 8)
                std::memcpy(base + n + i, base + from, 8);
        } else {
            for (; i < length; ++i)
                base[n + i] = base[from++];
        }
        n += length;
        ++matches;
        matchedBytes += length;
    }
    out.resize(n);
    br = in;
    mark = unit;
    stats_.literals += literals;
    stats_.matches += matches;
    stats_.matchedBytes += matchedBytes;
    return st;
}

} // namespace deflate
