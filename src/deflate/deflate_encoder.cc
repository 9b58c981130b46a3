#include "deflate/deflate_encoder.h"

#include <algorithm>
#include "deflate/deflate_stream.h"
#include "util/checked.h"

namespace deflate {

void
SymbolFreqs::accumulate(std::span<const Token> tokens)
{
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            ++litlen[static_cast<size_t>(t.literal)];
        } else {
            ++litlen[static_cast<size_t>(lengthToCode(t.length))];
            ++dist[static_cast<size_t>(distToCode(t.dist))];
        }
    }
    ++litlen[kEob];
}

BlockCodes
buildDynamicCodes(const SymbolFreqs &freqs)
{
    BlockCodes bc;
    bc.litlenLengths = buildCodeLengths(freqs.litlen, kMaxBits);
    bc.distLengths = buildCodeLengths(freqs.dist, kMaxBits);
    // RFC 1951: HDIST >= 1, i.e. at least one distance code is described.
    // If the block has no matches, describe a 1-length code for dist 0.
    bool any_dist = std::any_of(bc.distLengths.begin(),
                                bc.distLengths.end(),
                                [](uint8_t l) { return l != 0; });
    if (!any_dist)
        bc.distLengths[0] = 1;
    bc.litlen = HuffmanCode(bc.litlenLengths);
    bc.dist = HuffmanCode(bc.distLengths);
    return bc;
}

namespace {

/** One RLE-coded code-length symbol (16/17/18 carry extra bits). */
struct ClSym
{
    uint8_t sym;
    uint8_t extra;
    uint8_t extraBits;
};

/** RLE-encode code lengths per RFC 1951 3.2.7. */
std::vector<ClSym>
rleCodeLengths(std::span<const uint8_t> lengths)
{
    std::vector<ClSym> out;
    size_t i = 0;
    while (i < lengths.size()) {
        uint8_t v = lengths[i];
        size_t run = 1;
        while (i + run < lengths.size() && lengths[i + run] == v)
            ++run;
        if (v == 0) {
            size_t left = run;
            while (left >= 11) {
                size_t n = std::min<size_t>(left, 138);
                out.push_back({18, nx::checked_cast<uint8_t>(n - 11), 7});
                left -= n;
            }
            while (left >= 3) {
                size_t n = std::min<size_t>(left, 10);
                out.push_back({17, nx::checked_cast<uint8_t>(n - 3), 3});
                left -= n;
            }
            while (left > 0) {
                out.push_back({0, 0, 0});
                --left;
            }
        } else {
            out.push_back({v, 0, 0});
            size_t left = run - 1;
            while (left >= 3) {
                size_t n = std::min<size_t>(left, 6);
                out.push_back({16, nx::checked_cast<uint8_t>(n - 3), 2});
                left -= n;
            }
            while (left > 0) {
                out.push_back({v, 0, 0});
                --left;
            }
        }
        i += run;
    }
    return out;
}

/** Trailing-zero-trimmed length count with a floor. */
size_t
trimmedCount(std::span<const uint8_t> lengths, size_t min_count)
{
    size_t n = lengths.size();
    while (n > min_count && lengths[n - 1] == 0)
        --n;
    return n;
}

} // namespace

uint64_t
writeDynamicHeader(util::BitWriter &bw, const BlockCodes &codes)
{
    uint64_t start = bw.bitsWritten();

    size_t hlit = trimmedCount(codes.litlenLengths, 257);
    size_t hdist = trimmedCount(codes.distLengths, 1);

    // Concatenate the two trimmed length arrays and RLE-encode them.
    std::vector<uint8_t> all(codes.litlenLengths.begin(),
                             codes.litlenLengths.begin() +
                                 static_cast<long>(hlit));
    all.insert(all.end(), codes.distLengths.begin(),
               codes.distLengths.begin() + static_cast<long>(hdist));
    auto rle = rleCodeLengths(all);

    // Code-length-code from RLE symbol frequencies.
    std::vector<uint64_t> clFreq(kNumClc, 0);
    for (const ClSym &c : rle)
        ++clFreq[c.sym];
    auto clLengths = buildCodeLengths(clFreq, kMaxClcBits);
    // Degenerate single-symbol case already gets length 1; ensure at
    // least one coded symbol exists (rle is never empty here).
    HuffmanCode clCode(clLengths);

    size_t hclen = kNumClc;
    while (hclen > 4 && clLengths[kClcOrder[hclen - 1]] == 0)
        --hclen;

    bw.writeBits(nx::checked_cast<uint32_t>(hlit - 257), 5);
    bw.writeBits(nx::checked_cast<uint32_t>(hdist - 1), 5);
    bw.writeBits(nx::checked_cast<uint32_t>(hclen - 4), 4);
    for (size_t i = 0; i < hclen; ++i)
        bw.writeBits(clLengths[kClcOrder[i]], 3);
    for (const ClSym &c : rle) {
        clCode.writeSymbol(bw, c.sym);
        if (c.extraBits > 0)
            bw.writeBits(c.extra, c.extraBits);
    }
    return bw.bitsWritten() - start;
}

uint64_t
emitTokens(util::BitWriter &bw, std::span<const Token> tokens,
           const HuffmanCode &litlen, const HuffmanCode &dist)
{
    uint64_t start = bw.bitsWritten();
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            litlen.writeSymbol(bw, t.literal);
            continue;
        }
        int lc = lengthToCode(t.length);
        litlen.writeSymbol(bw, lc);
        auto li = static_cast<size_t>(lc - 257);
        unsigned lextra = kLengthExtra[li];
        if (lextra > 0)
            bw.writeBits(nx::checked_cast<uint32_t>(
                             t.length - kLengthBase[li]),
                         lextra);
        int dc = distToCode(t.dist);
        dist.writeSymbol(bw, dc);
        auto di = static_cast<size_t>(dc);
        unsigned dextra = kDistExtra[di];
        if (dextra > 0)
            bw.writeBits(nx::checked_cast<uint32_t>(t.dist - kDistBase[di]),
                         dextra);
    }
    litlen.writeSymbol(bw, kEob);
    return bw.bitsWritten() - start;
}

uint64_t
tokenCostBits(const SymbolFreqs &freqs, const HuffmanCode &litlen,
              const HuffmanCode &dist)
{
    uint64_t bits = litlen.costBits(freqs.litlen) +
        dist.costBits(freqs.dist);
    // Extra bits for length and distance codes.
    for (size_t c = 257; c < kNumLitLen; ++c)
        bits += freqs.litlen[c] * kLengthExtra[c - 257];
    for (size_t c = 0; c < kNumDist; ++c)
        bits += freqs.dist[c] * kDistExtra[c];
    return bits;
}

DeflateResult
deflateCompress(std::span<const uint8_t> input, const DeflateOptions &opts)
{
    return deflateCompressWithDict(input, {}, opts);
}

DeflateResult
deflateCompressWithDict(std::span<const uint8_t> input,
                        std::span<const uint8_t> dict,
                        const DeflateOptions &opts)
{
    DeflateResult res;
    DeflateStream ds(opts);
    ds.setDictionary(dict);
    ds.write(input, Flush::Finish, res.bytes);
    res.stats = ds.stats();
    return res;
}

} // namespace deflate
