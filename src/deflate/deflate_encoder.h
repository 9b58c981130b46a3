/**
 * @file
 * Raw DEFLATE (RFC 1951) encoder primitives and the one-call API.
 *
 * Pipeline: LZ77 tokenize -> per-block entropy decision (stored vs fixed
 * vs dynamic Huffman by exact bit cost, like zlib's _tr_flush_block) ->
 * canonical Huffman emission including the code-length-code header.
 * DeflateStream (deflate_stream.h) runs that pipeline for every stream;
 * deflateCompress() is a single Finish feed of it.
 *
 * The primitives below are also reused piecemeal by the accelerator
 * model: emitTokens() with caller-supplied codes is exactly what the
 * hardware Huffman stage performs.
 */

#ifndef NXSIM_DEFLATE_DEFLATE_ENCODER_H
#define NXSIM_DEFLATE_DEFLATE_ENCODER_H

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/huffman.h"
#include "deflate/lz77.h"
#include "util/bitstream.h"

namespace deflate {

/** Frequency histograms of a token stream over the two alphabets. */
struct SymbolFreqs
{
    std::vector<uint64_t> litlen = std::vector<uint64_t>(kNumLitLen, 0);
    std::vector<uint64_t> dist = std::vector<uint64_t>(kNumDist, 0);

    /** Count @p tokens plus one end-of-block symbol. */
    void accumulate(std::span<const Token> tokens);
};

/** A built pair of codes for one dynamic-Huffman block. */
struct BlockCodes
{
    HuffmanCode litlen;
    HuffmanCode dist;
    std::vector<uint8_t> litlenLengths;
    std::vector<uint8_t> distLengths;
};

/** Build optimal (two-pass) dynamic codes for a token stream. */
BlockCodes buildDynamicCodes(const SymbolFreqs &freqs);

/**
 * Emit the dynamic block header (HLIT/HDIST/HCLEN + code length codes +
 * RLE-coded lengths per RFC 1951 3.2.7).
 * @return bits written
 */
uint64_t writeDynamicHeader(util::BitWriter &bw, const BlockCodes &codes);

/**
 * Emit tokens + EOB using the given codes. Does not write the 3-bit block
 * header.
 * @return bits written
 */
uint64_t emitTokens(util::BitWriter &bw, std::span<const Token> tokens,
                    const HuffmanCode &litlen, const HuffmanCode &dist);

/** Exact bit cost of emitting tokens+EOB under the given codes. */
uint64_t tokenCostBits(const SymbolFreqs &freqs, const HuffmanCode &litlen,
                       const HuffmanCode &dist);

/** Encoder options. */
struct DeflateOptions
{
    int level = 6;              ///< zlib-style level 0..9
    size_t blockBytes = 1u << 18;  ///< input bytes per DEFLATE block
};

/** Encoder work and block counts (inputs to the timing model). */
struct DeflateStats
{
    uint64_t tokenCount = 0;
    uint64_t chainSteps = 0;         ///< LZ77 work metric
    uint64_t storedBlocks = 0;
    uint64_t fixedBlocks = 0;
    uint64_t dynamicBlocks = 0;
};

/** Result of a one-call compress. */
struct DeflateResult
{
    std::vector<uint8_t> bytes;      ///< raw DEFLATE stream
    DeflateStats stats;
};

/** Compress @p input into a raw DEFLATE stream. */
[[nodiscard]] DeflateResult deflateCompress(std::span<const uint8_t> input,
                              const DeflateOptions &opts = {});

/**
 * Compress @p input with a preset dictionary: matches may reference
 * @p dict (its last 32 KiB) as if it immediately preceded the input —
 * zlib's deflateSetDictionary semantics. The decoder must be given
 * the same dictionary (inflateDecompressWithDict / zlib FDICT).
 */
[[nodiscard]] DeflateResult deflateCompressWithDict(std::span<const uint8_t> input,
                                      std::span<const uint8_t> dict,
                                      const DeflateOptions &opts = {});

} // namespace deflate

#endif // NXSIM_DEFLATE_DEFLATE_ENCODER_H
