/**
 * @file
 * The DEFLATE (RFC 1951) decoder: a resumable inflater that accepts
 * compressed input in arbitrary chunks and produces output as soon as
 * it is decodable — the decode-side counterpart of DeflateStream, and
 * the software mirror of how the accelerator's decompressor consumes
 * its source DDE as the DMA engine streams it. The one-call
 * inflateDecompress() is a single feed with end of input set.
 *
 * Decoding pauses only between units: a block header (for a dynamic
 * block, its whole code-length header), a stored byte, or a
 * whole literal or match with its extra bits and distance. When a feed
 * ends inside a unit, the unit is decoded again from its first bit on
 * the next feed; only its unread bytes are kept. Each feed decodes
 * straight from the caller's span, and the 32 KiB history window is
 * updated once per feed.
 */

#ifndef NXSIM_DEFLATE_INFLATE_STREAM_H
#define NXSIM_DEFLATE_INFLATE_STREAM_H

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/huffman.h"
#include "deflate/inflate_decoder.h"
#include "util/protocol.h"
#include "util/taint.h"

namespace deflate {

/** Outcome of a feed() call. */
enum class StreamStatus
{
    NeedMoreInput,   ///< consumed everything decodable so far
    Done,            ///< final block fully decoded
    Error,           ///< malformed stream (see error())
};

/** Incremental inflater: feed() is the only mutator, callable any
 * number of times (it reports Done/Error through its return). */
NXSIM_PROTOCOL(InflateStream, feed*);
class InflateStream
{
  public:
    /**
     * @param dict preset dictionary: back-references may reach into
     *             its last 32 KiB before output starts (zlib FDICT)
     * @param max_output cap on decompressed bytes (OutputLimit beyond)
     */
    explicit InflateStream(std::span<const uint8_t> dict = {},
                           size_t max_output = size_t{1} << 30);

    /**
     * Feed more compressed bytes; decoded bytes are appended to
     * @p out. May be called with empty input to re-drive the machine.
     * With @p end_of_input (zlib's Z_FINISH) no more input follows: a
     * stream cut short is an Error with error() TruncatedInput rather
     * than NeedMoreInput.
     */
    [[nodiscard]] StreamStatus feed(
        NXSIM_UNTRUSTED std::span<const uint8_t> data,
        std::vector<uint8_t> &out, bool end_of_input = false);

    /** True once the final block has been consumed. */
    bool done() const { return phase_ == Phase::Done; }

    /** Error detail when feed() returned Error. */
    [[nodiscard]] InflateStatus error() const { return error_; }

    /** Total decompressed bytes produced. */
    uint64_t totalOut() const { return totalOut_; }

    /** Block and symbol counts; inputBits counts the bits consumed. */
    const InflateStats &stats() const { return stats_; }

    /**
     * Unconsumed input bits fed so far (diagnostics; after Done this
     * is the trailer/extra data the caller should reclaim).
     */
    size_t bufferedBits() const { return fedBytes_ * 8 - stats_.inputBits; }

  private:
    /** Where the next unit starts. */
    enum class Phase
    {
        Header,   ///< block header
        Stored,   ///< stored-block bytes
        Codes,    ///< Huffman-coded symbols
        Done,
        Error,
    };

    /**
     * Decode units until the final block ends (Ok), input runs out
     * (TruncatedInput) or the stream is malformed. @p mark is left at
     * the first bit not consumed: the start of a cut unit, or the end
     * of the stream.
     */
    [[nodiscard]] InflateStatus decode(util::BitReader &br,
                                       std::vector<uint8_t> &out,
                                       size_t out_start, uint64_t &mark);
    [[nodiscard]] InflateStatus readBlockHeader(util::BitReader &br,
                                                uint64_t produced);
    [[nodiscard]] InflateStatus decodeCodes(util::BitReader &br,
                                            std::vector<uint8_t> &out,
                                            size_t out_start,
                                            uint64_t &mark);
    void keepHistory(std::span<const uint8_t> produced);

    const size_t maxOutput_;
    Phase phase_ = Phase::Header;
    InflateStatus error_ = InflateStatus::Ok;
    bool lastBlock_ = false;
    bool fixedCodes_ = false;
    unsigned storedLeft_ = 0;
    HuffmanDecodeTable litlen_;
    HuffmanDecodeTable dist_;
    std::vector<uint8_t> window_;    ///< history before this feed
    std::vector<uint8_t> pending_;   ///< unread bytes of a cut unit
    unsigned skipBits_ = 0;          ///< bits of pending_[0] consumed
    uint64_t fedBytes_ = 0;
    uint64_t totalOut_ = 0;
    InflateStats stats_;
};

} // namespace deflate

#endif // NXSIM_DEFLATE_INFLATE_STREAM_H
