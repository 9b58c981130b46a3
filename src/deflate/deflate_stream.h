/**
 * @file
 * Streaming DEFLATE compressor — the z_stream-shaped API, and the one
 * DEFLATE encoder: every software compress, the one-call
 * deflateCompress() included, is a feed of this class.
 *
 * Accepts input in arbitrary chunks and emits a single conforming
 * DEFLATE stream. Matches may reference the previous 32 KiB across
 * chunk and block boundaries (window carry), exactly like zlib's
 * streaming deflate. Input is cut into blocks of blockBytes; each block
 * is stored, fixed or dynamic, whichever is smallest by exact bit cost
 * (level 0 stores every block). Three flush semantics:
 *
 *  - Flush::None    buffer until more than a full block accumulates;
 *  - Flush::Sync    end the current block and emit the empty-stored
 *                   sync marker (00 00 FF FF) so the receiver can
 *                   decode everything written so far (Z_SYNC_FLUSH);
 *  - Flush::Finish  end the stream: the pending input, at most one
 *                   block, becomes the final block.
 *
 * The accelerator analogue: each CRB is one request, but the CRB
 * carries window-continuation state between calls on z15 (and libnxz
 * emulates it on POWER9); this class is the software equivalent.
 */

#ifndef NXSIM_DEFLATE_DEFLATE_STREAM_H
#define NXSIM_DEFLATE_DEFLATE_STREAM_H

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/deflate_encoder.h"
#include "deflate/lz77.h"
#include "util/protocol.h"

namespace deflate {

/** Flush semantics for DeflateStream::write(). */
enum class Flush
{
    None,
    Sync,
    Finish,
};

/** Incremental DEFLATE compressor with 32 KiB window carry. */
NXSIM_PROTOCOL(DeflateStream,
               setDictionary? -> write* -> write[Finish]);
class DeflateStream
{
  public:
    explicit DeflateStream(const DeflateOptions &opts = {});

    /**
     * Prime the match window with a preset dictionary (zlib
     * deflateSetDictionary semantics). Must be called before the
     * first write(); only the last 32 KiB are retained.
     */
    void setDictionary(std::span<const uint8_t> dict);

    /**
     * Feed @p data; append any produced bytes to @p out. The data is
     * copied once, into the stream's buffer.
     *
     * After Flush::Finish no more input is accepted. Multiple Sync
     * flushes are permitted, including with no intervening input.
     */
    void write(std::span<const uint8_t> data, Flush flush,
               std::vector<uint8_t> &out);

    /** True once Finish has been processed. */
    bool finished() const { return finished_; }

    /** Total input bytes consumed so far. */
    uint64_t totalIn() const { return totalIn_; }

    /** Total output bytes produced so far. */
    uint64_t totalOut() const { return totalOut_; }

    /** Match work and block counts; Sync markers count as stored. */
    const DeflateStats &stats() const { return stats_; }

  private:
    /** Compress the next @p n pending bytes as one block. */
    void writeBlock(size_t n, bool final);

    /**
     * Write @p data as stored blocks of at most 65,535 bytes each;
     * empty data writes one empty block.
     */
    void writeStored(std::span<const uint8_t> data, bool final);

    const DeflateOptions opts_;
    const bool store_;               ///< level 0: stored blocks only
    Lz77Matcher matcher_;
    std::vector<uint8_t> buf_;       ///< [history | pending input]
    size_t pendingAt_ = 0;           ///< offset of pending input in buf_
    util::BitWriter bw_;
    bool finished_ = false;
    uint64_t totalIn_ = 0;
    uint64_t totalOut_ = 0;
    DeflateStats stats_;
};

} // namespace deflate

#endif // NXSIM_DEFLATE_DEFLATE_STREAM_H
