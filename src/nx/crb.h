/**
 * @file
 * Coprocessor Request Block (CRB) and Coprocessor Status Block (CSB) —
 * the software/hardware job interface of the NX accelerators.
 *
 * A user thread builds a CRB describing the function (compress /
 * decompress, gzip/zlib/raw framing, fixed or dynamic Huffman), source
 * and target buffers as scatter/gather lists (DDEs), then issues it to
 * the accelerator with a "paste" to its VAS window. Completion is
 * signalled by the engine writing the CSB, including a condition code;
 * page faults surface as CC=translation-fault with the faulting address
 * and a count of bytes already processed, and software resubmits the
 * CRB for the remainder (see PageFaultModel).
 */

#ifndef NXSIM_NX_CRB_H
#define NXSIM_NX_CRB_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "deflate/framing.h"

namespace nx {

/** Accelerator function codes. */
enum class FuncCode : uint8_t
{
    CompressFht,     ///< compress, fixed Huffman tables
    CompressDht,     ///< compress, (sampled) dynamic Huffman tables
    Decompress,      ///< inflate any conforming stream
    Wrap,            ///< stored blocks only (memcpy-with-framing)
};

/** Stream framing selected in the CRB (deflate/framing.h). */
using deflate::Framing;

/** CSB condition codes (subset that matters for the model). */
enum class CondCode : uint8_t
{
    Success = 0,
    TranslationFault = 5,    ///< page fault at csb.faultAddress
    OutputOverflow = 13,     ///< target DDE exhausted
    BadCrb = 17,             ///< malformed request
    BadData = 21,            ///< invalid DEFLATE stream (decompress)
};

/** Human-readable condition code name. */
const char *toString(CondCode cc);

/** One data descriptor entry: a contiguous virtual range. */
struct Dde
{
    uint64_t address = 0;
    uint32_t length = 0;
};

/**
 * Scatter/gather list. The hardware supports direct (1 entry) and
 * indirect (list of entries) DDEs; the model keeps a flat vector.
 */
struct DdeList
{
    std::vector<Dde> entries;

    uint64_t totalBytes() const;

    /** Direct DDE covering one range. */
    static DdeList direct(uint64_t address, uint32_t length);
};

/** Coprocessor Request Block. */
struct Crb
{
    FuncCode func = FuncCode::CompressFht;
    Framing framing = Framing::Gzip;
    DdeList source;
    DdeList target;

    /**
     * Resume state for fault resubmission: bytes of source already
     * consumed by a prior partial execution.
     */
    uint64_t sourceOffset = 0;

    /** Sequence number assigned at paste time (debug/tracing). */
    uint64_t seq = 0;
};

/** Coprocessor Status Block, written by the engine at completion. */
struct Csb
{
    CondCode cc = CondCode::Success;
    bool valid = false;              ///< engine sets when CSB is written
    uint64_t processedBytes = 0;     ///< source bytes consumed
    uint64_t producedBytes = 0;      ///< target bytes written
    uint64_t faultAddress = 0;       ///< valid when cc == TranslationFault
    uint32_t checksum = 0;           ///< CRC-32 (gzip) or Adler-32 (zlib)
};

/** Validate a CRB the way the hardware's front-end decoder would. */
[[nodiscard]] CondCode validateCrb(const Crb &crb);

} // namespace nx

#endif // NXSIM_NX_CRB_H
