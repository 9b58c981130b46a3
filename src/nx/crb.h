/**
 * @file
 * Coprocessor Request Block (CRB) and Coprocessor Status Block (CSB) —
 * the software/hardware job interface of the NX accelerators.
 *
 * A user thread builds a CRB describing the function (compress /
 * decompress, gzip/zlib/raw framing, fixed or dynamic Huffman), source
 * and target buffers as scatter/gather lists (DDEs), then issues it to
 * the accelerator with a "paste" to its VAS window. Completion is
 * signalled by the engine writing the CSB, including a condition code.
 * Every compress CRB comes from compressCrb(). A job that faults is
 * resubmitted whole; PageFaultModel (E10) models the hardware's
 * resume-from-remainder protocol analytically.
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
    TranslationFault = 5,    ///< page fault; software resubmits
    OutputOverflow = 13,     ///< target DDE exhausted
    BadCrb = 17,             ///< malformed request
    BadData = 21,            ///< invalid stream (decompress)
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

    /** Sequence number assigned at paste time (debug/tracing). */
    uint64_t seq = 0;
};

/** Coprocessor Status Block, written by the engine at completion. */
struct Csb
{
    CondCode cc = CondCode::Success;
    uint64_t processedBytes = 0;     ///< source bytes consumed
    uint64_t producedBytes = 0;      ///< target bytes written
    uint32_t checksum = 0;           ///< CRC-32 (gzip) or Adler-32 (zlib)
};

/** Validate a CRB the way the hardware's front-end decoder would. */
[[nodiscard]] CondCode validateCrb(const Crb &crb);

/**
 * The one compress CRB builder. The target DDE holds FHT's worst case:
 * 9-bit literals grow incompressible data by up to 12.5 % plus framing,
 * and the engine has no stored-block fallback.
 */
[[nodiscard]] Crb compressCrb(FuncCode func, Framing framing,
                              uint64_t source_bytes, uint64_t seq = 0);

} // namespace nx

#endif // NXSIM_NX_CRB_H
