/**
 * @file
 * Taint annotations for untrusted input — the vocabulary nxtaint reads.
 *
 * The accelerator modelled by this repo ingests adversarial compressed
 * streams; every value decoded from one (a length, a distance, a header
 * count) is attacker-controlled until a bounds check says otherwise.
 * `tools/nxtaint` tracks those values from their sources (BitReader
 * reads, header bytes, buffers marked here) to memory sinks (copy
 * sizes, container growth, indexing, shift amounts, loop bounds) and
 * demands a dominating sanitizer in between.
 *
 * NXSIM_UNTRUSTED marks a parameter whose value — and, for buffers,
 * whose *contents* — arrive from outside the trust boundary:
 *
 *     GzipUnwrapResult gzipUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> file,
 *                                 size_t max_output);
 *
 * The macro expands to nothing: it is an annotation for the analyzer
 * (and the reader), not the compiler. Values loaded from an annotated
 * buffer, or the annotated scalar itself, start tainted inside the
 * function body; comparisons against capacities, checked_cast /
 * truncate_cast, NXSIM_EXPECT-family contracts, and bit-masking with a
 * constant clear the taint. See DESIGN.md "Static analysis stack" for
 * the full source/sink/sanitizer table and the suppression grammar
 * (`// nxtaint: allow(rule): why`).
 */

#ifndef NXSIM_UTIL_TAINT_H
#define NXSIM_UTIL_TAINT_H

#define NXSIM_UNTRUSTED /* annotation consumed by tools/nxtaint */

#endif // NXSIM_UTIL_TAINT_H
