/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected) as used by gzip (RFC 1952).
 *
 * The accelerator computes the CRC inline with the data pipe; software
 * folds eight bytes per step through eight 256-entry tables
 * (slice-by-8), with a byte-at-a-time loop for the tail. Both ends of
 * every round trip in this project check the CRC, which is what catches
 * functional bugs in the match pipeline or Huffman stages.
 */

#ifndef NXSIM_UTIL_CRC32_H
#define NXSIM_UTIL_CRC32_H

#include <cstdint>
#include <cstddef>
#include <span>

namespace util {

/** Incremental CRC-32 (gzip polynomial 0xEDB88320, reflected form). */
class Crc32
{
  public:
    Crc32() = default;

    /** Fold @p data into the running CRC. */
    void update(std::span<const uint8_t> data);

    /** Finalized CRC value over everything updated so far. */
    uint32_t value() const { return ~state_; }

    /** Reset to the empty-message state. */
    void reset() { state_ = 0xffffffffu; }

  private:
    uint32_t state_ = 0xffffffffu;
};

/** One-shot CRC-32 of @p data. */
uint32_t crc32(std::span<const uint8_t> data);

/**
 * CRC of a concatenation from the parts' CRCs: given crc(A), crc(B)
 * and len(B), returns crc(A||B) without touching the data (zlib's
 * crc32_combine). Lets parallel engines checksum independent chunks
 * and stitch the gzip trailer afterwards.
 */
uint32_t crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

} // namespace util

#endif // NXSIM_UTIL_CRC32_H
