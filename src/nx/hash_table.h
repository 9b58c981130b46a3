/**
 * @file
 * The match engine's candidate store: a set-associative, banked hash
 * table of recent window positions.
 *
 * This is where the hardware diverges from software zlib. Software keeps
 * unbounded hash *chains* and walks up to thousands of links per
 * position; hardware keeps a fixed number of ways per set (so lookup is
 * one SRAM access) and banks the table so several positions can be
 * looked up in the same cycle. The cost is match quality — the table
 * forgets all but the `ways` most recent positions per hash — which is
 * exactly the compression-ratio-for-throughput trade the paper
 * describes.
 */

#ifndef NXSIM_NX_HASH_TABLE_H
#define NXSIM_NX_HASH_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nx/nx_config.h"
#include "util/stats.h"
#include "util/checked.h"

namespace nx {

/** Banked, set-associative position store. */
class BankedHashTable
{
  public:
    /**
     * One set's filled ways, most recent first, read in place: way i
     * is the entry i steps behind the set's head, wrapping by one
     * compare instead of a divide.
     */
    class Ways
    {
      public:
        Ways(const uint32_t *base, size_t head, size_t fill, size_t ways)
            : base_(base), head_(head), fill_(fill), ways_(ways)
        {
        }

        size_t size() const { return fill_; }
        bool empty() const { return fill_ == 0; }

        uint32_t
        operator[](size_t i) const
        {
            size_t idx = head_ + ways_ - 1 - i;
            return base_[idx >= ways_ ? idx - ways_ : idx];
        }

      private:
        const uint32_t *base_;
        size_t head_;
        size_t fill_;
        size_t ways_;
    };

    /**
     * @pre 1 <= indexBits <= 24, 1 <= ways <= 255 (the per-set fill
     *      count is a byte), banks a power of two, 3 <= minMatch <= 258
     *      (hashAt reads three bytes; no DEFLATE match is longer)
     */
    explicit BankedHashTable(const HashConfig &cfg);

    /** Forget everything (engine reset between CRBs). */
    void clear();

    /** Hash of the @p minMatch-byte prefix at @p p. */
    uint32_t
    hashAt(const uint8_t *p) const
    {
        uint32_t v = nx::checked_cast<uint32_t>(p[0]) |
            (nx::checked_cast<uint32_t>(p[1]) << 8) |
            (nx::checked_cast<uint32_t>(p[2]) << 16);
        if (cfg_.minMatch >= 4)
            v ^= nx::checked_cast<uint32_t>(p[3]) << 20;
        return (v * 0x9e3779b1u) >> (32 - cfg_.indexBits);
    }

    /** Bank a set index maps to (low bits, as hardware would). */
    int
    bankOf(uint32_t set) const
    {
        return nx::checked_cast<int>(set & (nx::checked_cast<uint32_t>(
            cfg_.banks) - 1));
    }

    /**
     * The candidate positions stored in @p set, most recent first.
     * Entries may be stale (outside the window); the match comparators
     * filter those.
     */
    Ways
    lookup(uint32_t set) const
    {
        const SetState &s = state_[set];
        const auto ways = static_cast<size_t>(cfg_.ways);
        return {entries_.data() + static_cast<size_t>(set) * ways, s.head,
                s.fill, ways};
    }

    /** Insert @p pos into @p set, evicting the oldest way (FIFO). */
    void
    insert(uint32_t set, uint32_t pos)
    {
        SetState &s = state_[set];
        entries_[static_cast<size_t>(set) * static_cast<size_t>(cfg_.ways) +
                 s.head] = pos;
        if (++s.head == cfg_.ways)
            s.head = 0;
        if (s.fill < cfg_.ways)
            ++s.fill;
    }

    const HashConfig &config() const { return cfg_; }

    /** Total SRAM bits the table occupies (for the area model). */
    uint64_t sramBits() const;

  private:
    /** Next victim way and number of filled ways of one set. */
    struct SetState
    {
        uint8_t head = 0;
        uint8_t fill = 0;
    };

    HashConfig cfg_;
    std::vector<uint32_t> entries_;    // sets x ways positions
    std::vector<SetState> state_;
};

} // namespace nx

#endif // NXSIM_NX_HASH_TABLE_H
