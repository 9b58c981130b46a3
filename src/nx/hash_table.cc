#include "nx/hash_table.h"

#include <algorithm>
#include "util/checked.h"
#include "util/contracts.h"

namespace nx {

BankedHashTable::BankedHashTable(const HashConfig &cfg) : cfg_(cfg)
{
    NXSIM_EXPECT(cfg_.indexBits >= 1 && cfg_.indexBits <= 24,
                 "indexBits must be in [1, 24]");
    NXSIM_EXPECT(cfg_.ways >= 1 && cfg_.ways <= 255,
                 "ways must be in [1, 255]");
    NXSIM_EXPECT(cfg_.banks >= 1 && (cfg_.banks & (cfg_.banks - 1)) == 0,
                 "banks must be a power of two");
    NXSIM_EXPECT(cfg_.minMatch >= 3 && cfg_.minMatch <= 258,
                 "minMatch must be in [3, 258]");
    size_t sets = size_t{1} << cfg_.indexBits;
    entries_.assign(sets * static_cast<size_t>(cfg_.ways), 0);
    state_.assign(sets, SetState{});
}

void
BankedHashTable::clear()
{
    std::fill(state_.begin(), state_.end(), SetState{});
}

uint64_t
BankedHashTable::sramBits() const
{
    uint64_t sets = uint64_t{1} << cfg_.indexBits;
    // Each entry stores a 16-bit window-relative position plus a valid
    // bit; per-set FIFO pointer is log2(ways) bits.
    uint64_t entry_bits = 17;
    uint64_t ptr_bits = 1;
    while ((1u << ptr_bits) < nx::checked_cast<unsigned>(cfg_.ways))
        ++ptr_bits;
    return sets * (static_cast<uint64_t>(cfg_.ways) * entry_bits +
                   ptr_bits);
}

} // namespace nx
