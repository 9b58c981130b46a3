#include "e842/e842.h"

#include <array>
#include <cstring>
#include <unordered_map>

#include "util/bitstream.h"
#include "util/checked.h"
#include "util/taint.h"

namespace e842 {

namespace {

// Opcode space (5 bits).
constexpr uint32_t kOpD8 = 0;
constexpr uint32_t kOpI8 = 1;
constexpr uint32_t kOp44Base = 1;      // + mask(1..3) -> 2..4
constexpr uint32_t kOp422Base = 4;     // + mask(1..7) -> 5..11
constexpr uint32_t kOp2222Base = 11;   // + mask(1..15) -> 12..26
constexpr uint32_t kOpZeros = 27;
constexpr uint32_t kOpRepeat = 28;
constexpr uint32_t kOpShortData = 29;
constexpr uint32_t kOpEnd = 30;

constexpr unsigned kI2Bits = 8;
constexpr unsigned kI4Bits = 9;
constexpr unsigned kI8Bits = 8;
constexpr size_t kRing2 = 1u << kI2Bits;
constexpr size_t kRing4 = 1u << kI4Bits;
constexpr size_t kRing8 = 1u << kI8Bits;
constexpr unsigned kRepeatBits = 6;
constexpr unsigned kMaxRepeat = 1u << kRepeatBits;

uint16_t
get16(const uint8_t *p)
{
    return nx::checked_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
get32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

uint64_t
get64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/**
 * The shared dictionary state: ring buffers per granule size, updated
 * identically by encoder and decoder for every reconstructed chunk.
 */
struct Rings
{
    std::array<uint16_t, kRing2> r2{};
    std::array<uint32_t, kRing4> r4{};
    std::array<uint64_t, kRing8> r8{};
    uint64_t c2 = 0;
    uint64_t c4 = 0;
    uint64_t c8 = 0;

    void
    addChunk(const uint8_t *p)
    {
        for (int i = 0; i < 4; ++i)
            r2[(c2 + static_cast<uint64_t>(i)) % kRing2] =
                get16(p + 2 * i);
        c2 += 4;
        r4[c4 % kRing4] = get32(p);
        r4[(c4 + 1) % kRing4] = get32(p + 4);
        c4 += 2;
        r8[c8 % kRing8] = get64(p);
        ++c8;
    }
};

/** Encoder-side value -> most-recent-slot maps. */
struct Lookup
{
    std::unordered_map<uint16_t, uint16_t> m2;
    std::unordered_map<uint32_t, uint16_t> m4;
    std::unordered_map<uint64_t, uint16_t> m8;

    void
    addChunk(const uint8_t *p, const Rings &r)
    {
        // Slots just written by Rings::addChunk.
        for (int i = 0; i < 4; ++i) {
            uint64_t slot = (r.c2 - 4 + static_cast<uint64_t>(i)) %
                kRing2;
            m2[get16(p + 2 * i)] = nx::checked_cast<uint16_t>(slot);
        }
        m4[get32(p)] = nx::checked_cast<uint16_t>((r.c4 - 2) % kRing4);
        m4[get32(p + 4)] = nx::checked_cast<uint16_t>((r.c4 - 1) % kRing4);
        m8[get64(p)] = nx::checked_cast<uint16_t>((r.c8 - 1) % kRing8);
    }

    /** Find a live slot holding @p v (ring content is authoritative). */
    template <typename Map, typename Ring, typename V>
    static int
    find(const Map &map, const Ring &ring, V v)
    {
        auto it = map.find(v);
        if (it == map.end())
            return -1;
        if (ring[it->second] != v)
            return -1;    // slot was overwritten since
        return it->second;
    }
};

} // namespace

E842Result
compress(std::span<const uint8_t> input)
{
    E842Result res;
    util::BitWriter bw;
    Rings rings;
    Lookup lut;

    size_t pos = 0;
    const size_t n = input.size();
    uint64_t prev_chunk = 0;
    bool have_prev = false;

    while (pos + 8 <= n) {
        const uint8_t *p = input.data() + pos;
        uint64_t v8 = get64(p);

        // REPEAT run of the previous chunk.
        if (have_prev && v8 == prev_chunk) {
            unsigned count = 0;
            while (pos + 8 <= n && get64(input.data() + pos) ==
                   prev_chunk && count < kMaxRepeat) {
                ++count;
                pos += 8;
            }
            bw.writeBits(kOpRepeat, 5);
            bw.writeBits(count - 1, kRepeatBits);
            ++res.stats.repeatOps;
            res.stats.chunks += count;
            for (unsigned i = 0; i < count; ++i) {
                const uint8_t *cp = input.data() + pos - 8;
                rings.addChunk(cp);
                lut.addChunk(cp, rings);
            }
            continue;
        }

        if (v8 == 0) {
            bw.writeBits(kOpZeros, 5);
            ++res.stats.zeroOps;
            ++res.stats.chunks;
            rings.addChunk(p);
            lut.addChunk(p, rings);
            prev_chunk = v8;
            have_prev = true;
            pos += 8;
            continue;
        }

        // Candidate costs. Pieces: i8; (4,4); (4,2,2); (2,2,2,2).
        int i8 = Lookup::find(lut.m8, rings.r8, v8);
        int i4a = Lookup::find(lut.m4, rings.r4, get32(p));
        int i4b = Lookup::find(lut.m4, rings.r4, get32(p + 4));
        int i2[4];
        for (int k = 0; k < 4; ++k)
            i2[k] = Lookup::find(lut.m2, rings.r2, get16(p + 2 * k));

        unsigned best_cost = 5 + 64;    // D8
        enum class Kind { D8, I8, T44, T422, T2222 } kind = Kind::D8;
        unsigned mask = 0;

        if (i8 >= 0 && 5 + kI8Bits < best_cost) {
            best_cost = 5 + kI8Bits;
            kind = Kind::I8;
        }
        {
            unsigned m = (i4a >= 0 ? 2u : 0u) | (i4b >= 0 ? 1u : 0u);
            if (m != 0) {
                unsigned cost = 5 + (i4a >= 0 ? kI4Bits : 32) +
                    (i4b >= 0 ? kI4Bits : 32);
                if (cost < best_cost) {
                    best_cost = cost;
                    kind = Kind::T44;
                    mask = m;
                }
            }
        }
        {
            unsigned m = (i4a >= 0 ? 4u : 0u) |
                (i2[2] >= 0 ? 2u : 0u) | (i2[3] >= 0 ? 1u : 0u);
            if (m != 0) {
                unsigned cost = 5 + (i4a >= 0 ? kI4Bits : 32) +
                    (i2[2] >= 0 ? kI2Bits : 16) +
                    (i2[3] >= 0 ? kI2Bits : 16);
                if (cost < best_cost) {
                    best_cost = cost;
                    kind = Kind::T422;
                    mask = m;
                }
            }
        }
        {
            unsigned m = 0;
            unsigned cost = 5;
            for (int k = 0; k < 4; ++k) {
                m = (m << 1) | (i2[k] >= 0 ? 1u : 0u);
                cost += i2[k] >= 0 ? kI2Bits : 16;
            }
            if (m != 0 && cost < best_cost) {
                best_cost = cost;
                kind = Kind::T2222;
                mask = m;
            }
        }

        switch (kind) {
          case Kind::D8:
            bw.writeBits(kOpD8, 5);
            bw.writeBits(get32(p), 32);
            bw.writeBits(get32(p + 4), 32);
            res.stats.literalBits += 64;
            break;
          case Kind::I8:
            bw.writeBits(kOpI8, 5);
            bw.writeBits(nx::checked_cast<uint32_t>(i8), kI8Bits);
            res.stats.indexBits += kI8Bits;
            break;
          case Kind::T44:
            bw.writeBits(kOp44Base + mask, 5);
            if (mask & 2) {
                bw.writeBits(nx::checked_cast<uint32_t>(i4a), kI4Bits);
                res.stats.indexBits += kI4Bits;
            } else {
                bw.writeBits(get32(p), 32);
                res.stats.literalBits += 32;
            }
            if (mask & 1) {
                bw.writeBits(nx::checked_cast<uint32_t>(i4b), kI4Bits);
                res.stats.indexBits += kI4Bits;
            } else {
                bw.writeBits(get32(p + 4), 32);
                res.stats.literalBits += 32;
            }
            break;
          case Kind::T422:
            bw.writeBits(kOp422Base + mask, 5);
            if (mask & 4) {
                bw.writeBits(nx::checked_cast<uint32_t>(i4a), kI4Bits);
                res.stats.indexBits += kI4Bits;
            } else {
                bw.writeBits(get32(p), 32);
                res.stats.literalBits += 32;
            }
            for (int k = 2; k < 4; ++k) {
                bool idx = (mask >> (3 - k)) & 1;
                if (idx) {
                    bw.writeBits(nx::checked_cast<uint32_t>(i2[k]),
                                 kI2Bits);
                    res.stats.indexBits += kI2Bits;
                } else {
                    bw.writeBits(get16(p + 2 * k), 16);
                    res.stats.literalBits += 16;
                }
            }
            break;
          case Kind::T2222:
            bw.writeBits(kOp2222Base + mask, 5);
            for (int k = 0; k < 4; ++k) {
                bool idx = (mask >> (3 - k)) & 1;
                if (idx) {
                    bw.writeBits(nx::checked_cast<uint32_t>(i2[k]),
                                 kI2Bits);
                    res.stats.indexBits += kI2Bits;
                } else {
                    bw.writeBits(get16(p + 2 * k), 16);
                    res.stats.literalBits += 16;
                }
            }
            break;
        }

        ++res.stats.chunks;
        rings.addChunk(p);
        lut.addChunk(p, rings);
        prev_chunk = v8;
        have_prev = true;
        pos += 8;
    }

    if (pos < n) {
        auto count = nx::checked_cast<uint32_t>(n - pos);
        bw.writeBits(kOpShortData, 5);
        bw.writeBits(count, 3);
        for (size_t i = pos; i < n; ++i)
            bw.writeBits(input[i], 8);
        ++res.stats.shortDataOps;
    }
    bw.writeBits(kOpEnd, 5);
    res.bytes = bw.take();
    return res;
}

E842DecompressResult
decompress(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
           size_t max_output)
{
    E842DecompressResult res;
    util::BitReader br(stream);
    Rings rings;

    uint8_t chunk[8];
    uint8_t prev_chunk[8] = {};
    bool have_prev = false;

    auto emitChunk = [&]() {
        res.bytes.insert(res.bytes.end(), chunk, chunk + 8);
        rings.addChunk(chunk);
        std::memcpy(prev_chunk, chunk, 8);
        have_prev = true;
    };

    while (true) {
        uint32_t op = br.readBits(5);
        if (br.overrun()) {
            res.status = DecodeStatus::Corrupt;
            return res;
        }
        if (res.bytes.size() + 8 > max_output && op != kOpEnd &&
            op != kOpShortData) {
            res.status = DecodeStatus::OutputLimit;
            return res;
        }

        if (op == kOpEnd)
            break;

        if (op == kOpZeros) {
            std::memset(chunk, 0, 8);
            emitChunk();
            continue;
        }
        if (op == kOpRepeat) {
            if (!have_prev) {
                res.status = DecodeStatus::Corrupt;
                return res;
            }
            uint32_t count = br.readBits(kRepeatBits) + 1;
            if (br.overrun()) {
                res.status = DecodeStatus::Corrupt;
                return res;
            }
            if (res.bytes.size() + 8ull * count > max_output) {
                res.status = DecodeStatus::OutputLimit;
                return res;
            }
            for (uint32_t i = 0; i < count; ++i) {
                std::memcpy(chunk, prev_chunk, 8);
                emitChunk();
            }
            continue;
        }
        if (op == kOpShortData) {
            uint32_t count = br.readBits(3);
            if (count == 0) {
                res.status = DecodeStatus::Corrupt;
                return res;
            }
            if (res.bytes.size() + count > max_output) {
                res.status = DecodeStatus::OutputLimit;
                return res;
            }
            for (uint32_t i = 0; i < count; ++i)
                res.bytes.push_back(
                    nx::checked_cast<uint8_t>(br.readBits(8)));
            if (br.overrun()) {
                res.status = DecodeStatus::Corrupt;
                return res;
            }
            continue;
        }

        auto readD32 = [&](uint8_t *dst) {
            uint32_t v = br.readBits(32);
            std::memcpy(dst, &v, 4);
        };
        auto readD16 = [&](uint8_t *dst) {
            auto v = nx::checked_cast<uint16_t>(br.readBits(16));
            std::memcpy(dst, &v, 2);
        };
        bool bad_index = false;
        auto readI2 = [&](uint8_t *dst) {
            uint32_t idx = br.readBits(kI2Bits);
            if (rings.c2 <= idx && rings.c2 < kRing2)
                bad_index = true;
            uint16_t v = rings.r2[idx];
            std::memcpy(dst, &v, 2);
        };
        auto readI4 = [&](uint8_t *dst) {
            uint32_t idx = br.readBits(kI4Bits);
            if (rings.c4 <= idx && rings.c4 < kRing4)
                bad_index = true;
            uint32_t v = rings.r4[idx];
            std::memcpy(dst, &v, 4);
        };

        if (op == kOpD8) {
            readD32(chunk);
            readD32(chunk + 4);
        } else if (op == kOpI8) {
            uint32_t idx = br.readBits(kI8Bits);
            if (rings.c8 <= idx && rings.c8 < kRing8) {
                res.status = DecodeStatus::Corrupt;
                return res;
            }
            uint64_t v = rings.r8[idx];
            std::memcpy(chunk, &v, 8);
        } else if (op >= kOp44Base + 1 && op <= kOp44Base + 3) {
            unsigned mask = op - kOp44Base;
            if (mask & 2)
                readI4(chunk);
            else
                readD32(chunk);
            if (mask & 1)
                readI4(chunk + 4);
            else
                readD32(chunk + 4);
        } else if (op >= kOp422Base + 1 && op <= kOp422Base + 7) {
            unsigned mask = op - kOp422Base;
            if (mask & 4)
                readI4(chunk);
            else
                readD32(chunk);
            for (int k = 2; k < 4; ++k) {
                if ((mask >> (3 - k)) & 1)
                    readI2(chunk + 2 * k);
                else
                    readD16(chunk + 2 * k);
            }
        } else if (op >= kOp2222Base + 1 && op <= kOp2222Base + 15) {
            unsigned mask = op - kOp2222Base;
            for (int k = 0; k < 4; ++k) {
                if ((mask >> (3 - k)) & 1)
                    readI2(chunk + 2 * k);
                else
                    readD16(chunk + 2 * k);
            }
        } else {
            res.status = DecodeStatus::Corrupt;
            return res;
        }
        if (br.overrun()) {
            res.status = DecodeStatus::Corrupt;
            return res;
        }
        if (bad_index) {
            res.status = DecodeStatus::Corrupt;
            return res;
        }
        emitChunk();
    }

    res.ok = true;
    return res;
}

} // namespace e842
