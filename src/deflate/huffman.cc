#include "deflate/huffman.h"

#include <algorithm>
#include "util/contracts.h"
#include <queue>
#include "util/checked.h"

namespace deflate {

namespace {

/** Code lengths of the fixed literal/length code (RFC 1951 3.2.6). */
constexpr std::array<uint8_t, 288> kFixedLitLenLengths = [] {
    std::array<uint8_t, 288> lengths{};
    for (size_t s = 0; s < lengths.size(); ++s)
        lengths[s] = s < 144 ? 8 : s < 256 ? 9 : s < 280 ? 7 : 8;
    return lengths;
}();

/**
 * The fixed distance code covers 32 symbols of 5 bits (30-31 never
 * appear in valid streams but are part of the code space).
 */
constexpr std::array<uint8_t, 32> kFixedDistLengths = [] {
    std::array<uint8_t, 32> lengths{};
    lengths.fill(5);
    return lengths;
}();

/** Internal tree node for the frequency heap. */
struct Node
{
    uint64_t freq;
    int symbol;       // >= 0 for leaves, -1 for internal
    int left = -1;    // indices into the node pool
    int right = -1;
};

/** Depth-assigning DFS over the built tree. */
void
assignDepths(const std::vector<Node> &pool, int idx, int depth,
             std::vector<uint8_t> &lengths)
{
    const Node &n = pool[static_cast<size_t>(idx)];
    if (n.symbol >= 0) {
        lengths[static_cast<size_t>(n.symbol)] =
            nx::checked_cast<uint8_t>(std::max(depth, 1));
        return;
    }
    assignDepths(pool, n.left, depth + 1, lengths);
    assignDepths(pool, n.right, depth + 1, lengths);
}

/**
 * Enforce the max_bits limit the way zlib does: demote overlong codes to
 * max_bits, then repair the Kraft sum by lengthening the cheapest codes.
 */
void
limitLengths(std::vector<uint8_t> &lengths, int max_bits,
             std::span<const uint64_t> freqs)
{
    const auto maxBits = static_cast<size_t>(max_bits);
    bool overflow = false;
    for (uint8_t l : lengths) {
        if (l > max_bits) {
            overflow = true;
            break;
        }
    }
    if (!overflow)
        return;

    // Count codes per length, clamping overlong ones.
    std::vector<int> blCount(maxBits + 1, 0);
    for (auto &l : lengths) {
        if (l == 0)
            continue;
        if (l > max_bits)
            l = nx::checked_cast<uint8_t>(max_bits);
        ++blCount[l];
    }

    // Kraft sum in units of 2^-max_bits.
    uint64_t kraft = 0;
    for (size_t bits = 1; bits <= maxBits; ++bits)
        kraft += static_cast<uint64_t>(blCount[bits])
            << (maxBits - bits);
    uint64_t budget = 1ull << maxBits;

    // Overfull: repeatedly find a code at length < max_bits to lengthen
    // (moving one leaf down costs 2^-(l+1)), preferring the lowest
    // frequency symbol so the ratio impact is minimal.
    while (kraft > budget) {
        // Take one code of the longest length < max_bits with entries...
        // zlib's approach: find max length bits with blCount[bits] > 0 and
        // bits < max_bits is wrong direction; instead shorten the tree:
        // move a leaf from max_bits to max_bits (no-op) doesn't help.
        // Standard fix: find the largest bits < max_bits with a code,
        // turn one of its codes into two max-ish codes.
        size_t bits = maxBits - 1;
        while (bits > 0 && blCount[bits] == 0)
            --bits;
        NXSIM_ASSERT(bits > 0, "cannot repair Kraft overflow");
        --blCount[bits];
        ++blCount[bits + 1];
        // One code of length bits became length bits+1:
        kraft -= (1ull << (maxBits - bits));
        kraft += (1ull << (maxBits - bits - 1));
    }

    // Underfull (possible after clamping): shorten codes to use the slack.
    while (kraft < budget) {
        size_t bits = maxBits;
        while (bits > 1 && blCount[bits] == 0)
            --bits;
        if (blCount[bits] == 0)
            break;
        --blCount[bits];
        ++blCount[bits - 1];
        kraft -= (1ull << (maxBits - bits));
        kraft += (1ull << (maxBits - bits + 1));
    }
    NXSIM_ENSURE(kraft == budget);

    // Reassign lengths: sort used symbols by (freq desc) so frequent
    // symbols get the shorter lengths, then dole out blCount.
    std::vector<size_t> used;
    for (size_t s = 0; s < lengths.size(); ++s)
        if (lengths[s] != 0)
            used.push_back(s);
    std::sort(used.begin(), used.end(), [&](size_t a, size_t b) {
        if (freqs[a] != freqs[b])
            return freqs[a] > freqs[b];
        return a < b;
    });
    size_t i = 0;
    for (size_t bits = 1; bits <= maxBits; ++bits) {
        for (int k = 0; k < blCount[bits]; ++k)
            lengths[used[i++]] = nx::checked_cast<uint8_t>(bits);
    }
    NXSIM_ENSURE(i == used.size());
}

} // namespace

std::vector<uint8_t>
buildCodeLengths(std::span<const uint64_t> freqs, int max_bits)
{
    std::vector<uint8_t> lengths(freqs.size(), 0);

    std::vector<Node> pool;
    pool.reserve(freqs.size() * 2);
    // Min-heap of pool indices by (freq, tie-break on index for
    // determinism).
    auto cmp = [&pool](size_t a, size_t b) {
        if (pool[a].freq != pool[b].freq)
            return pool[a].freq > pool[b].freq;
        return a > b;
    };
    std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)>
        heap(cmp);

    for (size_t s = 0; s < freqs.size(); ++s) {
        if (freqs[s] == 0)
            continue;
        pool.push_back({freqs[s], nx::checked_cast<int>(s)});
        heap.push(pool.size() - 1);
    }

    if (heap.empty())
        return lengths;
    if (heap.size() == 1) {
        lengths[static_cast<size_t>(pool[heap.top()].symbol)] = 1;
        return lengths;
    }

    while (heap.size() > 1) {
        size_t a = heap.top();
        heap.pop();
        size_t b = heap.top();
        heap.pop();
        pool.push_back({pool[a].freq + pool[b].freq, -1,
                        nx::checked_cast<int>(a), nx::checked_cast<int>(b)});
        heap.push(pool.size() - 1);
    }

    assignDepths(pool, nx::checked_cast<int>(heap.top()), 0, lengths);
    limitLengths(lengths, max_bits, freqs);
    return lengths;
}

HuffmanCode::HuffmanCode(std::span<const uint8_t> lengths)
    : codes_(lengths.size(), 0), lengths_(lengths.begin(), lengths.end())
{
    // Canonical code assignment per RFC 1951 3.2.2.
    std::vector<int> blCount(kMaxBits + 1, 0);
    for (uint8_t l : lengths_)
        ++blCount[l];
    blCount[0] = 0;

    std::vector<uint32_t> nextCode(kMaxBits + 2, 0);
    uint32_t code = 0;
    for (size_t bits = 1; bits <= kMaxBits; ++bits) {
        code = (code + nx::checked_cast<uint32_t>(blCount[bits - 1])) << 1;
        nextCode[bits] = code;
    }
    for (size_t s = 0; s < lengths_.size(); ++s) {
        uint8_t len = lengths_[s];
        if (len == 0)
            continue;
        // Store bit-reversed so BitWriter's LSB-first write emits the code
        // MSB-first as DEFLATE requires.
        codes_[s] = nx::checked_cast<uint16_t>(
            util::reverseBits(nextCode[len]++, len));
    }
}

uint64_t
HuffmanCode::costBits(std::span<const uint64_t> freqs) const
{
    uint64_t bits = 0;
    for (size_t s = 0; s < freqs.size() && s < lengths_.size(); ++s)
        bits += freqs[s] * lengths_[s];
    return bits;
}

const HuffmanCode &
HuffmanCode::fixedLitLen()
{
    static const HuffmanCode code(kFixedLitLenLengths);
    return code;
}

const HuffmanCode &
HuffmanCode::fixedDist()
{
    // The encoder never emits distance symbols 30-31.
    static const HuffmanCode code(
        std::span<const uint8_t>(kFixedDistLengths).first(kNumDist));
    return code;
}

const HuffmanDecodeTable &
HuffmanDecodeTable::fixedLitLen()
{
    static const HuffmanDecodeTable table = [] {
        HuffmanDecodeTable t;
        t.init(kFixedLitLenLengths);
        return t;
    }();
    return table;
}

const HuffmanDecodeTable &
HuffmanDecodeTable::fixedDist()
{
    static const HuffmanDecodeTable table = [] {
        HuffmanDecodeTable t;
        t.init(kFixedDistLengths);
        return t;
    }();
    return table;
}

bool
HuffmanDecodeTable::init(std::span<const uint8_t> lengths, int max_bits)
{
    NXSIM_EXPECT(max_bits >= 1 && max_bits <= kMaxBits,
                 "decode tables hold codes of 1..15 bits");
    // Until the checks below pass, every window decodes as invalid.
    root_.assign(1, Entry{});
    longSymbols_.clear();
    count_.fill(0);
    longest_ = rootBits_ = 0;
    rootMask_ = 0;

    const auto maxBits = static_cast<size_t>(max_bits);
    for (uint8_t l : lengths) {
        if (l > max_bits)
            return false;
        ++count_[l];
    }
    count_[0] = 0;

    // Kraft check: reject over-subscribed codes; allow incomplete codes
    // only in the degenerate 1-symbol case (common in dynamic headers).
    uint64_t kraft = 0;
    uint64_t usedSymbols = 0;
    for (size_t bits = 1; bits <= maxBits; ++bits) {
        kraft += static_cast<uint64_t>(count_[bits]) << (maxBits - bits);
        usedSymbols += count_[bits];
        if (count_[bits] != 0)
            longest_ = nx::checked_cast<unsigned>(bits);
    }
    uint64_t budget = 1ull << maxBits;
    if (kraft > budget)
        return false;
    if (kraft < budget && usedSymbols > 1)
        return false;
    if (usedSymbols == 0)
        return false;

    // First canonical code of each length (RFC 1951 3.2.2), and where
    // each length's long-coded symbols start in longSymbols_.
    rootBits_ = std::min(longest_, nx::checked_cast<unsigned>(kRootBits));
    rootMask_ = (1u << rootBits_) - 1;
    uint32_t code = 0;
    uint16_t nlong = 0;
    for (size_t bits = 1; bits <= longest_; ++bits) {
        code = (code + count_[bits - 1]) << 1;
        first_[bits] = nx::checked_cast<uint16_t>(code);
        offset_[bits] = nlong;
        if (bits > rootBits_)
            nlong = nx::checked_cast<uint16_t>(nlong + count_[bits]);
    }
    root_.assign(size_t{1} << rootBits_, Entry{});
    longSymbols_.resize(nlong);

    std::array<uint16_t, kMaxBits + 1> next = first_;
    for (size_t s = 0; s < lengths.size(); ++s) {
        uint8_t len = lengths[s];
        if (len == 0)
            continue;
        uint32_t c = next[len]++;
        auto sym = nx::checked_cast<int16_t>(s);
        if (len > rootBits_) {
            // Mark the root slot of the code's first rootBits_ bits; the
            // rank within its length is the symbol's code order.
            root_[util::reverseBits(c >> (len - rootBits_), rootBits_)] =
                Entry{-1, kLongCode};
            longSymbols_[offset_[len] + c - first_[len]] = sym;
            continue;
        }
        // Every root window whose low `len` bits equal the reversed
        // code maps to s.
        uint32_t step = 1u << len;
        for (uint32_t w = util::reverseBits(c, len); w <= rootMask_;
             w += step)
            root_[w] = Entry{sym, len};
    }
    return true;
}

HuffmanDecodeTable::Entry
HuffmanDecodeTable::decodeLong(uint32_t window) const
{
    // The root lookup matched no code of up to rootBits_ bits, so no
    // shorter code can match either: extend the MSB-first code one bit
    // at a time and test it against each longer length's code range.
    uint32_t code = util::reverseBits(window & rootMask_, rootBits_);
    for (unsigned len = rootBits_ + 1; len <= longest_; ++len) {
        code = (code << 1) | ((window >> (len - 1)) & 1);
        uint32_t rank = code - first_[len];
        if (rank < count_[len])
            return Entry{longSymbols_[offset_[len] + rank],
                         nx::checked_cast<uint8_t>(len)};
    }
    return Entry{};
}

} // namespace deflate
