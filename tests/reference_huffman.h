/**
 * @file
 * Reference code-length builder for differential tests: the heap-based
 * Huffman construction deflate::buildCodeLengths used before it became
 * a two-queue builder. A std::priority_queue over a node pool pops the
 * two lightest nodes, ties broken by the lower pool index (leaves in
 * symbol order, then merged nodes in creation order), and a recursive
 * walk assigns depths. Overlong codes are then repaired the way the
 * encoder does it: clamp to max_bits, fix the Kraft sum, and hand the
 * lengths back out by descending frequency.
 *
 * It shares no code with src/deflate, so a mismatch points at the
 * builder under test. Speed is not a goal.
 */

#ifndef NXSIM_TESTS_REFERENCE_HUFFMAN_H
#define NXSIM_TESTS_REFERENCE_HUFFMAN_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

namespace reference {

namespace detail {

struct Node
{
    uint64_t freq;
    int symbol;       // >= 0 for leaves, -1 for internal
    int left = -1;    // indices into the node pool
    int right = -1;
};

inline void
assignDepths(const std::vector<Node> &pool, int idx, int depth,
             std::vector<uint8_t> &lengths)
{
    const Node &n = pool[static_cast<size_t>(idx)];
    if (n.symbol >= 0) {
        lengths[static_cast<size_t>(n.symbol)] =
            static_cast<uint8_t>(std::max(depth, 1));
        return;
    }
    assignDepths(pool, n.left, depth + 1, lengths);
    assignDepths(pool, n.right, depth + 1, lengths);
}

inline void
limitLengths(std::vector<uint8_t> &lengths, int max_bits,
             std::span<const uint64_t> freqs)
{
    const auto maxBits = static_cast<size_t>(max_bits);
    if (std::none_of(lengths.begin(), lengths.end(),
                     [&](uint8_t l) { return l > max_bits; }))
        return;

    std::vector<int> blCount(maxBits + 1, 0);
    for (auto &l : lengths) {
        if (l == 0)
            continue;
        if (l > max_bits)
            l = static_cast<uint8_t>(max_bits);
        ++blCount[l];
    }
    uint64_t kraft = 0;
    for (size_t bits = 1; bits <= maxBits; ++bits)
        kraft += static_cast<uint64_t>(blCount[bits]) << (maxBits - bits);
    const uint64_t budget = 1ull << maxBits;

    while (kraft > budget) {
        size_t bits = maxBits - 1;
        while (bits > 0 && blCount[bits] == 0)
            --bits;
        if (bits == 0)
            throw std::logic_error("cannot repair Kraft overflow");
        --blCount[bits];
        ++blCount[bits + 1];
        kraft -= 1ull << (maxBits - bits);
        kraft += 1ull << (maxBits - bits - 1);
    }
    while (kraft < budget) {
        size_t bits = maxBits;
        while (bits > 1 && blCount[bits] == 0)
            --bits;
        if (blCount[bits] == 0)
            break;
        --blCount[bits];
        ++blCount[bits - 1];
        kraft -= 1ull << (maxBits - bits);
        kraft += 1ull << (maxBits - bits + 1);
    }

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
    for (size_t bits = 1; bits <= maxBits; ++bits)
        for (int k = 0; k < blCount[bits]; ++k)
            lengths[used[i++]] = static_cast<uint8_t>(bits);
}

} // namespace detail

/** Heap-built, length-limited code lengths for @p freqs. */
inline std::vector<uint8_t>
buildCodeLengths(std::span<const uint64_t> freqs, int max_bits)
{
    using detail::Node;
    std::vector<uint8_t> lengths(freqs.size(), 0);
    std::vector<Node> pool;
    pool.reserve(freqs.size() * 2);
    auto cmp = [&pool](size_t a, size_t b) {
        if (pool[a].freq != pool[b].freq)
            return pool[a].freq > pool[b].freq;
        return a > b;
    };
    std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(
        cmp);
    for (size_t s = 0; s < freqs.size(); ++s) {
        if (freqs[s] == 0)
            continue;
        pool.push_back({freqs[s], static_cast<int>(s)});
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
                        static_cast<int>(a), static_cast<int>(b)});
        heap.push(pool.size() - 1);
    }
    detail::assignDepths(pool, static_cast<int>(heap.top()), 0, lengths);
    detail::limitLengths(lengths, max_bits, freqs);
    return lengths;
}

} // namespace reference

#endif // NXSIM_TESTS_REFERENCE_HUFFMAN_H
