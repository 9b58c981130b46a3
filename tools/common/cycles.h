/**
 * @file
 * The analyzers' one cycle finder, shared by nxdeps (include and
 * module graphs) and nxstate (lock order): an iterative three-colour
 * DFS that visits nodes in index order, so a sorted input gives a
 * deterministic report order. Each analyzer words its own finding.
 */

#ifndef NXSIM_COMMON_CYCLES_H
#define NXSIM_COMMON_CYCLES_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace nxcommon {

/**
 * Call @p report(chain, edge) once per back edge of @p adj, where
 * adj[n] lists node n's out-edges and each names its target as `to`.
 * The chain is the DFS stack from the revisited node (edge.to) up to
 * the edge's source, so the edge closes the cycle.
 */
template <typename Edge, typename Report>
void
forEachCycle(const std::vector<std::vector<Edge>> &adj, Report report)
{
    enum class Color { White, Grey, Black };
    std::vector<Color> color(adj.size(), Color::White);
    std::vector<size_t> stack;

    struct Frame
    {
        size_t node;
        size_t next = 0;
    };

    for (size_t start = 0; start < adj.size(); ++start) {
        if (color[start] != Color::White)
            continue;
        std::vector<Frame> frames{{start}};
        color[start] = Color::Grey;
        stack.push_back(start);
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.next >= adj[f.node].size()) {
                color[f.node] = Color::Black;
                stack.pop_back();
                frames.pop_back();
                continue;
            }
            const Edge &e = adj[f.node][f.next++];
            if (color[e.to] == Color::Grey) {
                auto pos = std::find(stack.begin(), stack.end(), e.to);
                report(std::vector<size_t>(pos, stack.end()), e);
            } else if (color[e.to] == Color::White) {
                color[e.to] = Color::Grey;
                stack.push_back(e.to);
                frames.push_back({e.to});
            }
        }
    }
}

/** "a -> b -> a": a cycle's @p chain in @p names, closed again. */
inline std::string
cycleText(const std::vector<size_t> &chain,
          const std::vector<std::string> &names)
{
    std::string text;
    for (size_t n : chain)
        text += names[n] + " -> ";
    return text + names[chain.front()];
}

} // namespace nxcommon

#endif // NXSIM_COMMON_CYCLES_H
