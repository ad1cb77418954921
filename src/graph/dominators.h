/**
 * @file
 * Dominators over a rooted digraph.
 *
 * Implements the Cooper-Harvey-Kennedy "simple, fast dominance"
 * algorithm: iterate idom over a reverse-postorder sweep until
 * fixpoint, intersecting along the dominator tree. It is the one
 * dominator core of the repository: cfg::dominator_tree() adapts it
 * to recovered CFGs, and has_multiple_min_root_forests() (see
 * graph/ambiguity.h) runs it over super-rooted type families.
 *
 * Both algorithms are templates over an adjacency accessor, so callers
 * keep their own graph layout: @p succs(v) must return a
 * random-access range and @p preds(v) an iterable range of node ids
 * in [0, n).
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace rock::graph {

/**
 * Nodes reachable from @p entry in reverse postorder (entry first),
 * by an iterative DFS that visits successors in range order.
 */
template <class Succs>
std::vector<int>
reverse_postorder(int n, int entry, const Succs& succs)
{
    std::vector<int> order;
    if (n == 0)
        return order;
    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    // Explicit stack of (node, index of its next successor).
    std::vector<std::pair<int, std::size_t>> stack{{entry, 0}};
    visited[static_cast<std::size_t>(entry)] = 1;
    while (!stack.empty()) {
        auto& [v, next] = stack.back();
        const auto& out = succs(v);
        if (next < std::size(out)) {
            const int s = *(std::begin(out) + next++);
            if (!visited[static_cast<std::size_t>(s)]) {
                visited[static_cast<std::size_t>(s)] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            order.push_back(v);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/**
 * Immediate dominator per node, given @p rpo =
 * reverse_postorder(n, entry, succs). The entry is its own idom;
 * nodes unreachable from it have idom -1.
 */
template <class Preds>
std::vector<int>
immediate_dominators(int n, const std::vector<int>& rpo,
                     const Preds& preds)
{
    std::vector<int> idom(static_cast<std::size_t>(n), -1);
    if (rpo.empty())
        return idom;
    std::vector<int> rpo_index(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < rpo.size(); ++i)
        rpo_index[static_cast<std::size_t>(rpo[i])] =
            static_cast<int>(i);

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpo_index[static_cast<std::size_t>(a)] >
                   rpo_index[static_cast<std::size_t>(b)])
                a = idom[static_cast<std::size_t>(a)];
            while (rpo_index[static_cast<std::size_t>(b)] >
                   rpo_index[static_cast<std::size_t>(a)])
                b = idom[static_cast<std::size_t>(b)];
        }
        return a;
    };

    const int entry = rpo.front();
    idom[static_cast<std::size_t>(entry)] = entry;
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : rpo) {
            if (b == entry)
                continue;
            int new_idom = -1;
            for (int p : preds(b)) {
                if (idom[static_cast<std::size_t>(p)] < 0)
                    continue; // pred not yet processed / unreachable
                new_idom = new_idom < 0 ? p : intersect(p, new_idom);
            }
            if (new_idom >= 0 &&
                idom[static_cast<std::size_t>(b)] != new_idom) {
                idom[static_cast<std::size_t>(b)] = new_idom;
                changed = true;
            }
        }
    }
    return idom;
}

/**
 * True when @p a dominates @p b (reflexive) under @p idom, as
 * returned by immediate_dominators(). Nodes with idom -1 are
 * dominated by nothing.
 */
bool dominates(const std::vector<int>& idom, int a, int b);

} // namespace rock::graph
