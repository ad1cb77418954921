#include "graph/ambiguity.h"

#include <utility>
#include <vector>

#include "graph/dominators.h"

namespace rock::graph {

bool
has_multiple_min_root_forests(const Digraph& graph)
{
    const int n = graph.num_nodes();
    const int root = n; // super-root over the in-degree-0 nodes
    const auto at = [](int v) { return static_cast<std::size_t>(v); };

    std::vector<std::vector<int>> succs(at(n) + 1);
    std::vector<std::vector<int>> preds(at(n) + 1);
    for (const Edge& e : graph.edges()) {
        succs[at(e.src)].push_back(e.dst);
        preds[at(e.dst)].push_back(e.src);
    }
    for (int v = 0; v < n; ++v) {
        if (preds[at(v)].empty()) {
            succs[at(root)].push_back(v);
            preds[at(v)].push_back(root);
        }
    }

    const auto succ_of = [&](int v) -> const std::vector<int>& {
        return succs[at(v)];
    };
    const std::vector<int> rpo = reverse_postorder(n + 1, root, succ_of);
    if (static_cast<int>(rpo.size()) <= n)
        return true; // a source component of two or more members
    const std::vector<int> idom = immediate_dominators(
        n + 1, rpo, [&](int v) -> const std::vector<int>& {
            return preds[at(v)];
        });

    // Preorder intervals of the dominator tree: a dominates b iff
    // enter[a] <= enter[b] < leave[a].
    std::vector<int> first_child(at(n) + 3, 0);
    for (int v = 0; v < n; ++v)
        ++first_child[at(idom[at(v)]) + 2];
    for (std::size_t i = 2; i < first_child.size(); ++i)
        first_child[i] += first_child[i - 1];
    std::vector<int> children(at(n));
    for (int v = 0; v < n; ++v)
        children[at(first_child[at(idom[at(v)]) + 1]++)] = v;
    std::vector<int> enter(at(n) + 1), leave(at(n) + 1);
    int clock = 0;
    std::vector<std::pair<int, int>> stack{{root, first_child[at(root)]}};
    enter[at(root)] = clock++;
    while (!stack.empty()) {
        auto& [v, next] = stack.back();
        if (next < first_child[at(v) + 1]) {
            const int c = children[at(next++)];
            enter[at(c)] = clock++;
            stack.emplace_back(c, first_child[at(c)]);
        } else {
            leave[at(v)] = clock;
            stack.pop_back();
        }
    }

    for (int v = 0; v < n; ++v) {
        int usable = -1;
        for (int p : preds[at(v)]) {
            const bool dominated_by_v = enter[at(v)] <= enter[at(p)] &&
                                        enter[at(p)] < leave[at(v)];
            if (p == root || dominated_by_v || p == usable)
                continue;
            if (usable >= 0)
                return true; // two distinct usable parents of v
            usable = p;
        }
    }
    return false;
}

} // namespace rock::graph
