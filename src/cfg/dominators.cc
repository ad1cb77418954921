#include "cfg/dominators.h"

#include "graph/dominators.h"

namespace rock::cfg {

bool
DomTree::dominates(int a, int b) const
{
    return graph::dominates(idom, a, b);
}

std::vector<int>
reverse_postorder(const Cfg& cfg)
{
    return graph::reverse_postorder(
        static_cast<int>(cfg.blocks.size()), 0,
        [&](int b) -> const std::vector<int>& {
            return cfg.blocks[static_cast<std::size_t>(b)].succs;
        });
}

DomTree
dominator_tree(const Cfg& cfg)
{
    return DomTree{graph::immediate_dominators(
        static_cast<int>(cfg.blocks.size()), reverse_postorder(cfg),
        [&](int b) -> const std::vector<int>& {
            return cfg.blocks[static_cast<std::size_t>(b)].preds;
        })};
}

} // namespace rock::cfg
