/**
 * @file
 * Dominator computation over recovered CFGs.
 *
 * A thin adapter over the Cooper-Harvey-Kennedy core in
 * graph/dominators.h, rooted at the entry block. On the small
 * intra-procedural graphs VM32 produces this beats Lengauer-Tarjan in
 * both code size and constant factor.
 */
#pragma once

#include <vector>

#include "cfg/cfg.h"

namespace rock::cfg {

/** The dominator tree of one Cfg. */
struct DomTree {
    /**
     * Immediate dominator per block id. The entry block is its own
     * idom; blocks unreachable from the entry have idom -1 and are
     * dominated by nothing (dominates() is false for them).
     */
    std::vector<int> idom;

    /** True when block @p a dominates block @p b (reflexive). */
    bool dominates(int a, int b) const;
};

/** Compute the dominator tree of @p cfg. */
DomTree dominator_tree(const Cfg& cfg);

/**
 * Blocks of @p cfg reachable from the entry, in reverse postorder
 * (entry first). Exposed because dataflow solving uses the same
 * order.
 */
std::vector<int> reverse_postorder(const Cfg& cfg);

} // namespace rock::cfg
