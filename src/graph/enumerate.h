/**
 * @file
 * Bounded enumeration of (near-)optimal spanning forests.
 *
 * The arborescence solver can admit several co-optimal solutions
 * (paper Section 4.2.2, "Handling Multiple Arborescences"); the
 * majority-vote tie-breaking heuristic needs the whole co-optimal set.
 * enumerate_min_forests() performs a branch-and-bound search over
 * parent assignments under the same super-root/penalty semantics as
 * graph::min_forest() and returns every forest whose total cost is
 * within epsilon of the optimum, up to a configurable cap.
 */
#pragma once

#include <vector>

#include "graph/digraph.h"
#include "graph/edmonds.h"

namespace rock::graph {

/** Bounds for the enumeration. */
struct EnumerateConfig {
    /** Absolute weight slack admitted as "equally minimal". */
    double epsilon = 1e-9;
    /** Cap on returned forests. A search it cuts short bumps
     *  graph.enumerate.result_cap_hits. */
    int max_results = 256;
    /**
     * Budget on search steps. Degenerate weight landscapes (many
     * zero-weight edges over large sparse families) can make the
     * branch-and-bound blow up; when the budget runs out, the
     * forests found so far are returned and
     * graph.enumerate.step_budget_hits is bumped. The Edmonds
     * optimum is always among them.
     */
    long max_steps = 2000000;
};

/**
 * All spanning forests of @p graph within epsilon of the minimum
 * (root penalties included in the comparison, so solutions with more
 * roots than necessary are never co-optimal; under a step budget the
 * set may be truncated). The optimum itself is always the first
 * element.
 */
std::vector<Arborescence>
enumerate_min_forests(const Digraph& graph,
                      const EnumerateConfig& config = {});

} // namespace rock::graph
