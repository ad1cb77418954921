/**
 * @file
 * Minimum-weight spanning arborescence (Chu-Liu/Edmonds, 1967),
 * computed with Tarjan's O(E log V) branching algorithm (Tarjan 1977;
 * Gabow, Galil, Spencer and Tarjan 1986).
 *
 * The paper lifts pairwise type distances to the most likely class
 * hierarchy by solving this problem per type family (Section 4.2.2,
 * citing Edmonds [15]).
 *
 * Two entry points:
 *
 *  - min_arborescence(): classic rooted solver;
 *  - min_forest(): realizes the paper's Heuristic 4.1 ("it is more
 *    plausible for a binary type to be a derived type than a root
 *    type") by attaching a super-root whose edges carry a uniform
 *    penalty larger than any possible sum of real edge weights. The
 *    optimizer therefore first minimizes the number of roots, then
 *    the total divergence; nodes kept under the super-root become
 *    roots of separate hierarchies (Remark 4.2).
 *
 * Tie-breaking is that of the level-by-level contraction: each
 * (super-)node takes its cheapest in-edge by reduced weight, ties
 * going to the lowest edge index. Every contracted cycle adds one to
 * the counter graph.edmonds.contractions.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"

namespace rock::graph {

/** An arborescence/forest encoded as a parent vector. */
struct Arborescence {
    /** parent[v] = chosen predecessor, or -1 when v is a root. */
    std::vector<int> parent;
    /** Sum of chosen real-edge weights in node order (root
     *  penalties excluded). */
    double weight = 0.0;
    /** Number of roots (nodes with parent -1). */
    int num_roots = 0;
};

/**
 * Minimum-weight spanning arborescence of @p graph rooted at @p root.
 *
 * @return std::nullopt when some node is unreachable from @p root
 *         (no contraction is counted then). Deterministic
 *         tie-breaking (by edge insertion order).
 */
std::optional<Arborescence> min_arborescence(const Digraph& graph,
                                             int root);

/**
 * Minimum-weight spanning forest of @p graph under a uniform root
 * penalty chosen internally (> total absolute weight). Always
 * succeeds; unreachable nodes become roots.
 */
Arborescence min_forest(const Digraph& graph);

} // namespace rock::graph
