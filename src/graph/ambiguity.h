/**
 * @file
 * Exact structural-ambiguity test: does a digraph admit more than one
 * spanning forest with the minimum number of roots?
 *
 * On a zero-weight graph this is the question
 * enumerate_min_forests(graph, {0.0, 2, ...}).size() > 1 answers by
 * search. Here it is decided in near-linear time, with no search
 * budget, from two classical facts:
 *
 *  - A minimum-root forest has exactly one root per source strongly
 *    connected component of the condensation. A source component with
 *    two or more members leaves the root choice free, so the forest
 *    is not unique. Such a component exists iff some node is
 *    unreachable from the in-degree-0 nodes (the singleton source
 *    components): the unreachable nodes are closed under predecessors.
 *  - Otherwise the roots are exactly the in-degree-0 nodes. Hang them
 *    under a super-root. An edge p -> v lies in some spanning
 *    arborescence iff v does not dominate p, so the arborescence is
 *    unique iff no node has two distinct in-neighbours it does not
 *    dominate.
 */
#pragma once

#include "graph/digraph.h"

namespace rock::graph {

/**
 * True when @p graph has two or more distinct minimum-root spanning
 * forests (parent vectors). Edge weights are ignored; parallel edges
 * count once.
 */
bool has_multiple_min_root_forests(const Digraph& graph);

} // namespace rock::graph
