#include "graph/edmonds.h"

#include <limits>

#include "obs/metrics.h"
#include "support/error.h"

namespace rock::graph {

namespace {

/** Edge at one contraction level, with a backreference to the level
 *  above. */
struct LevelEdge {
    int src = 0;
    int dst = 0;
    double weight = 0.0;
    int backref = -1; ///< index into the previous level's edge list
};

/**
 * Recursive Chu-Liu/Edmonds. Returns indices (into @p edges) of the
 * chosen in-edges, one per non-root node, or nullopt when some node
 * has no incoming edge at all.
 */
std::optional<std::vector<int>>
solve(int n, const std::vector<LevelEdge>& edges, int root)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Cheapest in-edge per node (deterministic: first minimum wins).
    std::vector<int> in_idx(static_cast<std::size_t>(n), -1);
    std::vector<double> in_w(static_cast<std::size_t>(n), kInf);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const LevelEdge& e = edges[i];
        if (e.dst == root || e.src == e.dst)
            continue;
        if (e.weight < in_w[static_cast<std::size_t>(e.dst)]) {
            in_w[static_cast<std::size_t>(e.dst)] = e.weight;
            in_idx[static_cast<std::size_t>(e.dst)] =
                static_cast<int>(i);
        }
    }
    for (int v = 0; v < n; ++v) {
        if (v != root && in_idx[static_cast<std::size_t>(v)] < 0)
            return std::nullopt;
    }

    // Detect cycles in the picked-edge functional graph.
    std::vector<int> cycle_id(static_cast<std::size_t>(n), -1);
    int num_cycles = 0;
    {
        std::vector<int> color(static_cast<std::size_t>(n), 0);
        for (int start = 0; start < n; ++start) {
            if (color[static_cast<std::size_t>(start)] != 0)
                continue;
            int v = start;
            while (v != root &&
                   color[static_cast<std::size_t>(v)] == 0) {
                color[static_cast<std::size_t>(v)] = 1;
                v = edges[static_cast<std::size_t>(
                              in_idx[static_cast<std::size_t>(v)])]
                        .src;
            }
            if (v != root && color[static_cast<std::size_t>(v)] == 1) {
                // Found a new cycle; label its members.
                int u = v;
                do {
                    cycle_id[static_cast<std::size_t>(u)] = num_cycles;
                    u = edges[static_cast<std::size_t>(
                                  in_idx[static_cast<std::size_t>(u)])]
                            .src;
                } while (u != v);
                ++num_cycles;
            }
            // Seal the walked path.
            int u = start;
            while (u != root && color[static_cast<std::size_t>(u)] == 1) {
                color[static_cast<std::size_t>(u)] = 2;
                u = edges[static_cast<std::size_t>(
                              in_idx[static_cast<std::size_t>(u)])]
                        .src;
            }
        }
    }

    if (num_cycles == 0) {
        std::vector<int> chosen;
        chosen.reserve(static_cast<std::size_t>(n) - 1);
        for (int v = 0; v < n; ++v) {
            if (v != root)
                chosen.push_back(in_idx[static_cast<std::size_t>(v)]);
        }
        return chosen;
    }

    // Each detected cycle becomes one supernode contraction; the
    // count is a pure function of the input graph (deterministic).
    {
        static obs::Counter& contractions =
            obs::Registry::global().counter(
                "graph.edmonds.contractions");
        contractions.add(static_cast<std::uint64_t>(num_cycles));
    }

    // Contract every cycle into a supernode.
    std::vector<int> comp(static_cast<std::size_t>(n), -1);
    int next = 0;
    for (int v = 0; v < n; ++v) {
        if (cycle_id[static_cast<std::size_t>(v)] < 0)
            comp[static_cast<std::size_t>(v)] = next++;
    }
    int cycle_base = next;
    for (int v = 0; v < n; ++v) {
        if (cycle_id[static_cast<std::size_t>(v)] >= 0) {
            comp[static_cast<std::size_t>(v)] =
                cycle_base + cycle_id[static_cast<std::size_t>(v)];
        }
    }
    int n2 = cycle_base + num_cycles;

    std::vector<LevelEdge> edges2;
    edges2.reserve(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const LevelEdge& e = edges[i];
        int cu = comp[static_cast<std::size_t>(e.src)];
        int cv = comp[static_cast<std::size_t>(e.dst)];
        if (cu == cv)
            continue;
        double w = e.weight;
        if (cycle_id[static_cast<std::size_t>(e.dst)] >= 0)
            w -= in_w[static_cast<std::size_t>(e.dst)];
        edges2.push_back(
            LevelEdge{cu, cv, w, static_cast<int>(i)});
    }

    auto sub = solve(n2, edges2, comp[static_cast<std::size_t>(root)]);
    if (!sub)
        return std::nullopt;

    // Map the sub-solution back: chosen contracted edges become their
    // originals; each entered cycle contributes all its in-edges
    // except the one into the entry node.
    std::vector<int> chosen;
    std::vector<int> entry(static_cast<std::size_t>(num_cycles), -1);
    for (int j : *sub) {
        int idx = edges2[static_cast<std::size_t>(j)].backref;
        chosen.push_back(idx);
        int v = edges[static_cast<std::size_t>(idx)].dst;
        if (cycle_id[static_cast<std::size_t>(v)] >= 0)
            entry[static_cast<std::size_t>(
                cycle_id[static_cast<std::size_t>(v)])] = v;
    }
    for (int v = 0; v < n; ++v) {
        int c = cycle_id[static_cast<std::size_t>(v)];
        if (c >= 0 && entry[static_cast<std::size_t>(c)] != v)
            chosen.push_back(in_idx[static_cast<std::size_t>(v)]);
    }
    return chosen;
}

} // namespace

std::optional<Arborescence>
min_arborescence(const Digraph& graph, int root)
{
    ROCK_ASSERT(root >= 0 && root < graph.num_nodes(),
                "root out of range");
    std::vector<LevelEdge> edges;
    edges.reserve(graph.edges().size());
    for (std::size_t i = 0; i < graph.edges().size(); ++i) {
        const Edge& e = graph.edges()[i];
        edges.push_back(
            LevelEdge{e.src, e.dst, e.weight, static_cast<int>(i)});
    }
    auto chosen = solve(graph.num_nodes(), edges, root);
    if (!chosen)
        return std::nullopt;

    Arborescence result;
    result.parent.assign(
        static_cast<std::size_t>(graph.num_nodes()), -1);
    for (int idx : *chosen) {
        const Edge& e = graph.edges()[static_cast<std::size_t>(idx)];
        result.parent[static_cast<std::size_t>(e.dst)] = e.src;
        result.weight += e.weight;
    }
    result.num_roots = 1;
    return result;
}

Arborescence
min_forest(const Digraph& graph)
{
    const int n = graph.num_nodes();
    if (n == 0)
        return Arborescence{};
    const double penalty = graph.total_abs_weight() + 1.0;

    Digraph augmented(n + 1);
    for (const auto& e : graph.edges())
        augmented.add_edge(e.src, e.dst, e.weight);
    for (int v = 0; v < n; ++v)
        augmented.add_edge(n, v, penalty);

    auto solution = min_arborescence(augmented, n);
    ROCK_ASSERT(solution.has_value(),
                "augmented graph must always be solvable");

    Arborescence result;
    result.parent.assign(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v) {
        int p = solution->parent[static_cast<std::size_t>(v)];
        if (p == n || p < 0) {
            ++result.num_roots;
        } else {
            result.parent[static_cast<std::size_t>(v)] = p;
        }
    }
    // Real-edge weight = total minus the root penalties.
    result.weight =
        solution->weight - penalty * static_cast<double>(result.num_roots);
    return result;
}

} // namespace rock::graph
