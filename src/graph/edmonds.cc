#include "graph/edmonds.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "support/error.h"

namespace rock::graph {

namespace {

std::size_t
at(int i)
{
    return static_cast<std::size_t>(i);
}

/**
 * Skew min-heaps of edges (Sleator and Tarjan 1986), all in one
 * arena. Keys are reduced weights, ties broken by the lower edge
 * index. A lazy offset per node applies to its whole subtree, so
 * "subtract w from every edge into this super-node" is O(1). Merges
 * are top-down and iterative, amortized O(log E), and keep no rank.
 *
 * Each node's initial heap is its in-edges sorted into a left chain,
 * stored contiguously: popping an edge internal to a super-node off
 * a chain is O(1), and the walk down a chain is sequential in memory.
 */
class EdgeHeaps {
  public:
    EdgeHeaps(int n, const std::vector<Edge>& edges, int root)
        : heads_(at(n), -1)
    {
        // Bucket by destination; a counting sort keeps each bucket in
        // edge-index order.
        std::vector<int> begin(at(n) + 1, 0);
        for (const Edge& e : edges) {
            if (e.dst != root)
                ++begin[at(e.dst) + 1];
        }
        for (std::size_t v = 0; v < at(n); ++v)
            begin[v + 1] += begin[v];
        nodes_.resize(at(begin[at(n)]));
        std::vector<int> fill(begin.begin(), begin.end() - 1);
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const Edge& e = edges[i];
            if (e.dst != root)
                nodes_[at(fill[at(e.dst)]++)] =
                    Node{e.weight, 0.0, -1, -1, static_cast<int>(i)};
        }
        for (int v = 0; v < n; ++v) {
            const int lo = begin[at(v)];
            const int hi = begin[at(v) + 1];
            if (lo == hi)
                continue;
            std::stable_sort(nodes_.begin() + lo, nodes_.begin() + hi,
                             [](const Node& a, const Node& b) {
                                 return a.key < b.key;
                             });
            for (int h = lo; h + 1 < hi; ++h)
                nodes_[at(h)].left = h + 1;
            heads_[at(v)] = lo;
        }
    }

    /** Heap of (super-)node @p v's in-edges, -1 when it has none. */
    int& head(int v) { return heads_[at(v)]; }

    /** Edge index held by heap node @p h. */
    int edge(int h) const { return nodes_[at(h)].edge; }

    /** Merge heaps @p a and @p b (-1 = empty); returns the root. */
    int
    merge(int a, int b)
    {
        if (a < 0 || b < 0)
            return a >= 0 ? a : b;
        push(a);
        push(b);
        if (less(b, a))
            std::swap(a, b);
        const int root = a;
        // Top-down skew merge: b joins a's right subtree, which then
        // becomes the left one.
        while (true) {
            Node& node = nodes_[at(a)];
            int next = node.right;
            node.right = node.left;
            if (next < 0) {
                node.left = b;
                return root;
            }
            push(next);
            if (less(b, next))
                std::swap(next, b);
            node.left = next;
            a = next;
        }
    }

    /** Reduced weight of root @p h, the heap's minimum. */
    double
    top_weight(int h)
    {
        push(h);
        return nodes_[at(h)].key;
    }

    /** Heap @p h without its root. */
    int
    pop(int h)
    {
        push(h);
        return merge(nodes_[at(h)].left, nodes_[at(h)].right);
    }

    /** Add @p delta to every key of heap @p h. */
    void
    add(int h, double delta)
    {
        if (h >= 0)
            nodes_[at(h)].lazy += delta;
    }

  private:
    struct Node {
        double key;
        double lazy; ///< pending offset for this node and its subtree
        int left;
        int right;
        int edge; ///< index into the solver's edge list
    };

    void
    push(int h)
    {
        Node& node = nodes_[at(h)];
        if (node.lazy == 0.0)
            return;
        node.key += node.lazy;
        if (node.left >= 0)
            nodes_[at(node.left)].lazy += node.lazy;
        if (node.right >= 0)
            nodes_[at(node.right)].lazy += node.lazy;
        node.lazy = 0.0;
    }

    /** Order of two pushed roots: lower reduced weight, then lower
     *  edge index. */
    bool
    less(int a, int b) const
    {
        const Node& x = nodes_[at(a)];
        const Node& y = nodes_[at(b)];
        return x.key < y.key || (x.key == y.key && x.edge < y.edge);
    }

    std::vector<Node> nodes_;
    std::vector<int> heads_;
};

/**
 * Union-find by size without path compression, so unions can be
 * undone in reverse order (rollback to an earlier time()).
 */
class RollbackUnionFind {
  public:
    explicit RollbackUnionFind(int n) : parent_(at(n), -1) {}

    int
    find(int x) const
    {
        while (parent_[at(x)] >= 0)
            x = parent_[at(x)];
        return x;
    }

    /** Merge the sets of @p a and @p b; false when already merged. */
    bool
    join(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        if (parent_[at(a)] > parent_[at(b)]) // negated sizes
            std::swap(a, b);
        history_.push_back({b, parent_[at(b)]});
        parent_[at(a)] += parent_[at(b)];
        parent_[at(b)] = a;
        return true;
    }

    std::size_t time() const { return history_.size(); }

    void
    rollback(std::size_t t)
    {
        while (history_.size() > t) {
            const auto [b, size] = history_.back();
            history_.pop_back();
            const int a = parent_[at(b)];
            parent_[at(a)] -= size;
            parent_[at(b)] = size;
        }
    }

  private:
    std::vector<int> parent_; ///< parent, or -(set size) at a root
    std::vector<std::pair<int, int>> history_; ///< (child, its size)
};

/**
 * Tarjan's branching algorithm (Tarjan 1977; Gabow, Galil, Spencer
 * and Tarjan 1986) over @p edges, in O(E log V) time and O(E) space.
 *
 * Grows a path of super-nodes from each unfinished node, each taking
 * its cheapest in-edge by reduced weight (ties: lowest edge index).
 * When the path closes a cycle, the cycle's heaps merge into one
 * super-node and the walk continues from it; when the path reaches
 * the root or a finished node, its super-nodes are finished. Every
 * edge taken lowers the other in-edges of its super-node by its
 * reduced weight, so a cycle's merged heap holds exactly the reduced
 * weights of the level-by-level Chu-Liu/Edmonds contraction, and the
 * two pick the same edges. Edges internal to a super-node are
 * dropped when they surface.
 *
 * Returns the chosen in-edge index per node (-1 at @p root), or
 * nullopt when some node is unreachable from @p root. The counter
 * graph.edmonds.contractions gains one per contracted cycle, on
 * success only.
 */
std::optional<std::vector<int>>
solve(int n, const std::vector<Edge>& edges, int root)
{
    EdgeHeaps heaps(n, edges, root);

    RollbackUnionFind uf(n);
    // seen[u]: the start node whose walk visited super-node u, or -1
    // while u is unvisited (or a cycle just contracted into u).
    std::vector<int> seen(at(n), -1);
    seen[at(root)] = root;
    std::vector<int> in_edge(at(n), -1); // finished in-edge per rep
    std::vector<int> path_nodes, path_edges;
    struct Cycle {
        int rep;          ///< representative right after contraction
        std::size_t time; ///< union-find time before it
        std::size_t begin, end; ///< its members' edges in cycle_edges
    };
    std::vector<Cycle> cycles;
    std::vector<int> cycle_edges;

    for (int start = 0; start < n; ++start) {
        int u = start;
        path_nodes.clear();
        path_edges.clear();
        while (seen[at(u)] < 0) {
            int& h = heaps.head(u);
            while (h >= 0 && uf.find(edges[at(heaps.edge(h))].src) == u)
                h = heaps.pop(h); // internal to the super-node
            if (h < 0)
                return std::nullopt; // nothing enters u: unreachable
            const int e = heaps.edge(h);
            const double reduced = heaps.top_weight(h);
            h = heaps.pop(h);
            heaps.add(h, -reduced);
            path_nodes.push_back(u);
            path_edges.push_back(e);
            seen[at(u)] = start;
            u = uf.find(edges[at(e)].src);
            if (seen[at(u)] != start)
                continue;
            // Closed a cycle through u: contract it into one node.
            const std::size_t time = uf.time();
            const std::size_t begin = cycle_edges.size();
            int merged = -1;
            int w;
            do {
                w = path_nodes.back();
                path_nodes.pop_back();
                cycle_edges.push_back(path_edges.back());
                path_edges.pop_back();
                merged = heaps.merge(merged, heaps.head(w));
            } while (uf.join(u, w));
            u = uf.find(u);
            heaps.head(u) = merged;
            seen[at(u)] = -1;
            cycles.push_back({u, time, begin, cycle_edges.size()});
        }
        for (std::size_t i = 0; i < path_nodes.size(); ++i)
            in_edge[at(path_nodes[i])] = path_edges[i];
    }

    // Expand the contractions, innermost last: the edge entering a
    // cycle replaces the cycle edge into the member it enters.
    for (auto it = cycles.rbegin(); it != cycles.rend(); ++it) {
        uf.rollback(it->time);
        const int entering = in_edge[at(it->rep)];
        for (std::size_t i = it->begin; i < it->end; ++i) {
            const int e = cycle_edges[i];
            in_edge[at(uf.find(edges[at(e)].dst))] = e;
        }
        in_edge[at(uf.find(edges[at(entering)].dst))] = entering;
    }

    static obs::Counter& contractions =
        obs::Registry::global().counter("graph.edmonds.contractions");
    contractions.add(cycles.size());
    return in_edge;
}

} // namespace

std::optional<Arborescence>
min_arborescence(const Digraph& graph, int root)
{
    ROCK_ASSERT(root >= 0 && root < graph.num_nodes(),
                "root out of range");
    auto chosen = solve(graph.num_nodes(), graph.edges(), root);
    if (!chosen)
        return std::nullopt;
    Arborescence result;
    result.parent.assign(chosen->size(), -1);
    for (std::size_t v = 0; v < chosen->size(); ++v) {
        if ((*chosen)[v] < 0)
            continue;
        const Edge& e = graph.edges()[at((*chosen)[v])];
        result.parent[v] = e.src;
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

    // Super-root n with one penalty edge per node, after the real
    // edges so that real edges win ties.
    std::vector<Edge> edges;
    edges.reserve(graph.edges().size() + at(n));
    edges.insert(edges.end(), graph.edges().begin(), graph.edges().end());
    for (int v = 0; v < n; ++v)
        edges.push_back(Edge{n, v, penalty});

    auto chosen = solve(n + 1, edges, n);
    ROCK_ASSERT(chosen.has_value(),
                "augmented graph must always be solvable");
    Arborescence result;
    result.parent.assign(at(n), -1);
    for (int v = 0; v < n; ++v) {
        const Edge& e = edges[at((*chosen)[at(v)])];
        if (e.src == n) {
            ++result.num_roots;
        } else {
            result.parent[at(v)] = e.src;
            result.weight += e.weight;
        }
    }
    return result;
}

} // namespace rock::graph
