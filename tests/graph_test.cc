/**
 * @file
 * Unit and property tests for the graph module: union-find,
 * Chu-Liu/Edmonds, co-optimal enumeration and the exact
 * structural-ambiguity test.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "support/error.h"
#include "graph/ambiguity.h"
#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "graph/enumerate.h"
#include "graph/union_find.h"
#include "obs/metrics.h"
#include "support/rng.h"

namespace {

using namespace rock::graph;

// ---------------------------------------------------------------------
// Union-find / components
// ---------------------------------------------------------------------

TEST(UnionFind, BasicMerging)
{
    UnionFind uf(5);
    EXPECT_FALSE(uf.same(0, 1));
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_FALSE(uf.unite(0, 1));
    EXPECT_TRUE(uf.same(0, 1));
    uf.unite(2, 3);
    EXPECT_FALSE(uf.same(1, 2));
    uf.unite(1, 2);
    EXPECT_TRUE(uf.same(0, 3));
    EXPECT_FALSE(uf.same(0, 4));
}

TEST(Components, LabelsAreDenseAndOrdered)
{
    auto labels = connected_components(6, {{0, 2}, {2, 4}, {1, 5}});
    EXPECT_EQ(labels[0], 0);
    EXPECT_EQ(labels[2], 0);
    EXPECT_EQ(labels[4], 0);
    EXPECT_EQ(labels[1], 1);
    EXPECT_EQ(labels[5], 1);
    EXPECT_EQ(labels[3], 2);
}

TEST(Components, NoEdgesMeansSingletons)
{
    auto labels = connected_components(3, {});
    EXPECT_EQ(labels, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------
// Edmonds
// ---------------------------------------------------------------------

TEST(Edmonds, TrivialChain)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    EXPECT_EQ(arb->parent, (std::vector<int>{-1, 0, 1}));
    EXPECT_DOUBLE_EQ(arb->weight, 3.0);
}

TEST(Edmonds, PrefersCheaperParent)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 5.0);
    g.add_edge(1, 2, 1.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    EXPECT_EQ(arb->parent[2], 1);
    EXPECT_DOUBLE_EQ(arb->weight, 2.0);
}

TEST(Edmonds, ResolvesCycle)
{
    // Greedy in-edges 1<->2 form a cycle; the algorithm must break it
    // through the root.
    Digraph g(3);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 1, 1.0);
    g.add_edge(0, 1, 10.0);
    g.add_edge(0, 2, 10.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    // One of the cheap cycle edges survives; one root edge enters.
    EXPECT_DOUBLE_EQ(arb->weight, 11.0);
    int root_children = 0;
    for (int v = 1; v < 3; ++v) {
        if (arb->parent[v] == 0)
            ++root_children;
    }
    EXPECT_EQ(root_children, 1);
}

TEST(Edmonds, UnreachableNodeFails)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    EXPECT_FALSE(min_arborescence(g, 0).has_value());
}

TEST(Edmonds, NestedCycles)
{
    // A 3-cycle of cheap edges plus expensive entries.
    Digraph g(4);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(3, 1, 1.0);
    g.add_edge(0, 1, 100.0);
    g.add_edge(0, 2, 50.0);
    g.add_edge(0, 3, 100.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    // Enter the cycle at 2 (cheapest), keep 2->3->1.
    EXPECT_EQ(arb->parent[2], 0);
    EXPECT_EQ(arb->parent[3], 2);
    EXPECT_EQ(arb->parent[1], 3);
    EXPECT_DOUBLE_EQ(arb->weight, 52.0);
}

/** Brute-force minimum spanning arborescence via enumeration. */
double
brute_force_weight(const Digraph& g, int root)
{
    // Try all parent assignments.
    const int n = g.num_nodes();
    std::vector<std::vector<std::pair<int, double>>> in(
        static_cast<std::size_t>(n));
    for (const auto& e : g.edges())
        in[static_cast<std::size_t>(e.dst)].push_back(
            {e.src, e.weight});
    double best = std::numeric_limits<double>::infinity();
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    auto rec = [&](auto&& self, int v, double cost) -> void {
        if (v == n) {
            // Verify: all nodes reach the root.
            for (int u = 0; u < n; ++u) {
                int cur = u;
                int steps = 0;
                while (cur != root && steps <= n) {
                    cur = parent[static_cast<std::size_t>(cur)];
                    ++steps;
                    if (cur < 0)
                        return;
                }
                if (cur != root)
                    return;
            }
            best = std::min(best, cost);
            return;
        }
        if (v == root) {
            self(self, v + 1, cost);
            return;
        }
        for (const auto& [src, w] : in[static_cast<std::size_t>(v)]) {
            parent[static_cast<std::size_t>(v)] = src;
            self(self, v + 1, cost + w);
        }
        parent[static_cast<std::size_t>(v)] = -1;
    };
    rec(rec, 0, 0.0);
    return best;
}

class EdmondsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdmondsRandom, MatchesBruteForce)
{
    rock::support::Rng rng(GetParam());
    const int n = 2 + static_cast<int>(rng.index(5));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v && rng.chance(0.7)) {
                g.add_edge(u, v,
                           static_cast<double>(rng.uniform(1, 20)));
            }
        }
    }
    double brute = brute_force_weight(g, 0);
    auto arb = min_arborescence(g, 0);
    if (std::isinf(brute)) {
        EXPECT_FALSE(arb.has_value());
    } else {
        ASSERT_TRUE(arb.has_value());
        EXPECT_NEAR(arb->weight, brute, 1e-9);
        // The returned parent vector must itself be a spanning
        // arborescence with the claimed weight.
        double total = 0.0;
        for (int v = 0; v < n; ++v) {
            int p = arb->parent[static_cast<std::size_t>(v)];
            if (v == 0) {
                EXPECT_EQ(p, -1);
                continue;
            }
            ASSERT_GE(p, 0);
            double cheapest =
                std::numeric_limits<double>::infinity();
            for (const auto& e : g.edges()) {
                if (e.src == p && e.dst == v)
                    cheapest = std::min(cheapest, e.weight);
            }
            total += cheapest;
        }
        EXPECT_NEAR(total, brute, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdmondsRandom,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------
// min_forest
// ---------------------------------------------------------------------

TEST(MinForest, SingleRootWhenConnected)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(1, 2, 0.5);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 1);
    EXPECT_EQ(forest.parent[0], -1);
    EXPECT_EQ(forest.parent[1], 0);
    EXPECT_EQ(forest.parent[2], 1);
    EXPECT_DOUBLE_EQ(forest.weight, 1.5);
}

TEST(MinForest, DisconnectedGraphYieldsMultipleRoots)
{
    Digraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(2, 3, 1.0);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 2);
    EXPECT_EQ(forest.parent[1], 0);
    EXPECT_EQ(forest.parent[3], 2);
}

TEST(MinForest, PenaltyDominatesEdgeWeights)
{
    // Even a very expensive real edge beats becoming a root
    // (Heuristic 4.1: prefer derived over root).
    Digraph g(2);
    g.add_edge(0, 1, 1e6);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 1);
    EXPECT_EQ(forest.parent[1], 0);
}

TEST(MinForest, EmptyGraph)
{
    Digraph g(0);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 0);
    EXPECT_TRUE(forest.parent.empty());
}

TEST(MinForest, NoEdgesAllRoots)
{
    Digraph g(3);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 3);
}

std::uint64_t
contractions()
{
    return rock::obs::Registry::global()
        .counter("graph.edmonds.contractions")
        .value();
}

/**
 * Seeded integer-weight graph with many ties: n <= 12 nodes, weights
 * in {0, 1, 2}, edges in random order with parallel edges allowed.
 */
Digraph
tie_heavy_graph(std::uint64_t seed)
{
    rock::support::Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.index(12));
    Digraph g(n);
    if (n < 2)
        return g;
    const int m = static_cast<int>(
        rng.index(static_cast<std::size_t>(2 * n * n) + 1));
    for (int i = 0; i < m; ++i) {
        const int u =
            static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int v = static_cast<int>(
            rng.index(static_cast<std::size_t>(n - 1)));
        if (v >= u)
            ++v;
        g.add_edge(u, v, static_cast<double>(rng.uniform(0, 2)));
    }
    return g;
}

std::uint64_t
fnv_mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(MinForest, TieBreakingMatchesLevelByLevelSolver)
{
    // Digest of (parent vector, num_roots, contractions) over 5000
    // tie-heavy graphs, recorded from the level-by-level Chu-Liu/
    // Edmonds solver this one replaced: the same cheapest reduced
    // in-edge, ties to the lowest edge index, one contraction per
    // cycle.
    ASSERT_TRUE(rock::obs::metrics_enabled());
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t total_contractions = 0;
    for (std::uint64_t seed = 1; seed <= 5000; ++seed) {
        const Digraph g = tie_heavy_graph(seed);
        const std::uint64_t before = contractions();
        const Arborescence forest = min_forest(g);
        const std::uint64_t contracted = contractions() - before;
        total_contractions += contracted;
        digest = fnv_mix(digest, static_cast<std::uint64_t>(g.num_nodes()));
        for (int p : forest.parent)
            digest = fnv_mix(digest, static_cast<std::uint64_t>(p + 1));
        digest = fnv_mix(digest,
                         static_cast<std::uint64_t>(forest.num_roots));
        digest = fnv_mix(digest, contracted);
    }
    EXPECT_EQ(total_contractions, 15368u);
    EXPECT_EQ(digest, 0x0ca04a0e584b176eull);
}

TEST(MinForest, ThousandsOfNestedContractions)
{
    // Chain 0 -> 1 -> ... -> n-1 at weight 0 plus back edges k -> 0
    // at weight 1. Every contraction swallows exactly one more node:
    // {0,1}, then {01,2}, ... -- n-1 nested cycles, one per level of
    // the level-by-level formulation.
    constexpr int n = 5000;
    Digraph g(n);
    for (int k = 1; k < n; ++k)
        g.add_edge(k, 0, 1.0);
    for (int i = 0; i + 1 < n; ++i)
        g.add_edge(i, i + 1, 0.0);
    const std::uint64_t before = contractions();
    const Arborescence forest = min_forest(g);
    EXPECT_EQ(contractions() - before, static_cast<std::uint64_t>(n - 1));
    EXPECT_EQ(forest.num_roots, 1);
    EXPECT_EQ(forest.weight, 0.0);
    EXPECT_EQ(forest.parent[0], -1);
    for (int v = 1; v < n; ++v)
        ASSERT_EQ(forest.parent[static_cast<std::size_t>(v)], v - 1);
}

// ---------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------

TEST(Enumerate, FindsAllCoOptimalForests)
{
    // Symmetric pair: either direction is optimal.
    Digraph g(2);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 0, 1.0);
    auto forests = enumerate_min_forests(g);
    EXPECT_EQ(forests.size(), 2u);
}

TEST(Enumerate, CompleteSymmetricStarCounts)
{
    // Complete digraph on 4 nodes with equal weights: n^(n-1) = 64
    // spanning arborescences (the echoparams count).
    Digraph g(4);
    for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    EnumerateConfig config;
    config.max_results = 1000;
    auto forests = enumerate_min_forests(g, config);
    EXPECT_EQ(forests.size(), 64u);
}

TEST(Enumerate, UniqueOptimumYieldsOneForest)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 2.0);
    g.add_edge(1, 2, 1.0);
    auto forests = enumerate_min_forests(g);
    ASSERT_EQ(forests.size(), 1u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 1}));
}

TEST(Enumerate, FirstResultIsOptimal)
{
    rock::support::Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        const int n = 2 + static_cast<int>(rng.index(4));
        Digraph g(n);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u != v && rng.chance(0.8)) {
                    g.add_edge(
                        u, v,
                        static_cast<double>(rng.uniform(1, 9)));
                }
            }
        }
        Arborescence best = min_forest(g);
        auto forests = enumerate_min_forests(g);
        ASSERT_FALSE(forests.empty());
        EXPECT_NEAR(forests[0].weight, best.weight, 1e-9);
        EXPECT_EQ(forests[0].num_roots, best.num_roots);
    }
}

TEST(Enumerate, RespectsMaxResults)
{
    Digraph g(4);
    for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    EnumerateConfig config;
    config.max_results = 10;
    auto forests = enumerate_min_forests(g, config);
    EXPECT_EQ(forests.size(), 10u);
}

TEST(Enumerate, BudgetCountersRecordTruncatedSearches)
{
    auto& registry = rock::obs::Registry::global();
    auto& step_hits = registry.counter("graph.enumerate.step_budget_hits");
    auto& cap_hits = registry.counter("graph.enumerate.result_cap_hits");
    Digraph g(4); // 64 equally minimal spanning arborescences
    for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    auto delta = [&](const EnumerateConfig& config) {
        const std::uint64_t steps0 = step_hits.value();
        const std::uint64_t caps0 = cap_hits.value();
        enumerate_min_forests(g, config);
        return std::pair{step_hits.value() - steps0,
                         cap_hits.value() - caps0};
    };
    EXPECT_EQ(delta({1e-9, 1000, 2000000}),
              (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
    EXPECT_EQ(delta({1e-9, 10, 2000000}),
              (std::pair<std::uint64_t, std::uint64_t>{0, 1}));
    EXPECT_EQ(delta({1e-9, 1000, 5}),
              (std::pair<std::uint64_t, std::uint64_t>{1, 0}));
}

TEST(Enumerate, EpsilonAdmitsNearOptimal)
{
    Digraph g(2);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 0, 1.5);
    EnumerateConfig tight;
    EXPECT_EQ(enumerate_min_forests(g, tight).size(), 1u);
    EnumerateConfig loose;
    loose.epsilon = 1.0;
    EXPECT_EQ(enumerate_min_forests(g, loose).size(), 2u);
}

// ---------------------------------------------------------------------
// Exact structural ambiguity
// ---------------------------------------------------------------------

/** Unbudgeted search for a second min-root forest. */
bool
searched_ambiguous(const Digraph& g)
{
    return enumerate_min_forests(
               g, {0.0, 2, std::numeric_limits<long>::max()})
               .size() > 1;
}

TEST(Ambiguity, MutualParentSourceCycleIsAmbiguous)
{
    // Either node of the source 2-cycle can be the root.
    Digraph g(3);
    g.add_edge(0, 1, 0.0);
    g.add_edge(1, 0, 0.0);
    g.add_edge(1, 2, 0.0);
    EXPECT_TRUE(has_multiple_min_root_forests(g));
    EXPECT_TRUE(searched_ambiguous(g));
}

TEST(Ambiguity, ChainIsUnambiguous)
{
    Digraph g(3);
    g.add_edge(0, 1, 0.0);
    g.add_edge(1, 2, 0.0);
    EXPECT_FALSE(has_multiple_min_root_forests(g));
    EXPECT_FALSE(searched_ambiguous(g));
}

TEST(Ambiguity, DiamondIsAmbiguous)
{
    // Node 3 can hang under 1 or 2.
    Digraph g(4);
    g.add_edge(0, 1, 0.0);
    g.add_edge(0, 2, 0.0);
    g.add_edge(1, 3, 0.0);
    g.add_edge(2, 3, 0.0);
    EXPECT_TRUE(has_multiple_min_root_forests(g));
    EXPECT_TRUE(searched_ambiguous(g));
}

TEST(Ambiguity, BackEdgeIntoDominatingAncestorIsUnambiguous)
{
    // 2 -> 1 would close a cycle: 1 dominates 2, so 1's only usable
    // parent is 0. Parallel edges do not count twice.
    Digraph g(3);
    g.add_edge(0, 1, 0.0);
    g.add_edge(1, 2, 0.0);
    g.add_edge(1, 2, 0.0);
    g.add_edge(2, 1, 0.0);
    EXPECT_FALSE(has_multiple_min_root_forests(g));
    EXPECT_FALSE(searched_ambiguous(g));
}

TEST(Ambiguity, MatchesUnbudgetedEnumerationOnRandomGraphs)
{
    rock::support::Rng rng(2018);
    int ambiguous = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const int n = 1 + static_cast<int>(rng.index(9));
        const double density = 0.05 + 0.4 * rng.real();
        Digraph g(n);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u != v && rng.chance(density))
                    g.add_edge(u, v, 0.0);
            }
        }
        const bool exact = has_multiple_min_root_forests(g);
        ASSERT_EQ(exact, searched_ambiguous(g)) << "trial " << trial;
        ambiguous += exact ? 1 : 0;
    }
    // Both answers occur often enough to make the agreement count.
    EXPECT_GT(ambiguous, 5000);
    EXPECT_LT(ambiguous, 15000);
}

TEST(Digraph, RejectsBadEdges)
{
    Digraph g(2);
    EXPECT_THROW(g.add_edge(0, 0, 1.0), rock::support::PanicError);
    EXPECT_THROW(g.add_edge(0, 5, 1.0), rock::support::PanicError);
}

} // namespace
