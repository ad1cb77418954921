/**
 * @file
 * google-benchmark microbenchmarks for the arborescence solver and
 * the co-optimal enumerator.
 */
#include <benchmark/benchmark.h>

#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "graph/enumerate.h"
#include "support/rng.h"

namespace {

using namespace rock;

graph::Digraph
random_graph(int n, double density, std::uint64_t seed)
{
    support::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v && rng.chance(density)) {
                g.add_edge(u, v, rng.real() * 10.0 + 0.1);
            }
        }
    }
    return g;
}

void
BM_MinForest(benchmark::State& state)
{
    graph::Digraph g =
        random_graph(static_cast<int>(state.range(0)), 0.5, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::min_forest(g));
}
BENCHMARK(BM_MinForest)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

/**
 * A type family shaped like the giant family of `rockc --synthetic
 * 2000`: about 64 weighed candidate parents per member, and a
 * zero-weight rule-3 forced parent (always an earlier member, so the
 * forced edges form a forest) on 88% of the members.
 */
graph::Digraph
family_graph(int n, std::uint64_t seed)
{
    support::Rng rng(seed);
    graph::Digraph g(n);
    for (int v = 0; v < n; ++v) {
        if (v > 0 && rng.chance(0.88))
            g.add_edge(static_cast<int>(rng.index(
                           static_cast<std::size_t>(v))),
                       v, 0.0);
        for (int k = 0; k < 64; ++k) {
            int u = static_cast<int>(
                rng.index(static_cast<std::size_t>(n - 1)));
            if (u >= v)
                ++u;
            g.add_edge(u, v, rng.real() * 10.0 + 0.1);
        }
    }
    return g;
}

void
BM_MinForestFamily(benchmark::State& state)
{
    graph::Digraph g = family_graph(static_cast<int>(state.range(0)), 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::min_forest(g));
}
BENCHMARK(BM_MinForestFamily)->Arg(2200);

void
BM_EnumerateCoOptimal(benchmark::State& state)
{
    // Equal weights force many ties: the enumerator's hard case.
    const int n = static_cast<int>(state.range(0));
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    graph::EnumerateConfig config;
    config.max_results = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            graph::enumerate_min_forests(g, config));
    }
}
BENCHMARK(BM_EnumerateCoOptimal)->Arg(4)->Arg(6)->Arg(8);

} // namespace

BENCHMARK_MAIN();
