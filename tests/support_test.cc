/**
 * @file
 * Unit tests for rock::support.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "support/error.h"
#include "support/log.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/str.h"

namespace {

using namespace rock::support;

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("boom");
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(Error, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Error, CheckPassesAndFails)
{
    EXPECT_NO_THROW(check(true, "fine"));
    EXPECT_THROW(check(false, "bad"), FatalError);
}

TEST(Error, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(ROCK_ASSERT(1 == 2, "math"), PanicError);
    EXPECT_NO_THROW(ROCK_ASSERT(1 == 1, "math"));
}

TEST(Log, LevelGatesMessages)
{
    LogLevel old = log_level();
    set_log_level(LogLevel::Off);
    // Just exercising the path; nothing should be printed or crash.
    log_message(LogLevel::Error, "suppressed");
    ROCK_LOG_ERROR << "also suppressed " << 42;
    set_log_level(old);
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniform(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformSingletonRange)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.uniform(0, 1 << 30) == b.uniform(0, 1 << 30))
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, IndexCoversAllSlots)
{
    Rng rng(3);
    std::set<std::size_t> seen;
    for (int i = 0; i < 400; ++i)
        seen.insert(rng.index(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RealWithinUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, LengthRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        std::size_t len = rng.length(2, 6);
        EXPECT_GE(len, 2u);
        EXPECT_LE(len, 6u);
    }
}

TEST(Rng, WeightedNeverPicksZeroWeight)
{
    Rng rng(13);
    std::vector<double> weights{0.0, 1.0, 0.0, 2.0};
    for (int i = 0; i < 300; ++i) {
        std::size_t pick = rng.weighted(weights);
        EXPECT_TRUE(pick == 1 || pick == 3);
    }
}

TEST(Rng, WeightedRequiresPositiveTotal)
{
    Rng rng(13);
    std::vector<double> weights{0.0, 0.0};
    EXPECT_THROW(rng.weighted(weights), PanicError);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(17);
    std::vector<int> items{1, 2, 3, 4, 5, 6};
    auto copy = items;
    rng.shuffle(items);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(copy.begin(), copy.end());
    EXPECT_EQ(a, b);
}

TEST(Str, HexFormats)
{
    EXPECT_EQ(hex(0), "0x0");
    EXPECT_EQ(hex(0x1000), "0x1000");
    EXPECT_EQ(hex(0xdeadbeef), "0xdeadbeef");
}

TEST(Str, JoinEmptyAndNonEmpty)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({"a", "b", "c"}, "; "), "a; b; c");
}

TEST(Str, FormatBasics)
{
    EXPECT_EQ(format("x=%d", 42), "x=42");
    EXPECT_EQ(format("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(format("%05x", 0xab), "000ab");
}

TEST(Parallel, ResolveThreads)
{
    EXPECT_EQ(resolve_threads(1), 1);
    EXPECT_EQ(resolve_threads(4), 4);
    EXPECT_EQ(resolve_threads(-3), 1);
    EXPECT_GE(resolve_threads(0), 1); // hardware concurrency
}

TEST(Parallel, EveryIndexRunsExactlyOnce)
{
    for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        std::vector<int> hits(101, 0);
        pool.parallel_for(hits.size(), nullptr, [&](std::size_t i) {
            hits[i] += 1; // slot write, no synchronization needed
        });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 101);
        EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                [](int h) { return h == 1; }));
    }
}

TEST(Parallel, PoolIsReusableAcrossLoops)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> sum{0};
        pool.parallel_for(50, nullptr, [&](std::size_t i) {
            sum += static_cast<int>(i);
        });
        EXPECT_EQ(sum.load(), 49 * 50 / 2);
    }
}

TEST(Parallel, ExceptionPropagatesToCaller)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(pool.parallel_for(10, nullptr,
                                       [](std::size_t i) {
                                           if (i == 7)
                                               throw std::runtime_error(
                                                   "item 7");
                                       }),
                     std::runtime_error);
        // The pool must survive a throwing loop and run the next one.
        std::atomic<int> count{0};
        pool.parallel_for(10, nullptr, [&](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 10);
    }
}

TEST(Parallel, EmptyAndSingleItemLoops)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, nullptr, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, nullptr, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, ZeroItemLoopAcrossPoolSizes)
{
    // An empty index space must return immediately (no worker
    // wake-up deadlock) for the inline pool, a normal pool, and an
    // oversubscribed one -- and leave the pool usable.
    for (int threads : {1, 2, 8, 19}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        int calls = 0;
        pool.parallel_for(0, nullptr, [&](std::size_t) { ++calls; });
        EXPECT_EQ(calls, 0);
        std::atomic<int> after{0};
        pool.parallel_for(3, nullptr, [&](std::size_t) { ++after; });
        EXPECT_EQ(after.load(), 3);
    }
}

TEST(Parallel, OversubscribedPoolCoversEveryItem)
{
    // More workers than items: most workers find no chunk, every item
    // still runs exactly once.
    ThreadPool pool(16);
    std::vector<int> hits(5, 0);
    pool.parallel_for(hits.size(), nullptr,
                      [&](std::size_t i) { hits[i] += 1; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }));
}

TEST(Parallel, AllWorkersThrowingStillRecovers)
{
    // Every item throws; exactly one exception reaches the caller and
    // the pool keeps working afterwards.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(8, nullptr,
                                   [](std::size_t i) {
                                       throw std::runtime_error(
                                           "item " +
                                           std::to_string(i));
                                   }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallel_for(8, nullptr, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(Parallel, InlinePoolPropagatesExceptionAndSurvives)
{
    // threads=1 runs inline on the caller; the exception path must
    // behave exactly like the threaded one.
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallel_for(4, nullptr,
                                   [](std::size_t i) {
                                       if (i == 2)
                                           throw std::logic_error(
                                               "inline");
                                   }),
                 std::logic_error);
    int calls = 0;
    pool.parallel_for(4, nullptr, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 4);
}

TEST(Parallel, HeterogeneousStageReuse)
{
    // The pipeline drives one pool through stages of very different
    // shapes (many tiny items, then few heavy ones, then none).
    ThreadPool pool(3);
    std::vector<int> small(200, 0);
    pool.parallel_for(small.size(), nullptr,
                      [&](std::size_t i) { small[i] = 1; });
    std::vector<long> heavy(2, 0);
    pool.parallel_for(heavy.size(), nullptr, [&](std::size_t i) {
        long acc = 0;
        for (int j = 0; j < 10000; ++j)
            acc += static_cast<long>(i) + j;
        heavy[i] = acc;
    });
    pool.parallel_for(0, nullptr, [&](std::size_t) { FAIL(); });
    EXPECT_EQ(std::accumulate(small.begin(), small.end(), 0), 200);
    EXPECT_EQ(heavy[0] + 10000 * static_cast<long>(1),
              heavy[1]);
}

TEST(Parallel, LoopsAndItemsCountCallsNotChunks)
{
    // threadpool.loops is +1 per call and threadpool.items the loop
    // count or the task count, never the chunk count, so both are
    // independent of the pool size.
    rock::obs::Counter& loops =
        rock::obs::Registry::global().counter("threadpool.loops");
    rock::obs::Counter& items =
        rock::obs::Registry::global().counter("threadpool.items");
    for (int threads : {1, 3}) {
        ThreadPool pool(threads);
        const std::uint64_t loops0 = loops.value();
        const std::uint64_t items0 = items.value();
        pool.parallel_for(37, nullptr, [](std::size_t) {});
        pool.run_tasks(std::vector<Task>(5, Task{[] {}, {}}));
        pool.parallel_for(0, nullptr, [](std::size_t) {});
        EXPECT_EQ(loops.value() - loops0, 3u);
        EXPECT_EQ(items.value() - items0, 42u);
    }
}

// ---------------------------------------------------------------------
// Cost-aware chunk planning
// ---------------------------------------------------------------------

TEST(PlanChunks, CoversIndexSpaceContiguously)
{
    for (std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
        for (std::size_t workers : {1u, 2u, 4u, 16u}) {
            auto chunks = plan_chunks(count, workers, nullptr);
            std::size_t next = 0;
            for (const Chunk& c : chunks) {
                EXPECT_EQ(c.begin, next);
                EXPECT_LT(c.begin, c.end);
                next = c.end;
            }
            EXPECT_EQ(next, count);
        }
    }
}

TEST(PlanChunks, ChunkCountBoundedByTarget)
{
    // Chunks never exceed 4 per worker; the inline (1-worker) path
    // then runs them in index order, which is exactly the plain loop.
    EXPECT_LE(plan_chunks(100, 1, nullptr).size(), 4u);
    EXPECT_LE(plan_chunks(1000, 4, nullptr).size(), 16u);
    // Fewer items than the target: one item per chunk at most.
    EXPECT_LE(plan_chunks(3, 8, nullptr).size(), 3u);
}

TEST(PlanChunks, CostsEqualizeCumulativeWork)
{
    // One huge item up front must not drag its whole static share
    // along with it: the expensive item gets a chunk of its own.
    std::vector<std::uint64_t> costs(16, 1);
    costs[0] = 1000;
    auto chunks = plan_chunks(costs.size(), 4, costs.data());
    ASSERT_GE(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].begin, 0u);
    EXPECT_EQ(chunks[0].end, 1u);
    std::size_t next = 0;
    for (const Chunk& c : chunks) {
        EXPECT_EQ(c.begin, next);
        next = c.end;
    }
    EXPECT_EQ(next, costs.size());
}

TEST(PlanChunks, DeterministicForSameInputs)
{
    std::vector<std::uint64_t> costs;
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        costs.push_back(
            static_cast<std::uint64_t>(rng.uniform(0, 49)));
    auto a = plan_chunks(costs.size(), 8, costs.data());
    auto b = plan_chunks(costs.size(), 8, costs.data());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
    }
}

// ---------------------------------------------------------------------
// Cost-chunked parallel_for: coverage + determinism sweep
// ---------------------------------------------------------------------

TEST(Parallel, ChunkedEveryIndexRunsExactlyOnce)
{
    std::vector<std::uint64_t> costs(301);
    Rng rng(17);
    for (auto& c : costs)
        c = static_cast<std::uint64_t>(rng.uniform(0, 19));
    for (int threads : {1, 2, 5}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(costs.size());
        for (auto& h : hits)
            h.store(0);
        pool.parallel_for(costs.size(), costs.data(),
                          [&](std::size_t i) { hits[i] += 1; });
        for (const auto& h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, ChunkedDeterminismSweep)
{
    // The determinism contract: items write only their own slot, so
    // the merged output is bit-identical at every thread count and
    // under every chunk schedule. Simulate a cost-skewed stage and
    // sweep threads {1, 2, hw}.
    const std::size_t n = 400;
    std::vector<std::uint64_t> costs(n);
    Rng rng(23);
    for (auto& c : costs)
        c = static_cast<std::uint64_t>(rng.uniform(1, 100));

    auto run = [&](int threads) {
        ThreadPool pool(threads);
        std::vector<double> out(n, 0.0);
        pool.parallel_for(n, costs.data(), [&](std::size_t i) {
            // Work whose result depends on floating-point
            // accumulation order *within* the item only.
            double acc = 0.0;
            for (std::uint64_t j = 0; j < costs[i]; ++j)
                acc += 1.0 / static_cast<double>(i + j + 1);
            out[i] = acc;
        });
        return out;
    };

    std::vector<double> serial = run(1);
    const int hw = resolve_threads(0);
    for (int threads : {2, hw}) {
        std::vector<double> parallel = run(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(std::memcmp(&parallel[i], &serial[i],
                                  sizeof(double)),
                      0)
                << "slot " << i << " differs at " << threads
                << " threads";
    }
}

TEST(Parallel, ChunkedExceptionPropagates)
{
    std::vector<std::uint64_t> costs(64, 1);
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(costs.size(), costs.data(),
                                   [&](std::size_t i) {
                                       if (i == 40)
                                           throw std::runtime_error(
                                               "chunked boom");
                                   }),
                 std::runtime_error);
    // The pool survives for the next loop.
    std::atomic<int> calls{0};
    pool.parallel_for(4, costs.data(), [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 4);
}

TEST(Parallel, InlineLoopCancelsLaterChunksAfterThrow)
{
    // A size-1 pool runs 16 items as 4 chunks of 4 in index order;
    // the throw at item 1 abandons its chunk and cancels the rest.
    ThreadPool pool(1);
    std::vector<int> hits(16, 0);
    EXPECT_THROW(pool.parallel_for(hits.size(), nullptr,
                                   [&](std::size_t i) {
                                       hits[i] += 1;
                                       if (i == 1)
                                           throw std::runtime_error(
                                               "item 1");
                                   }),
                 std::runtime_error);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 2);
}

// ---------------------------------------------------------------------
// run_tasks: dependency graphs
// ---------------------------------------------------------------------

TEST(RunTasks, DepsFinishBeforeTheirDependents)
{
    // A random DAG over a random topological order (deps may point to
    // higher indices): every dep's end stamp precedes its dependent's
    // start stamp, and every task runs exactly once.
    const std::size_t n = 120;
    Rng rng(31);
    std::vector<std::size_t> rank(n);
    std::iota(rank.begin(), rank.end(), 0);
    for (std::size_t i = n; i > 1; --i)
        std::swap(rank[i - 1],
                  rank[static_cast<std::size_t>(rng.uniform(
                      0, static_cast<int>(i) - 1))]);
    for (int threads : {1, 2, 5}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<int> clock{0};
        std::vector<int> start(n, -1);
        std::vector<int> end(n, -1);
        std::vector<Task> tasks(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (rank[j] < rank[i] && rng.uniform(0, 9) == 0)
                    tasks[i].deps.push_back(j);
            }
            tasks[i].fn = [&, i] {
                EXPECT_EQ(start[i], -1);
                start[i] = clock++;
                end[i] = clock++;
            };
        }
        pool.run_tasks(tasks);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_GE(start[i], 0) << "task " << i << " never ran";
            for (std::size_t d : tasks[i].deps)
                EXPECT_LT(end[d], start[i])
                    << "dep " << d << " of task " << i;
        }
    }
}

TEST(RunTasks, SerialPoolRunsLowestReadyIndexFirst)
{
    // 0 waits on 3, 2 waits on 1: ready {1, 3} -> 1, then {2, 3} -> 2,
    // then 3, then 0.
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    std::vector<Task> tasks(4);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        tasks[i].fn = [&, i] { order.push_back(i); };
    tasks[0].deps = {3};
    tasks[2].deps = {1};
    pool.run_tasks(tasks);
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 0}));

    // Without deps that is plain index order.
    order.clear();
    std::vector<Task> flat(6);
    for (std::size_t i = 0; i < flat.size(); ++i)
        flat[i].fn = [&, i] { order.push_back(i); };
    pool.run_tasks(flat);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RunTasks, FirstExceptionCancelsUnstartedTasks)
{
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        // Every other task waits on the throwing task 0, so none of
        // them can have started when it throws.
        std::atomic<int> ran{0};
        std::vector<Task> tasks(20);
        tasks[0].fn = [] { throw std::runtime_error("first"); };
        for (std::size_t i = 1; i < tasks.size(); ++i) {
            tasks[i].fn = [&] {
                ++ran;
                throw std::runtime_error("later");
            };
            tasks[i].deps = {0};
        }
        try {
            pool.run_tasks(tasks);
            ADD_FAILURE() << "run_tasks did not throw";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "first");
        }
        EXPECT_EQ(ran.load(), 0);

        // The pool stays usable.
        std::vector<Task> again(8, Task{[&] { ++ran; }, {}});
        pool.run_tasks(again);
        EXPECT_EQ(ran.load(), 8);
    }
}

TEST(RunTasks, CycleThrowsWithoutDeadlock)
{
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<int> ran{0};
        std::vector<Task> tasks(4, Task{[&] { ++ran; }, {}});
        tasks[0].deps = {1};
        tasks[1].deps = {2};
        tasks[2].deps = {0};
        try {
            pool.run_tasks(tasks);
            ADD_FAILURE() << "run_tasks did not throw";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unsatisfiable dependencies"),
                      std::string::npos);
        }
        EXPECT_EQ(ran.load(), 1); // only task 3 is outside the cycle

        std::vector<Task> again(3, Task{[&] { ++ran; }, {}});
        pool.run_tasks(again);
        EXPECT_EQ(ran.load(), 4);
    }
}

TEST(RunTasks, OutOfRangeDepThrowsBeforeRunning)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        int ran = 0;
        std::vector<Task> tasks(2, Task{[&] { ++ran; }, {}});
        tasks[1].deps = {2};
        EXPECT_THROW(pool.run_tasks(tasks), std::runtime_error);
        EXPECT_EQ(ran, 0);
    }
}

TEST(RunTasks, EmptyGraphReturnsAtOnce)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_NO_THROW(pool.run_tasks({}));
    }
}

} // namespace
