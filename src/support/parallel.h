/**
 * @file
 * Deterministic data parallelism for the reconstruction pipeline.
 *
 * The paper's Section 3.2 scalability argument -- the analysis is
 * strictly intra-procedural, so its cost is linear in the number of
 * procedures -- makes every expensive pipeline stage embarrassingly
 * parallel over independent work items (functions, types, edges,
 * families). This header provides the one concurrency primitive the
 * code base uses: ThreadPool, a fixed-size pool of workers with one
 * scheduler.
 *
 * The scheduler runs a dependency graph of tasks (`run_tasks`): idle
 * workers claim the lowest-index ready task from a shared queue. An
 * index-space loop (`parallel_for`) is the dependency-free special
 * case: plan_chunks() cuts [0, count) into contiguous chunks of
 * roughly equal *cost* (per-item costs supplied by the caller, e.g.
 * instruction counts), one task per chunk, so one expensive item
 * cannot serialize the tail of the loop. A pool of size 1 runs the
 * ready tasks inline on the caller in ascending index order; for a
 * loop that is exactly the plain serial `for`.
 *
 * Determinism contract: every item writes only its own pre-allocated
 * output slot and callers merge slots in index order afterwards. Task
 * *placement* varies with scheduling, but the item->slot mapping never
 * does, so the observable output is bit-identical for every thread
 * count and every schedule, which tests/determinism_test.cc enforces
 * end to end.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rock::support {

/**
 * Resolve a user-facing `threads` knob to a concrete worker count:
 * 0 -> std::thread::hardware_concurrency() (at least 1), otherwise
 * max(1, threads).
 */
int resolve_threads(int threads);

/** One contiguous [begin, end) slice of the index space. */
struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * One node of a ThreadPool::run_tasks() dependency graph: a thunk
 * plus the indices of the tasks that must complete before it may run.
 */
struct Task {
    std::function<void()> fn;
    std::vector<std::size_t> deps;
};

/**
 * Partition [0, count) into at most 4 contiguous chunks per worker
 * (never more chunks than items). With @p costs null the chunks hold
 * equal item counts; otherwise @p costs holds `count` non-negative
 * per-item costs (instruction counts, byte sizes, symbol counts) and
 * chunk boundaries equalize cumulative cost, charging zero-cost items
 * 1. Deterministic: depends only on (count, workers, costs), never on
 * scheduling.
 */
std::vector<Chunk> plan_chunks(std::size_t count, std::size_t workers,
                               const std::uint64_t* costs);

/**
 * Fixed-size worker pool.
 *
 * One pool serves many calls (the pipeline reuses a single pool
 * across all its stages); calls are serialized -- the pool runs one
 * graph at a time and each call blocks until its graph has drained.
 *
 * Exceptions: the first exception thrown by a task or loop body
 * cancels every task not yet started (their bodies never run) and is
 * rethrown on the caller once the running tasks have finished. The
 * pool stays usable afterwards.
 */
class ThreadPool {
  public:
    /**
     * @param threads  resolved worker count (see resolve_threads());
     *                 <= 1 creates no worker threads and runs every
     *                 call inline on the calling thread.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of threads that execute task bodies (>= 1). */
    int size() const;

    /**
     * Run @p body(i) for every i in [0, count): one dependency-free
     * task per plan_chunks(count, size(), @p costs) chunk, each
     * running its indices in order.
     */
    void parallel_for(std::size_t count, const std::uint64_t* costs,
                      const std::function<void(std::size_t)>& body);

    /**
     * Execute a dependency DAG of tasks: each task runs after all of
     * its deps, idle workers claim whatever is ready (lowest index
     * first), and the call blocks until the whole graph has drained.
     * This is the per-family stage-pipelining primitive: independent
     * chains (one per family) flow through the pool concurrently with
     * no global barrier between pipeline stages.
     *
     * The task *count* and graph shape must not depend on the worker
     * count (they feed the deterministic `threadpool.items` counter).
     * A graph with an out-of-range dep throws before any task runs;
     * one with a cycle throws "unsatisfiable dependencies" once
     * nothing else can run, without deadlocking.
     */
    void run_tasks(const std::vector<Task>& tasks);

  private:
    struct Graph;

    void execute(const std::vector<Task>& tasks);
    void worker_loop(std::size_t worker);

    /** Worker count fixed before any thread starts (1 = inline). */
    std::size_t num_workers_ = 1;

    std::mutex mutex_;
    /** Workers wait here for ready tasks. */
    std::condition_variable work_cv_;
    /** The caller waits here for its graph to drain. */
    std::condition_variable done_cv_;
    /** Graph being run by the workers, or null; guarded by mutex_. */
    Graph* graph_ = nullptr;
    bool stop_ = false;

    std::vector<std::thread> workers_;
};

} // namespace rock::support
