#include "support/parallel.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <queue>
#include <stdexcept>

#include "obs/metrics.h"

namespace rock::support {

namespace {

/**
 * Chunks planned per worker: >1 lets fast workers take the slack of
 * slow ones, while 4 keeps dispatch overhead ~1/4W of the loop and
 * bounds the imbalance to about one chunk.
 */
constexpr std::size_t kChunksPerWorker = 4;

/**
 * Pool telemetry. Loop/item counts depend only on the call sequence,
 * never on the worker count, so they live in the deterministic
 * counter section; busy time and utilization are scheduling facts and
 * go to the timing section (docs/OBSERVABILITY.md).
 */
struct PoolMetrics {
    obs::Counter& loops =
        obs::Registry::global().counter("threadpool.loops");
    obs::Counter& items =
        obs::Registry::global().counter("threadpool.items");
    obs::Histogram& chunks = obs::Registry::global().histogram(
        "threadpool.loop_chunks");
    obs::Gauge& workers =
        obs::Registry::global().gauge("threadpool.workers");
    obs::Gauge& utilization =
        obs::Registry::global().gauge("threadpool.utilization");
    obs::Histogram& busy_ms = obs::Registry::global().histogram(
        "threadpool.worker_busy_ms");
};

PoolMetrics&
pool_metrics()
{
    static PoolMetrics m;
    return m;
}

double
ms_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

/**
 * Scheduling state of one run_tasks()/parallel_for() call. Everything
 * but the read-only `tasks` is guarded by the pool mutex.
 */
struct ThreadPool::Graph {
    Graph(const std::vector<Task>& graph_tasks, std::size_t workers)
        : tasks(graph_tasks), pending(graph_tasks.size(), 0),
          dependents(graph_tasks.size()), busy_ms(workers, 0.0)
    {
        const std::size_t n = tasks.size();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t d : tasks[i].deps) {
                if (d >= n) {
                    throw std::runtime_error(
                        "run_tasks: dependency index out of range");
                }
                dependents[d].push_back(i);
                ++pending[i];
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (pending[i] == 0)
                ready.push(i);
        }
    }

    /**
     * Claim the lowest ready task, run it with @p lock released
     * (skipping it once an error is recorded), then release its
     * dependents. Requires !ready.empty(). The lowest-index-first
     * order is a valid topological order and, run by one thread, the
     * one fixed serial schedule of the size-1 pool.
     */
    void
    run_one(std::unique_lock<std::mutex>& lock, std::size_t worker)
    {
        const std::size_t t = ready.top();
        ready.pop();
        ++running;
        const bool cancelled = error != nullptr;
        lock.unlock();
        std::exception_ptr thrown;
        double busy = 0.0;
        if (!cancelled) {
            const auto t0 = std::chrono::steady_clock::now();
            try {
                tasks[t].fn();
            } catch (...) {
                thrown = std::current_exception();
            }
            busy = ms_between(t0, std::chrono::steady_clock::now());
        }
        lock.lock();
        if (thrown && !error)
            error = thrown;
        busy_ms[worker] += busy;
        --running;
        ++finished;
        for (std::size_t d : dependents[t]) {
            if (--pending[d] == 0)
                ready.push(d);
        }
    }

    /** Nothing is ready and nothing runs: done, or stuck on a cycle. */
    bool
    drained() const
    {
        return ready.empty() && running == 0;
    }

    const std::vector<Task>& tasks;
    /** Unfinished deps per task. */
    std::vector<std::size_t> pending;
    std::vector<std::vector<std::size_t>> dependents;
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>>
        ready;
    std::size_t running = 0;
    std::size_t finished = 0;
    /** First exception thrown; cancels every task not yet started. */
    std::exception_ptr error;
    /** Per-worker time spent in task bodies. */
    std::vector<double> busy_ms;
};

int
resolve_threads(int threads)
{
    if (threads != 0)
        return std::max(1, threads);
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<Chunk>
plan_chunks(std::size_t count, std::size_t workers,
            const std::uint64_t* costs)
{
    std::vector<Chunk> chunks;
    if (count == 0)
        return chunks;
    const std::size_t target = std::min(
        count, std::max<std::size_t>(1, workers) * kChunksPerWorker);

    if (!costs) {
        // Uniform items: equal-count contiguous slices.
        std::size_t base = count / target;
        std::size_t extra = count % target;
        std::size_t begin = 0;
        for (std::size_t c = 0; c < target; ++c) {
            std::size_t len = base + (c < extra ? 1 : 0);
            chunks.push_back({begin, begin + len});
            begin += len;
        }
        return chunks;
    }

    // Cost-balanced: cut whenever the cumulative cost passes the next
    // multiple of total/target. Zero-cost items are charged 1 so
    // degenerate cost vectors still partition.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i)
        total += std::max<std::uint64_t>(1, costs[i]);
    std::uint64_t per_chunk = std::max<std::uint64_t>(
        1, total / static_cast<std::uint64_t>(target));

    std::size_t begin = 0;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
        acc += std::max<std::uint64_t>(1, costs[i]);
        if (i + 1 == count || acc >= per_chunk) {
            chunks.push_back({begin, i + 1});
            begin = i + 1;
            acc = 0;
        }
    }
    return chunks;
}

ThreadPool::ThreadPool(int threads)
{
    int n = std::max(1, threads);
    if (n == 1)
        return;
    num_workers_ = static_cast<std::size_t>(n);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
        workers_.emplace_back(
            [this, w] { worker_loop(static_cast<std::size_t>(w)); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

int
ThreadPool::size() const
{
    return static_cast<int>(num_workers_);
}

void
ThreadPool::parallel_for(std::size_t count, const std::uint64_t* costs,
                         const std::function<void(std::size_t)>& body)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.loops.add();
    metrics.items.add(count);
    const std::vector<Chunk> chunks =
        plan_chunks(count, num_workers_, costs);
    // Chunk counts depend on the pool size, so they live in the
    // timing (non-gated) section as a histogram, not a counter.
    metrics.chunks.observe(static_cast<double>(chunks.size()));

    std::vector<Task> tasks;
    tasks.reserve(chunks.size());
    for (const Chunk& c : chunks) {
        tasks.push_back({[&body, c] {
                             for (std::size_t i = c.begin; i < c.end; ++i)
                                 body(i);
                         },
                         {}});
    }
    execute(tasks);
}

void
ThreadPool::run_tasks(const std::vector<Task>& tasks)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.loops.add();
    metrics.items.add(tasks.size());
    execute(tasks);
}

void
ThreadPool::execute(const std::vector<Task>& tasks)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.workers.set(static_cast<double>(num_workers_));
    if (tasks.empty())
        return;

    Graph graph(tasks, num_workers_);
    // A serial pool, or a single task, runs inline on the caller.
    const bool threaded = !workers_.empty() && tasks.size() > 1;
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (threaded) {
            graph_ = &graph;
            work_cv_.notify_all();
            done_cv_.wait(lock, [&] { return graph.drained(); });
            graph_ = nullptr;
        } else {
            while (!graph.ready.empty())
                graph.run_one(lock, 0);
        }
    }
    const double wall =
        ms_between(t0, std::chrono::steady_clock::now());
    const std::size_t used = threaded ? num_workers_ : 1;
    double busy = 0.0;
    for (std::size_t w = 0; w < used; ++w) {
        metrics.busy_ms.observe(graph.busy_ms[w]);
        busy += graph.busy_ms[w];
    }
    if (wall > 0.0)
        metrics.utilization.set(busy /
                                (wall * static_cast<double>(used)));

    if (!graph.error && graph.finished < tasks.size()) {
        // Nothing ready, nothing running, tasks left: a cycle.
        throw std::runtime_error(
            "run_tasks: unsatisfiable dependencies");
    }
    if (graph.error)
        std::rethrow_exception(graph.error);
}

void
ThreadPool::worker_loop(std::size_t worker)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [this] {
            return stop_ || (graph_ && !graph_->ready.empty());
        });
        if (stop_)
            return;
        Graph& graph = *graph_;
        graph.run_one(lock, worker);
        // This worker claims the next ready task itself; wake the
        // others only for the rest.
        if (graph.ready.size() > 1)
            work_cv_.notify_all();
        else if (graph.drained())
            done_cv_.notify_one();
    }
}

} // namespace rock::support
