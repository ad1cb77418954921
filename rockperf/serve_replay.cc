#include "serve_replay.h"

#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "cache/artifact_cache.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"

namespace rockperf {

using namespace rock;

namespace {

struct ObsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    double batch_sum = 0.0;
    std::uint64_t batch_count = 0;

    static ObsSnapshot
    take()
    {
        ObsSnapshot s;
        obs::Registry& reg = obs::Registry::global();
        s.counters = reg.counter_values();
        reg.visit_histograms([&](const std::string& name, const auto&,
                                 const auto&, std::uint64_t count,
                                 double sum) {
            if (name == "serve.batch_size") {
                s.batch_sum = sum;
                s.batch_count = count;
            }
        });
        return s;
    }

    std::uint64_t
    get(const std::string& name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

} // namespace

ServeReplay
replay_trace(const std::vector<std::vector<std::uint8_t>>& payloads,
             const std::vector<std::string>& expected,
             const std::vector<int>& trace, int clients, int workers,
             const std::string& socket_path)
{
    ServeReplay out;
    ::unlink(socket_path.c_str());

    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.threads = workers;
    options.cache = std::make_shared<cache::ArtifactCache>();
    serve::Server server(options);
    const ObsSnapshot before = ObsSnapshot::take();
    server.start();

    std::vector<std::atomic<bool>> seen(payloads.size());
    std::mutex mutex;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<double> cold, warm;
            std::uint64_t submits = 0, failed = 0;
            std::string error;
            try {
                serve::Client client(socket_path);
                for (std::size_t j = static_cast<std::size_t>(c);
                     j < trace.size();
                     j += static_cast<std::size_t>(clients)) {
                    const auto k = static_cast<std::size_t>(trace[j]);
                    const bool first = !seen[k].exchange(true);
                    const auto sent = Clock::now();
                    serve::protocol::Response response =
                        client.submit(payloads[k]);
                    const double ms = 1e3 * seconds_since(sent);
                    ++submits;
                    (first ? cold : warm).push_back(ms);
                    const bool same =
                        response.ok() &&
                        std::string(response.payload.begin(),
                                    response.payload.end()) ==
                            expected[k];
                    if (!same) {
                        ++failed;
                        if (error.empty())
                            error = response.ok()
                                        ? "response bytes differ from "
                                          "submit_response_text"
                                        : "response code " +
                                              std::string(
                                                  serve::protocol::
                                                      code_name(
                                                          response.code)) +
                                              ": " + response.error;
                    }
                }
            } catch (const std::exception& e) {
                ++failed;
                error = std::string("transport: ") + e.what();
            }
            std::lock_guard<std::mutex> lock(mutex);
            out.cold_ms.insert(out.cold_ms.end(), cold.begin(), cold.end());
            out.warm_ms.insert(out.warm_ms.end(), warm.begin(), warm.end());
            out.submits += submits;
            out.failed += failed;
            if (out.first_error.empty())
                out.first_error = error;
        });
    }
    for (auto& t : threads)
        t.join();
    server.request_shutdown();
    server.wait();
    ::unlink(socket_path.c_str());

    const ObsSnapshot after = ObsSnapshot::take();
    auto delta = [&](const char* name) {
        return after.get(name) - before.get(name);
    };
    out.cache_hits = delta("cache.hits");
    out.cache_misses = delta("cache.misses");
    out.cache_bytes = delta("cache.bytes");
    out.cache_evictions = delta("cache.evictions");
    out.waves = delta("serve.batches");
    out.dedup_hits = delta("serve.dedup.hits");
    out.batch_sum = after.batch_sum - before.batch_sum;
    out.batch_count = after.batch_count - before.batch_count;
    return out;
}

} // namespace rockperf
