/**
 * @file
 * rockd -- the resident analysis daemon (docs/SERVING.md).
 *
 * Binds a unix-domain socket, then serves rockd-v1 requests until a
 * client sends `shutdown` or the process receives SIGTERM/SIGINT;
 * either way it drains gracefully (queued submits finish, new submits
 * answer `draining`) and exits 0.
 *
 * Usage:
 *   rockd --socket PATH [options]
 *
 * Options:
 *   --socket PATH            unix socket to bind (required)
 *   --threads N              worker threads (0 = all hardware)
 *   --cache-dir DIR          persist the shared artifact cache to DIR
 *   --cache-max-bytes N      cache budget in bytes (default 256 MiB)
 *   --batch-window-ms N      wave sealing window (default 10)
 *   --batch-max N            max requests per wave (default 64)
 *   --request-timeout-ms N   admission timeout; <= 0 disables
 *   --max-payload-bytes N    reject larger submit payloads up front
 *   --metric NAME            kl (default) | kl-reversed | js |
 *                            js-distance
 *   --depth N                SLM context depth (default 2)
 *   --tracelet N             tracelet window length, >= 1 (default 7)
 *   --metrics-json F         write an obs::MetricsReport
 *                            (rock-metrics-v1) at exit
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "cache/artifact_cache.h"
#include "obs/report.h"
#include "serve/server.h"
#include "support/error.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
on_signal(int)
{
    g_stop = 1;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: rockd --socket PATH [--threads N] [--cache-dir DIR] "
        "[--cache-max-bytes N] [--batch-window-ms N] [--batch-max N] "
        "[--request-timeout-ms N] [--max-payload-bytes N] "
        "[--metric NAME] [--depth N] [--tracelet N] "
        "[--metrics-json FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace rock;

    serve::ServerOptions options;
    cache::CacheOptions cache_opts;
    std::string metrics_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            options.socket_path = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            options.threads = std::atoi(argv[++i]);
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_opts.dir = argv[++i];
        } else if (arg == "--cache-max-bytes" && i + 1 < argc) {
            cache_opts.max_bytes =
                std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--batch-window-ms" && i + 1 < argc) {
            options.batch_window_ms = std::atoi(argv[++i]);
        } else if (arg == "--batch-max" && i + 1 < argc) {
            options.batch_max = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--request-timeout-ms" && i + 1 < argc) {
            options.request_timeout_ms = std::atoi(argv[++i]);
        } else if (arg == "--max-payload-bytes" && i + 1 < argc) {
            options.limits.max_payload =
                std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--metric" && i + 1 < argc) {
            options.rock.metric =
                divergence::metric_from_name(argv[++i]);
        } else if (arg == "--depth" && i + 1 < argc) {
            options.rock.slm.depth = std::atoi(argv[++i]);
        } else if (arg == "--tracelet" && i + 1 < argc) {
            options.rock.symexec.tracelet_len = std::atoi(argv[++i]);
            if (options.rock.symexec.tracelet_len < 1) {
                std::fprintf(stderr, "rockd: --tracelet must be >= 1\n");
                return usage();
            }
        } else if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else {
            std::fprintf(stderr, "rockd: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
    }
    if (options.socket_path.empty())
        return usage();
    options.cache =
        std::make_shared<cache::ArtifactCache>(cache_opts);

    struct sigaction sa {};
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    try {
        serve::Server server(std::move(options));
        server.start();
        std::fprintf(stderr, "rockd: listening on %s (%d workers)\n",
                     server.options().socket_path.c_str(),
                     server.status().workers);

        // The drain can start from two places: a client `shutdown`
        // op (server.done() flips) or a signal (g_stop flips).
        while (!g_stop && !server.done())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        server.request_shutdown();
        server.wait();

        serve::ServerStatus final = server.status();
        std::fprintf(stderr,
                     "rockd: drained after %.0f ms "
                     "(%llu requests, %llu submits, %llu waves)\n",
                     final.uptime_ms,
                     static_cast<unsigned long long>(final.requests),
                     static_cast<unsigned long long>(final.submits),
                     static_cast<unsigned long long>(final.waves));
        if (!metrics_path.empty())
            obs::write_report_file(obs::MetricsReport::capture(),
                                   metrics_path);
        return 0;
    } catch (const support::FatalError& e) {
        std::fprintf(stderr, "rockd: error: %s\n", e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "rockd: error: %s\n", e.what());
        return 1;
    }
}
