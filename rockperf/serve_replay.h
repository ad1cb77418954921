/**
 * @file
 * Closed-loop replay of a submit trace against an in-process
 * serve::Server: each client connection sends its next submit only
 * after the previous reply, and every response is checked byte for
 * byte against serve::submit_response_text for that image.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rockperf {

struct ServeReplay {
    /** Round trips of first sightings / repeats of an image. */
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    std::uint64_t submits = 0;
    std::uint64_t failed = 0;
    /** obs deltas over the pass. */
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t waves = 0;
    std::uint64_t dedup_hits = 0;
    double batch_sum = 0.0;
    std::uint64_t batch_count = 0;
    /** First mismatch or transport error, for the log. */
    std::string first_error;
};

/**
 * Start a server with @p workers workers and a fresh in-memory
 * artifact cache on @p socket_path, replay @p trace (indices into
 * @p payloads) over @p clients connections (submit j goes to client
 * j % clients), drain the server and return what was measured.
 */
ServeReplay replay_trace(const std::vector<std::vector<std::uint8_t>>& payloads,
                         const std::vector<std::string>& expected,
                         const std::vector<int>& trace, int clients,
                         int workers, const std::string& socket_path);

} // namespace rockperf
