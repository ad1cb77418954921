/**
 * @file
 * The traced run: core::reconstruct()'s serial schedule replayed
 * through each layer's own public functions, one benchmark-side span
 * around every call, so layer times and work counts can be read from
 * outside the library.
 */
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "rock/pipeline.h"

namespace rockperf {

/** Cost of one family in the replay (the per-family breakdown). */
struct FamilyCost {
    int family = 0;
    int members = 0;
    /** Non-forced, non-pruned candidate edges weighed by DKL. */
    std::size_t pairs = 0;
    double divergence_ms = 0.0;
    /** Zero-weight skeleton enumerate_min_forests (ambiguity probe). */
    double probe_ms = 0.0;
    /** Weighted enumerate_min_forests + detail::majority_filter. */
    double solve_ms = 0.0;

    double total_ms() const
    {
        return divergence_ms + probe_ms + solve_ms;
    }
};

/** What the replay produced, in reconstruct()'s own types. */
struct LayerReplay {
    rock::structural::StructuralResult structural;
    rock::core::DistanceMap distances;
    std::vector<rock::core::FamilyResult> families;
    std::string hierarchy;
    std::vector<FamilyCost> family_costs;
    /** Co-optimal forests enumerated before majority filtering. */
    std::uint64_t cooptimal_forests = 0;
    /** Id of the replay's root span in the tracer. */
    int root_span = -1;
};

/**
 * Replay reconstruct(@p image, @p config) serially (threads = 1, no
 * artifact cache), recording spans under operation @p op.
 */
LayerReplay replay_layers(const rock::bir::BinaryImage& image,
                          const rock::core::RockConfig& config,
                          Tracer& tracer, int op);

/**
 * Empty when @p replay equals @p direct bit for bit (distances,
 * every family's alternatives and ambiguity flag, the rendered
 * hierarchy); otherwise the first difference.
 */
std::string compare_replay(const LayerReplay& replay,
                           const rock::core::ReconstructionResult& direct);

} // namespace rockperf
