#include "fuzz/case.h"

#include "cache/artifact_cache.h"
#include "rock/artifacts.h"
#include "support/error.h"

namespace rock::fuzz {

FuzzCase
run_case(const corpus::GeneratorSpec& spec, const CaseConfig& config)
{
    FuzzCase fc;
    fc.spec = spec;
    fc.program = corpus::generate_program(spec);
    fc.compiled = toyc::compile(fc.program, config.compile);
    fc.result = core::reconstruct(fc.compiled.image, config.rock);
    if (config.hooks.mutate_result)
        config.hooks.mutate_result(fc.result);
    return fc;
}

core::ReconstructionResult
reconstruct_image(const bir::BinaryImage& image,
                  const CaseConfig& config, int threads_override)
{
    core::RockConfig rock = config.rock;
    if (threads_override >= 0)
        rock.threads = threads_override;
    core::ReconstructionResult result = core::reconstruct(image, rock);
    if (config.hooks.mutate_result)
        config.hooks.mutate_result(result);
    return result;
}

CaseHooks
injection_by_name(const std::string& name)
{
    CaseHooks hooks;
    if (name == "drop-forced-edges") {
        hooks.mutate_result = [](core::ReconstructionResult& result) {
            for (const auto& [child, parent] :
                 result.structural.forced_parents) {
                (void)parent;
                result.hierarchy.set_parent(child, -1);
            }
        };
    } else if (name == "orphan-last-type") {
        hooks.mutate_result = [](core::ReconstructionResult& result) {
            int last = result.hierarchy.size() - 1;
            if (last >= 0)
                result.hierarchy.set_parent(last, -1);
        };
    } else if (name == "drop-virtcall-tracelets") {
        hooks.mutate_result = [](core::ReconstructionResult& result) {
            for (auto& [type, tracelets] :
                 result.analysis.type_tracelets) {
                (void)type;
                std::erase_if(
                    tracelets, [](const analysis::Tracelet& t) {
                        for (const auto& ev : t) {
                            if (ev.kind ==
                                analysis::EventKind::VirtCall)
                                return true;
                        }
                        return false;
                    });
            }
        };
    } else if (name == "drop-vptr-constraints") {
        hooks.mutate_result = [](core::ReconstructionResult& result) {
            auto& cs = result.typeinf.constraints.constraints;
            std::erase_if(cs, [](const typeinf::Constraint& c) {
                return c.kind == typeinf::ConstraintKind::VptrStore;
            });
            result.typeinf.direct_edges.clear();
            result.typeinf.subtype_edges.clear();
        };
    } else if (name == "stale-cache-entry") {
        hooks.corrupt_cache = [](cache::ArtifactCache& store) {
            // Rewrite every famsolve artifact with valid framing but
            // all-root parent choices: decode succeeds on the warm
            // run, so only a behavioral oracle can notice.
            for (const auto& key : store.keys(core::kFamilySolveKind)) {
                store.forge_payload_for_testing(
                    key, [](cache::ByteReader& in, cache::ByteWriter& out) {
                        core::FamilySolveBlob solution;
                        if (!core::decode_family_solution(in, &solution))
                            return false;
                        solution.alternatives.resize(1);
                        for (int& parent : solution.alternatives.front())
                            parent = -1;
                        core::encode_family_solution(solution, out);
                        return true;
                    });
            }
        };
    } else if (name == "drop-batch-dedup") {
        hooks.serve_collapse_dedup = true;
    } else {
        support::fatal("unknown fault injection '" + name + "'");
    }
    return hooks;
}

} // namespace rock::fuzz
