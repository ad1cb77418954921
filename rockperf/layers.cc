#include "layers.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "analysis/analyze.h"
#include "cfg/cfg_cache.h"
#include "cfg/verify.h"
#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "graph/digraph.h"
#include "graph/enumerate.h"
#include "slm/model.h"
#include "structural/structural.h"
#include "support/parallel.h"
#include "typeinf/typeinf.h"

namespace rockperf {

using namespace rock;

namespace {

std::size_t
at(int i)
{
    return static_cast<std::size_t>(i);
}

/** Position of @p type in the ascending @p members list. */
int
member_pos(const std::vector<int>& members, int type)
{
    return static_cast<int>(
        std::lower_bound(members.begin(), members.end(), type) -
        members.begin());
}

} // namespace

LayerReplay
replay_layers(const bir::BinaryImage& image,
              const core::RockConfig& config, Tracer& tracer, int op)
{
    LayerReplay out;
    support::ThreadPool pool(1);
    Scope root(tracer, "rock.replay", op);
    out.root_span = static_cast<int>(tracer.spans().size()) - 1;

    Scope build(tracer, "cfg.build", op);
    cfg::CfgCache cfgs(image);
    cfgs.build_all(pool);
    build.close();
    if (config.verify) {
        Scope span(tracer, "cfg.verify", op);
        cfg::verify_image(image, pool, cfgs);
    }
    analysis::AnalysisResult analysis;
    {
        Scope span(tracer, "analysis.analyze", op);
        analysis::SymExecConfig symexec = config.symexec;
        symexec.threads = 1;
        analysis = analysis::analyze(image, symexec, cfgs);
    }
    structural::StructuralResult& st = out.structural;
    {
        Scope span(tracer, "structural.structural_analysis", op);
        st = structural::structural_analysis(
            analysis.vtables, analysis.evidence, analysis.ctor_types);
    }
    typeinf::TypeInfResult facts;
    if (config.typeinf) {
        Scope span(tracer, "typeinf.infer", op);
        facts = typeinf::infer(image, cfgs, analysis.vtables, pool);
    }

    const int n = static_cast<int>(st.types.size());
    analysis::Alphabet alphabet;
    std::vector<std::vector<std::vector<int>>> seqs(at(n));
    {
        Scope span(tracer, "slm.intern", op);
        for (int t = 0; t < n; ++t) {
            auto it = analysis.type_tracelets.find(st.types[at(t)]);
            if (it == analysis.type_tracelets.end())
                continue;
            for (const auto& tracelet : it->second)
                seqs[at(t)].push_back(alphabet.intern(tracelet));
        }
    }
    const int alphabet_size = std::max(1, alphabet.size());
    std::vector<std::unique_ptr<slm::LanguageModel>> models(at(n));
    {
        Scope span(tracer, "slm.train_model", op);
        for (int t = 0; t < n; ++t)
            models[at(t)] =
                slm::train_model(config.slm, alphabet_size, seqs[at(t)]);
    }

    // Feasible-edge work list in (family, member, parent) order, with
    // the typeinf fusion reconstruct() applies: contradicted edges are
    // pruned, agreeing ones discounted, forced rule-3 edges skipped.
    const int num_families = st.num_families();
    std::vector<std::vector<int>> members(at(num_families));
    std::vector<std::pair<int, int>> edges;
    std::vector<char> discounted;
    std::vector<std::size_t> edge_begin(at(num_families), 0);
    std::vector<std::size_t> edge_end(at(num_families), 0);
    std::unordered_set<std::pair<int, int>, core::EdgeKeyHash> pruned;
    {
        Scope span(tracer, "rock.edges", op);
        const bool fuse = config.typeinf && !facts.types.empty();
        for (int f = 0; f < num_families; ++f) {
            members[at(f)] = st.family_members(f);
            edge_begin[at(f)] = edges.size();
            if (members[at(f)].size() >= 2) {
                for (int child : members[at(f)]) {
                    auto forced = st.forced_parents.find(child);
                    const std::uint32_t child_vt = st.types[at(child)];
                    for (int p : st.possible_parents[at(child)]) {
                        if (forced != st.forced_parents.end() &&
                            forced->second == p)
                            continue;
                        const std::uint32_t p_vt = st.types[at(p)];
                        if (fuse && facts.subtype(p_vt, child_vt)) {
                            pruned.insert({p, child});
                            continue;
                        }
                        edges.emplace_back(p, child);
                        discounted.push_back(
                            fuse && facts.subtype(child_vt, p_vt) ? 1 : 0);
                    }
                }
            }
            edge_end[at(f)] = edges.size();
        }
    }

    const bool observed_union = config.words.strategy ==
                                divergence::WordSetStrategy::ObservedUnion;
    std::vector<divergence::WordSet> type_words(at(n));
    std::vector<double> weights(edges.size(), 0.0);
    out.family_costs.resize(at(num_families));
    {
        Scope stage(tracer, "divergence", op);
        for (int f = 0; f < num_families; ++f) {
            FamilyCost& cost = out.family_costs[at(f)];
            cost.family = f;
            cost.members = static_cast<int>(members[at(f)].size());
            cost.pairs = edge_end[at(f)] - edge_begin[at(f)];
            if (cost.pairs == 0)
                continue;
            if (observed_union) {
                Scope span(tracer, "divergence.sorted_unique_words", op, f);
                for (int t : members[at(f)])
                    type_words[at(t)] =
                        divergence::sorted_unique_words(seqs[at(t)]);
            }
            {
                Scope span(tracer, "divergence.pair_distance", op, f);
                for (std::size_t e = edge_begin[at(f)]; e < edge_end[at(f)];
                     ++e) {
                    const auto [p, c] = edges[e];
                    divergence::WordSet words =
                        observed_union
                            ? divergence::merge_word_sets(type_words[at(p)],
                                                          type_words[at(c)])
                            : divergence::build_word_set(
                                  config.words, seqs[at(p)], seqs[at(c)],
                                  models[at(p)].get(), alphabet_size);
                    if (!words.empty()) {
                        weights[e] = divergence::pair_distance(
                            config.metric, *models[at(p)], *models[at(c)],
                            words);
                    }
                    if (discounted[e] && weights[e] > 0.0)
                        weights[e] *= config.typeinf_discount;
                }
            }
        }
    }
    {
        Scope span(tracer, "rock.merge", op);
        for (std::size_t e = 0; e < edges.size(); ++e)
            out.distances.emplace(edges[e], weights[e]);
    }

    out.families.resize(at(num_families));
    {
        Scope stage(tracer, "graph", op);
        for (int f = 0; f < num_families; ++f) {
            core::FamilyResult& fam = out.families[at(f)];
            fam.family_id = f;
            fam.members = members[at(f)];
            const int m = static_cast<int>(fam.members.size());
            if (m == 1) {
                fam.alternatives.push_back({-1});
                continue;
            }
            {
                Scope span(tracer, "graph.probe", op, f);
                graph::Digraph skeleton(m);
                for (int i = 0; i < m; ++i) {
                    for (int p : st.possible_parents[at(fam.members[at(i)])])
                        skeleton.add_edge(member_pos(fam.members, p), i, 0.0);
                }
                graph::EnumerateConfig probe;
                probe.epsilon = 0.0;
                probe.max_results = 2;
                probe.max_steps = 200000;
                fam.structurally_ambiguous =
                    graph::enumerate_min_forests(skeleton, probe).size() > 1;
            }
            std::vector<graph::Arborescence> forests;
            {
                Scope span(tracer, "graph.solve", op, f);
                graph::Digraph weighted(m);
                for (int i = 0; i < m; ++i) {
                    const int child = fam.members[at(i)];
                    auto forced = st.forced_parents.find(child);
                    for (int p : st.possible_parents[at(child)]) {
                        const bool is_forced =
                            forced != st.forced_parents.end() &&
                            forced->second == p;
                        if (!is_forced && pruned.count({p, child}))
                            continue;
                        weighted.add_edge(
                            member_pos(fam.members, p), i,
                            is_forced ? 0.0 : out.distances.at({p, child}));
                    }
                }
                graph::EnumerateConfig ties;
                ties.epsilon = config.tie_epsilon;
                ties.max_results = config.max_alternatives;
                forests = graph::enumerate_min_forests(weighted, ties);
                out.cooptimal_forests += forests.size();
                core::detail::majority_filter(forests);
            }
            for (const auto& forest : forests) {
                std::vector<int> parents(at(m), -1);
                for (int i = 0; i < m; ++i) {
                    const int lp = forest.parent[at(i)];
                    if (lp >= 0)
                        parents[at(i)] = fam.members[at(lp)];
                }
                fam.alternatives.push_back(std::move(parents));
            }
        }
    }

    core::ReconstructionResult assembled;
    {
        Scope span(tracer, "rock.hierarchy", op);
        assembled.structural = std::move(out.structural);
        assembled.families = std::move(out.families);
        assembled.hierarchy = assembled.hierarchy_with(
            std::vector<int>(assembled.families.size(), 0));
    }
    // Everything reconstruct() does is timed; tearing down the
    // replay's locals and rendering the result for comparison is not.
    root.close();
    for (const SpanRecord& span : tracer.spans()) {
        if (span.op != op || span.family < 0)
            continue;
        FamilyCost& cost = out.family_costs[at(span.family)];
        if (span.name == "graph.probe")
            cost.probe_ms += span.ms();
        else if (span.name == "graph.solve")
            cost.solve_ms += span.ms();
        else
            cost.divergence_ms += span.ms();
    }
    out.hierarchy = assembled.hierarchy.to_string();
    out.structural = std::move(assembled.structural);
    out.families = std::move(assembled.families);
    return out;
}

std::string
compare_replay(const LayerReplay& replay,
               const core::ReconstructionResult& direct)
{
    if (replay.structural.types != direct.structural.types)
        return "discovered types differ";
    if (replay.distances.size() != direct.distances.size())
        return "distance count differs: " +
               std::to_string(replay.distances.size()) + " vs " +
               std::to_string(direct.distances.size());
    for (const auto& [edge, weight] : replay.distances) {
        auto it = direct.distances.find(edge);
        if (it == direct.distances.end())
            return "edge " + std::to_string(edge.first) + "->" +
                   std::to_string(edge.second) + " not weighed directly";
        if (std::memcmp(&weight, &it->second, sizeof(double)) != 0)
            return "distance bits differ on edge " +
                   std::to_string(edge.first) + "->" +
                   std::to_string(edge.second);
    }
    if (replay.families.size() != direct.families.size())
        return "family count differs";
    for (std::size_t f = 0; f < replay.families.size(); ++f) {
        const auto& a = replay.families[f];
        const auto& b = direct.families[f];
        if (a.members != b.members || a.alternatives != b.alternatives ||
            a.structurally_ambiguous != b.structurally_ambiguous)
            return "family " + std::to_string(f) + " differs";
    }
    if (replay.hierarchy != direct.hierarchy.to_string())
        return "rendered hierarchy differs";
    return {};
}

} // namespace rockperf
