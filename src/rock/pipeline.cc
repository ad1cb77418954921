#include "rock/pipeline.h"

#include <algorithm>
#include <optional>

#include "cache/artifact_cache.h"
#include "divergence/word_table.h"
#include "graph/ambiguity.h"
#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rock/artifacts.h"
#include "slm/snapshot.h"
#include "support/error.h"
#include "support/log.h"
#include "support/parallel.h"

namespace rock::core {

namespace detail {

void
majority_filter(std::vector<graph::Arborescence>& forests)
{
    if (forests.size() <= 1)
        return;
    bool changed = true;
    while (changed && forests.size() > 1) {
        changed = false;
        std::size_t positions = forests.front().parent.size();
        for (std::size_t m = 0; m < positions && !changed; ++m) {
            std::map<int, int> votes;
            for (const auto& f : forests)
                votes[f.parent[m]] += 1;
            // At most one parent can hold a strict majority at this
            // position; find it, then decide separately whether it
            // leaves any dissenter to drop (a unanimous vote does
            // not).
            const int total = static_cast<int>(forests.size());
            bool drop_dissenters = false;
            int majority_parent = -1;
            for (const auto& [parent, count] : votes) {
                if (2 * count > total) {
                    majority_parent = parent;
                    drop_dissenters = count < total;
                    break;
                }
            }
            if (!drop_dissenters)
                continue;
            std::vector<graph::Arborescence> kept;
            kept.reserve(forests.size());
            for (auto& f : forests) {
                if (f.parent[m] == majority_parent)
                    kept.push_back(std::move(f));
            }
            forests = std::move(kept);
            changed = true;
        }
    }
}

} // namespace detail

namespace {

/**
 * One feasible (parent, child) edge of a family, with both ends as
 * member positions. The distances prelude classifies every edge once:
 * a forced rule-3 edge costs nothing, a pruned one contradicts a
 * solved subtype fact and is never weighed, and a weighed one reads
 * edge_weights[edge]. The values of Kind are what the famsolve key
 * mixes.
 */
struct Candidate {
    enum Kind : std::uint8_t { kWeighed = 0, kForced = 1, kPruned = 2 };
    int parent = 0;
    int child = 0;
    Kind kind = kWeighed;
    std::uint32_t edge = 0;
};

/** Everything the task chains know about one family. */
struct Family {
    /** Type indices, ascending. */
    std::vector<int> members;
    /** Every feasible edge, in (member, parent) ascending order; empty
     *  for a singleton. */
    std::vector<Candidate> candidates;
    /** Its weighed edges: [edge_begin, edge_end) of edges. */
    std::size_t edge_begin = 0;
    std::size_t edge_end = 0;
    /** Content key of the "famdist" blob, and whether it was served. */
    std::uint64_t dist_content = 0;
    bool dist_loaded = false;
    /** Word table of the weighed edges (none when there are none). */
    std::unique_ptr<divergence::WordTable> table;
    /** Counter increments of every task that computes the weights
     *  (one slot per task: tasks run on different threads), stored
     *  with the "famdist" blob. */
    std::vector<obs::CounterDeltas> dist_captured;
};

/**
 * Run @p work; when @p capture, keep the counters it bumps in
 * @p fam's slot @p slot for the family's "famdist" blob.
 */
template <typename Work>
void
capture_into(Family& fam, std::size_t slot, bool capture, Work&& work)
{
    std::optional<obs::CounterCapture> scope;
    if (capture)
        scope.emplace();
    work();
    if (scope)
        fam.dist_captured[slot] = scope->deltas();
}

/**
 * Solve one family: enumerate co-optimal forests over the weighted
 * feasible-edge graph and majority-filter the ties. Returns the
 * survivors with parents as member positions -- the "famsolve"
 * payload. Pure function of its inputs (runs on pool workers, one
 * family per call).
 */
FamilySolveBlob
solve_family(const Family& fam, const std::vector<double>& edge_weights,
             const RockConfig& config)
{
    FamilySolveBlob sol;
    const int m = static_cast<int>(fam.members.size());
    sol.m = m;

    // Family counters: one-per-call and per-forest counts are pure
    // functions of the input, so the totals survive any scheduling.
    static obs::Counter& solved =
        obs::Registry::global().counter("arborescence.families_solved");
    solved.add();

    if (m == 1) {
        static obs::Counter& singleton = obs::Registry::global().counter(
            "arborescence.singleton_families");
        singleton.add();
        sol.alternatives.push_back({-1});
        return sol;
    }

    // Structural ambiguity: is there more than one min-root spanning
    // forest over the feasible edges alone? Decided exactly (dominator
    // test, graph/ambiguity.h), never under a search budget. The
    // skeleton keeps pruned edges: structural ambiguity is a property
    // of the evidence, not of what typeinf resolved.
    graph::Digraph skeleton(m);
    // Behaviorally weighted graph. Forced edges are structural
    // certainties: they cost nothing, so the optimizer can never
    // prefer re-rooting a chain over honoring them. Pruned edges are
    // left out of it entirely.
    graph::Digraph weighted(m);
    for (const Candidate& c : fam.candidates) {
        skeleton.add_edge(c.parent, c.child, 0.0);
        if (c.kind != Candidate::kPruned)
            weighted.add_edge(c.parent, c.child,
                              c.kind == Candidate::kForced
                                  ? 0.0
                                  : edge_weights[c.edge]);
    }
    sol.structurally_ambiguous =
        graph::has_multiple_min_root_forests(skeleton);

    graph::EnumerateConfig ties;
    ties.epsilon = config.tie_epsilon;
    ties.max_results = config.max_alternatives;
    auto forests = graph::enumerate_min_forests(weighted, ties);
    const std::size_t cooptimal = forests.size();
    detail::majority_filter(forests);
    ROCK_ASSERT(!forests.empty(), "no forest survived filtering");
    {
        static obs::Counter& enumerated = obs::Registry::global().counter(
            "arborescence.cooptimal_forests");
        static obs::Counter& resolved = obs::Registry::global().counter(
            "arborescence.ties_majority_resolved");
        enumerated.add(cooptimal);
        resolved.add(cooptimal - forests.size());
        if (sol.structurally_ambiguous) {
            static obs::Counter& structurally =
                obs::Registry::global().counter(
                    "arborescence.structurally_ambiguous");
            structurally.add();
        }
    }

    for (auto& forest : forests)
        sol.alternatives.push_back(std::move(forest.parent));
    return sol;
}

/**
 * Content key of one "famsolve" artifact: everything solve_family()
 * consumes, in its order -- family size, then per candidate its local
 * parent and child, its kind and (for weighed edges) the exact
 * distance bits.
 */
std::uint64_t
famsolve_content(const Family& fam, const std::vector<double>& edge_weights)
{
    std::uint64_t h = cache::mix(cache::kFnvSeed, fam.members.size());
    for (const Candidate& c : fam.candidates) {
        h = cache::mix(h, static_cast<std::uint64_t>(c.parent));
        h = cache::mix(h, static_cast<std::uint64_t>(c.child));
        h = cache::mix(h, c.kind);
        if (c.kind == Candidate::kWeighed)
            h = cache::mix_double(h, edge_weights[c.edge]);
    }
    return h;
}

/** Family @p family_id's result from its solve_family() output. */
FamilyResult
family_result(int family_id, std::vector<int> members,
              const FamilySolveBlob& sol)
{
    FamilyResult fam;
    fam.family_id = family_id;
    fam.structurally_ambiguous = sol.structurally_ambiguous;
    for (const auto& local : sol.alternatives) {
        std::vector<int> parents(members.size(), -1);
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (local[i] >= 0)
                parents[i] = members[static_cast<std::size_t>(local[i])];
        }
        fam.alternatives.push_back(std::move(parents));
    }
    fam.members = std::move(members);
    return fam;
}

} // namespace

Hierarchy
ReconstructionResult::hierarchy_with(const std::vector<int>& pick) const
{
    ROCK_ASSERT(pick.size() == families.size(),
                "one pick per family required");
    Hierarchy h(structural.types);
    for (std::size_t f = 0; f < families.size(); ++f) {
        const FamilyResult& fam = families[f];
        int choice = pick[f];
        ROCK_ASSERT(choice >= 0 &&
                    choice < static_cast<int>(fam.alternatives.size()),
                    "alternative pick out of range");
        const auto& parents =
            fam.alternatives[static_cast<std::size_t>(choice)];
        for (std::size_t m = 0; m < fam.members.size(); ++m)
            h.set_parent(fam.members[m], parents[m]);
    }
    // Multiple inheritance: a secondary vtable's parent is an extra
    // parent of its primary type.
    for (const auto& [sec, prim] : structural.secondary_of) {
        int p = h.parent(sec);
        if (p >= 0 && p != prim)
            h.add_extra_parent(prim, p);
    }
    return h;
}

ReconstructionResult
reconstruct(const bir::BinaryImage& image, const RockConfig& config)
{
    const int threads = support::resolve_threads(config.threads);
    support::ThreadPool pool(threads);

    ReconstructionResult result;
    // Every stage runs under a "pipeline.<stage>" span: per-stage wall
    // time is read from the span log (obs::span_wall_totals()).
    obs::Span total_span("pipeline.reconstruct");
    obs::Registry::global().counter("pipeline.runs").add();

    // ---- Artifact cache ------------------------------------------------
    // Opt-in, resolved against the process-wide default so the CLIs
    // can enable it (--cache-dir) without plumbing a handle through
    // every call site. A "manifest" hit means a completed run with
    // this exact image and configuration already populated the store;
    // the zero-length pipeline.warm span marks the run as warm for
    // rockstat and the bench harnesses. Fingerprints never fold the
    // thread count: warm results are bit-identical across pool sizes.
    std::shared_ptr<cache::ArtifactCache> artifacts =
        cache::resolve_cache(config.cache);
    cache::ArtifactCache* store = artifacts.get();
    // Built below; constructed first so the manifest key and the
    // analyze/typeinf fingerprints share its one image digest.
    cfg::CfgCache cfgs(image);
    cache::ArtifactKey manifest{kManifestKind, 0, 0};
    bool warm = false;
    if (store) {
        manifest.content = cfgs.image_digest();
        manifest.fingerprint = config_fingerprint(config);
        warm = store->probe(manifest, [&](cache::ByteReader& in) {
            return in.u64() == manifest.content && in.at_end();
        });
        if (warm)
            obs::Span warm_span("pipeline.warm");
    }

    // ---- Shared CFG recovery (parallel over functions) -----------------
    // Built once, consumed by both the verifier and the behavioral
    // analysis; nobody downstream rebuilds a CFG or re-decodes a body.
    {
        obs::Span span("pipeline.cfg");
        cfgs.build_all(pool);
    }

    // ---- Image verification (parallel over functions) ------------------
    if (config.verify) {
        obs::Span span("pipeline.verify");
        result.diagnostics = cfg::verify_image(image, pool, cfgs);
        span.end();
        if (!result.diagnostics.empty()) {
            ROCK_LOG_WARN << "rockcheck: " << result.diagnostics.size()
                          << " diagnostic(s) on the input image, e.g. "
                          << cfg::to_string(result.diagnostics.front());
        }
    }

    // ---- Behavioral analysis (parallel over functions) -----------------
    {
        obs::Span span("pipeline.analyze");
        analysis::SymExecConfig symexec = config.symexec;
        symexec.threads = threads;
        result.analysis =
            analysis::analyze(image, symexec, cfgs, artifacts);
    }

    // ---- Structural analysis (serial; cheap) ---------------------------
    {
        obs::Span span("pipeline.structural");
        result.structural = structural::structural_analysis(
            result.analysis.vtables, result.analysis.evidence,
            result.analysis.ctor_types);
    }

    const auto& types = result.structural.types;
    const int n = static_cast<int>(types.size());

    // ---- Subtyping constraint pass (parallel over unique bodies) -------
    // Solved derives-from facts sharpen the arborescence objective
    // below; inconsistent evidence joins the rockcheck findings.
    if (config.typeinf) {
        obs::Span span("pipeline.typeinf");
        result.typeinf = typeinf::infer(
            image, cfgs, result.analysis.vtables, pool, artifacts);
        span.end();
        for (cfg::Diagnostic& d : result.typeinf.diagnostics())
            result.diagnostics.push_back(std::move(d));
    }

    // ==== Pipelined tail: train -> distances -> arborescence ============
    // The last three stages no longer run as global barriers. After
    // two serial preludes (alphabet interning; the feasible-edge work
    // list), every family owns an independent task chain
    //
    //     train chunks -> distance chunks -> solve
    //
    // executed as one dependency DAG on the pool, so a small family's
    // arborescence finishes while a big family is still training. Big
    // families still chunk internally; chunk plans use a *fixed*
    // pseudo-worker fan-out, so the task count and graph shape depend
    // only on the input, never on the pool size (the threadpool.items
    // counter stays bit-identical across thread counts). Per-stage
    // attribution survives via per-task spans: each task logs its work
    // under the owning stage's span name.

    // ---- Train prelude (serial): alphabet interning --------------------
    // Interning mutates shared state, so it runs serially in type
    // order (deterministic symbol ids); training itself happens in the
    // per-family tasks, each type writing its own model slot.
    analysis::Alphabet& alphabet = result.alphabet;
    auto& seqs = result.type_sequences;
    // Training cost is linear in a type's total symbol count; chunk
    // accordingly so one tracelet-heavy type cannot serialize a
    // family's chain.
    std::vector<std::uint64_t> type_costs(
        static_cast<std::size_t>(n), 1);
    {
        obs::Span span("pipeline.train");
        seqs.assign(static_cast<std::size_t>(n), {});
        for (int t = 0; t < n; ++t) {
            auto it = result.analysis.type_tracelets.find(
                types[static_cast<std::size_t>(t)]);
            if (it == result.analysis.type_tracelets.end())
                continue;
            for (const auto& tracelet : it->second)
                seqs[static_cast<std::size_t>(t)].push_back(
                    alphabet.intern(tracelet));
        }
        for (int t = 0; t < n; ++t) {
            for (const auto& seq : seqs[static_cast<std::size_t>(t)])
                type_costs[static_cast<std::size_t>(t)] += seq.size();
        }
        span.end();
    }
    const int alphabet_size = std::max(1, alphabet.size());
    auto& models = result.models;
    models.resize(static_cast<std::size_t>(n));

    // Per-type content hashes and stage fingerprints. Tries store
    // interned symbol ids, so every fingerprint folds the alphabet
    // digest; the per-type key is the member-sequence multiset hash
    // (identical multisets share one snapshot).
    std::uint64_t fp_slm = 0;
    std::uint64_t fp_dist = 0;
    std::uint64_t fp_solve = 0;
    std::vector<std::uint64_t> type_seq_hash;
    if (store) {
        const std::uint64_t alpha = alphabet_digest(alphabet);
        fp_slm = slm_fingerprint(config.slm, alphabet_size, alpha);
        fp_dist = distance_fingerprint(config, alphabet_size, alpha);
        fp_solve = solve_fingerprint(config);
        type_seq_hash.resize(static_cast<std::size_t>(n));
        for (int t = 0; t < n; ++t)
            type_seq_hash[static_cast<std::size_t>(t)] =
                sequence_multiset_hash(
                    seqs[static_cast<std::size_t>(t)]);
    }

    // ---- Distances prelude (serial): the candidate lists ---------------
    // Every feasible (parent, child) edge of every family (structural
    // analysis keeps both ends in one family, so singletons have none),
    // classified once into its family's candidate list in (member,
    // parent) order. The weighed ones form the work list `edges`, in
    // (family, member, parent) order: a family's weighed edges are
    // contiguous, [edge_begin, edge_end).
    const int num_families = result.structural.num_families();
    std::vector<Family> families(static_cast<std::size_t>(num_families));
    std::vector<std::pair<int, int>> edges;
    std::vector<char> edge_discounted;
    std::vector<double> edge_weights;
    std::vector<std::uint64_t> edge_costs;
    {
        obs::Span span("pipeline.distances");
        // Members ascending, and each type's position in its family.
        const std::vector<int>& family_of = result.structural.family;
        std::vector<int> position(static_cast<std::size_t>(n));
        for (int t = 0; t < n; ++t) {
            const std::size_t ti = static_cast<std::size_t>(t);
            auto& members =
                families[static_cast<std::size_t>(family_of[ti])].members;
            position[ti] = static_cast<int>(members.size());
            members.push_back(t);
        }

        std::uint64_t pairs_pruned = 0;
        std::uint64_t typeinf_pruned = 0;
        std::uint64_t discounted = 0;
        // A candidate edge p -> child contradicts a solved fact when
        // typeinf proved p itself derives from child (the edge would
        // invert a known derivation): hard-pruned, never weighed. The
        // agreeing direction (child derives from p) keeps the edge but
        // discounts its distance. Forced rule-3 edges outrank both.
        const bool fuse =
            config.typeinf && !result.typeinf.types.empty();
        const auto& possible = result.structural.possible_parents;
        const auto& forced_parents = result.structural.forced_parents;
        for (Family& fam : families) {
            fam.edge_begin = edges.size();
            // Sized exactly: next to the word rows, the giant family's
            // list is the tail's largest allocation.
            std::size_t feasible = 0;
            for (int child : fam.members)
                feasible += possible[static_cast<std::size_t>(child)].size();
            fam.candidates.reserve(feasible);
            for (int child : fam.members) {
                const std::size_t ci = static_cast<std::size_t>(child);
                const std::uint32_t child_vt = types[ci];
                auto forced = forced_parents.find(child);
                for (int p : possible[ci]) {
                    const std::size_t pi = static_cast<std::size_t>(p);
                    ROCK_ASSERT(family_of[pi] == family_of[ci],
                                "type outside its family");
                    const std::uint32_t p_vt = types[pi];
                    Candidate c;
                    c.parent = position[pi];
                    c.child = position[ci];
                    if (forced != forced_parents.end() &&
                        forced->second == p) {
                        c.kind = Candidate::kForced;
                        ++pairs_pruned;
                    } else if (fuse &&
                               result.typeinf.subtype(p_vt, child_vt)) {
                        c.kind = Candidate::kPruned;
                        ++typeinf_pruned;
                    } else {
                        const bool agrees =
                            fuse && result.typeinf.subtype(child_vt, p_vt);
                        discounted += agrees ? 1 : 0;
                        c.edge = static_cast<std::uint32_t>(edges.size());
                        edges.emplace_back(p, child);
                        edge_discounted.push_back(agrees ? 1 : 0);
                    }
                    fam.candidates.push_back(c);
                }
            }
            fam.edge_end = edges.size();
        }
        {
            // DKL pairs actually scheduled vs. pruned away by
            // structural certainty (forced rule-3 parents cost nothing
            // to keep) or by a contradicting solved subtype fact.
            obs::Registry& reg = obs::Registry::global();
            reg.counter("divergence.pairs_scheduled").add(edges.size());
            reg.counter("divergence.pairs_pruned_forced")
                .add(pairs_pruned);
            reg.counter("typeinf.edges_pruned").add(typeinf_pruned);
            reg.counter("typeinf.edges_discounted").add(discounted);
        }
        // Edge cost ~ word-set size x per-word model walks; both scale
        // with the two types' sequence volume.
        edge_weights.assign(edges.size(), 0.0);
        edge_costs.assign(edges.size(), 1);
        for (std::size_t e = 0; e < edges.size(); ++e) {
            const auto [p, c] = edges[e];
            edge_costs[e] = type_costs[static_cast<std::size_t>(p)] +
                            type_costs[static_cast<std::size_t>(c)];
        }

        for (Family& fam : families) {
            const std::size_t eb = fam.edge_begin;
            const std::size_t ee = fam.edge_end;
            if (eb == ee)
                continue;
            // Distance-blob probe: a hit pre-fills the family's weight
            // range (final, post-discount values); probe() replays the
            // counters the skipped evaluation would have bumped.
            if (store) {
                std::uint64_t h = cache::mix(cache::kFnvSeed, ee - eb);
                for (std::size_t e = eb; e < ee; ++e) {
                    const auto [p, c] = edges[e];
                    h = cache::mix(h, static_cast<std::uint32_t>(p));
                    h = cache::mix(h, static_cast<std::uint32_t>(c));
                    h = cache::mix(h, type_seq_hash[static_cast<std::size_t>(p)]);
                    h = cache::mix(h, type_seq_hash[static_cast<std::size_t>(c)]);
                    h = cache::mix(h, edge_discounted[e] ? 1 : 0);
                }
                fam.dist_content = h;
                std::vector<double> weights;
                fam.dist_loaded = store->probe(
                    {kFamilyDistanceKind, h, fp_dist},
                    [&](cache::ByteReader& in) {
                        return decode_family_distances(in, &weights) &&
                               weights.size() == ee - eb;
                    });
                if (fam.dist_loaded)
                    std::copy(weights.begin(), weights.end(),
                              edge_weights.begin() +
                                  static_cast<std::ptrdiff_t>(eb));
            }
            // Built for loaded families too: its endpoint count sizes
            // the row chunks, and the task graph must not depend on
            // the cache.
            fam.table = std::make_unique<divergence::WordTable>(
                config.words, alphabet_size,
                std::span(edges).subspan(eb, ee - eb));
        }
    }

    // ---- Per-family task chains ----------------------------------------
    //     train chunks -> intern -> row chunks -> distance chunks -> solve
    // (families without edges: train chunks -> solve).
    result.families.resize(static_cast<std::size_t>(num_families));

    // Fixed chunk fan-out: larger than any sane worker count so big
    // families spread across the pool, yet independent of it so the
    // task graph is identical for every thread count.
    constexpr std::size_t kTaskFanout = 16;

    std::vector<support::Task> tasks;
    for (std::size_t f = 0; f < families.size(); ++f) {
        Family& fam = families[f];
        const std::size_t m = fam.members.size();
        const std::size_t eb = fam.edge_begin;
        const std::size_t ee = fam.edge_end;
        divergence::WordTable* table = fam.table.get();
        // Weights to compute (not served by the cache): only then do
        // the word and row steps do any work, and only then does a
        // store want their counters.
        const bool weigh = table && !fam.dist_loaded;
        const bool persist = weigh && store;

        std::vector<std::uint64_t> member_costs(m);
        for (std::size_t pos = 0; pos < m; ++pos)
            member_costs[pos] =
                type_costs[static_cast<std::size_t>(fam.members[pos])];
        std::vector<std::size_t> train_ids;
        for (const support::Chunk& chunk : support::plan_chunks(
                 m, kTaskFanout, member_costs.data())) {
            train_ids.push_back(tasks.size());
            const std::size_t slot = fam.dist_captured.size();
            if (table)
                fam.dist_captured.emplace_back();
            tasks.push_back(
                {[&, f, chunk, table, weigh, persist, slot]() {
                     Family& fam = families[f];
                     const auto& mem = fam.members;
                     {
                         obs::Span span("pipeline.train");
                         for (std::size_t pos = chunk.begin;
                              pos < chunk.end; ++pos) {
                             const std::size_t t =
                                 static_cast<std::size_t>(mem[pos]);
                             if (!store) {
                                 models[t] = slm::train_model(
                                     config.slm, alphabet_size, seqs[t]);
                                 continue;
                             }
                             const cache::ArtifactKey key{
                                 kSlmArtifactKind, type_seq_hash[t],
                                 fp_slm};
                             if (store->probe(
                                     key, [&](cache::ByteReader& in) {
                                         models[t] = slm::restore_model(
                                             config.slm, alphabet_size,
                                             in);
                                         return models[t] != nullptr;
                                     }))
                                 continue;
                             obs::CounterCapture capture;
                             models[t] = slm::train_model(
                                 config.slm, alphabet_size, seqs[t]);
                             cache::ByteWriter out;
                             slm::snapshot_model(*models[t], out);
                             store->store(key, out, capture.deltas());
                         }
                     }
                     if (!weigh)
                         return;
                     // Each endpoint type's words, once per type.
                     obs::Span span("pipeline.distances");
                     capture_into(fam, slot, persist, [&] {
                         const std::vector<int>& ends = table->types();
                         for (std::size_t pos = chunk.begin;
                              pos < chunk.end; ++pos) {
                             auto it = std::lower_bound(
                                 ends.begin(), ends.end(), mem[pos]);
                             if (it == ends.end() || *it != mem[pos])
                                 continue;
                             const std::size_t t =
                                 static_cast<std::size_t>(mem[pos]);
                             table->collect(
                                 static_cast<std::size_t>(it - ends.begin()),
                                 seqs[t], *models[t]);
                         }
                     });
                 },
                 {}});
        }

        // Interning, then one probability row per endpoint type.
        std::vector<std::size_t> row_ids;
        if (table) {
            const std::size_t intern_id = tasks.size();
            tasks.push_back({[table, weigh]() {
                                 obs::Span span("pipeline.distances");
                                 if (weigh)
                                     table->intern();
                             },
                             train_ids});
            const std::vector<std::uint64_t> row_costs =
                table->row_costs(edge_costs.data() + eb);
            for (const support::Chunk& chunk : support::plan_chunks(
                     row_costs.size(), kTaskFanout, row_costs.data())) {
                row_ids.push_back(tasks.size());
                const std::size_t slot = fam.dist_captured.size();
                fam.dist_captured.emplace_back();
                tasks.push_back(
                    {[&, f, chunk, table, weigh, persist, slot]() {
                         obs::Span span("pipeline.distances");
                         if (!weigh)
                             return;
                         capture_into(families[f], slot, persist, [&] {
                             for (std::size_t s = chunk.begin;
                                  s < chunk.end; ++s) {
                                 const std::size_t t =
                                     static_cast<std::size_t>(
                                         table->types()[s]);
                                 table->fill_row(s, *models[t]);
                             }
                         });
                     },
                     {intern_id}});
            }
        }

        std::vector<std::size_t> dist_ids;
        if (table) {
            for (const support::Chunk& chunk : support::plan_chunks(
                     ee - eb, kTaskFanout, edge_costs.data() + eb)) {
                dist_ids.push_back(tasks.size());
                const std::size_t slot = fam.dist_captured.size();
                fam.dist_captured.emplace_back();
                tasks.push_back(
                    {[&, f, eb, chunk, table, weigh, persist, slot]() {
                         obs::Span span("pipeline.distances");
                         if (!weigh)
                             return;
                         capture_into(families[f], slot, persist, [&] {
                             table->distances(config.metric, chunk.begin,
                                              chunk.end,
                                              edge_weights.data() + eb +
                                                  chunk.begin);
                             for (std::size_t e = eb + chunk.begin;
                                  e < eb + chunk.end; ++e) {
                                 // Solved-subtype agreement: cheapen the
                                 // edge without ever touching the
                                 // zero-cost floor forced edges stand on.
                                 if (edge_discounted[e] &&
                                     edge_weights[e] > 0.0)
                                     edge_weights[e] *=
                                         config.typeinf_discount;
                             }
                         });
                     },
                     row_ids});
            }
        }

        tasks.push_back(
            {[&, f, persist]() {
                 obs::Span span("pipeline.arborescence");
                 Family& fam = families[f];
                 // The family's weight range is final: free its rows, and
                 // persist it with the counters of the tasks that
                 // computed it (if this run did).
                 fam.table.reset();
                 if (persist) {
                     obs::CounterDeltas captured;
                     for (const obs::CounterDeltas& chunk : fam.dist_captured)
                         for (const auto& [name, delta] : chunk)
                             captured[name] += delta;
                     cache::ByteWriter out;
                     encode_family_distances(
                         {edge_weights.begin() +
                              static_cast<std::ptrdiff_t>(fam.edge_begin),
                          edge_weights.begin() +
                              static_cast<std::ptrdiff_t>(fam.edge_end)},
                         out);
                     store->store({kFamilyDistanceKind, fam.dist_content,
                                   fp_dist},
                                  out, captured);
                 }

                 FamilySolveBlob sol;
                 if (!store || fam.members.size() < 2) {
                     sol = solve_family(fam, edge_weights, config);
                 } else {
                     const cache::ArtifactKey key{
                         kFamilySolveKind,
                         famsolve_content(fam, edge_weights), fp_solve};
                     if (!store->probe(key, [&](cache::ByteReader& in) {
                             return decode_family_solution(in, &sol) &&
                                    sol.m == static_cast<int>(
                                                 fam.members.size());
                         })) {
                         obs::CounterCapture capture;
                         sol = solve_family(fam, edge_weights, config);
                         cache::ByteWriter out;
                         encode_family_solution(sol, out);
                         store->store(key, out, capture.deltas());
                     }
                 }
                 result.families[f] = family_result(
                     static_cast<int>(f), std::move(fam.members), sol);
             },
             dist_ids.empty() ? train_ids : dist_ids});
    }
    pool.run_tasks(tasks);

    // ---- Serial merges (deterministic order) ---------------------------
    {
        obs::Span span("pipeline.distances");
        result.distances.reserve(edges.size());
        for (std::size_t e = 0; e < edges.size(); ++e)
            result.distances.emplace(edges[e], edge_weights[e]);
    }
    for (const FamilyResult& fam : result.families)
        result.ambiguous_families += fam.structurally_ambiguous ? 1 : 0;

    std::vector<int> first(result.families.size(), 0);
    result.hierarchy = result.hierarchy_with(first);

    // A completed run vouches for every artifact it stored: publish
    // the manifest so the next identical run reports itself warm.
    // Its trailer is empty: a later hit replays nothing, because the
    // warm run it marks does all its own counting.
    if (store && !warm) {
        cache::ByteWriter w;
        w.u64(manifest.content);
        store->store(manifest, w, {});
    }
    total_span.end();

    if (obs::metrics_enabled()) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("pipeline.types").add(
            static_cast<std::uint64_t>(n));
        reg.counter("pipeline.families").add(
            static_cast<std::uint64_t>(num_families));
        reg.counter("pipeline.ambiguous_families").add(
            static_cast<std::uint64_t>(result.ambiguous_families));
    }

    ROCK_LOG_INFO << "reconstruct: " << n << " types, " << num_families
                  << " families (" << result.ambiguous_families
                  << " behaviorally resolved), " << threads
                  << " threads";
    return result;
}

} // namespace rock::core
