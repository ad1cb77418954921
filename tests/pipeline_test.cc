/**
 * @file
 * Unit/integration tests for the end-to-end Rock pipeline.
 */
#include <gtest/gtest.h>

#include "corpus/examples.h"
#include "corpus/generator.h"
#include "divergence/metrics.h"
#include "eval/application_distance.h"
#include "eval/ground_truth.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::core;

ReconstructionResult
run(const corpus::CorpusProgram& example, const RockConfig& config = {})
{
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    return reconstruct(compiled.image, config);
}

TEST(Pipeline, DistancesOnlyOnFeasibleEdges)
{
    ReconstructionResult result = run(corpus::streams_program());
    // Streams family: feasible edges are Stream->Confirmable,
    // Stream->Flushable, Confirmable->Flushable.
    EXPECT_EQ(result.distances.size(), 3u);
    for (const auto& [edge, dist] : result.distances) {
        EXPECT_NE(edge.first, edge.second);
        EXPECT_GE(dist, 0.0);
    }
}

TEST(Pipeline, TypeinfPrunedEdgesAreNeverWeighedOrChosen)
{
    // On this corpus the solved subtype facts prune every non-forced
    // candidate edge: a pruned p -> child (typeinf proved p derives
    // from child) must never be weighed nor picked, while forced
    // rule-3 parents always are.
    corpus::GeneratorSpec spec;
    spec.num_classes = 20;
    spec.num_trees = 2;
    spec.max_depth = 3;
    spec.scenarios_per_class = 2;
    spec.seed = 11;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    for (int threads : {1, 4}) {
        RockConfig config;
        config.threads = threads;
        ReconstructionResult result = reconstruct(compiled.image, config);
        const auto& structural = result.structural;
        const auto& types = structural.types;
        std::size_t pruned = 0;
        std::size_t forced = 0;
        for (const FamilyResult& fam : result.families) {
            for (std::size_t m = 0; m < fam.members.size(); ++m) {
                const int child = fam.members[m];
                auto forced_it = structural.forced_parents.find(child);
                if (forced_it != structural.forced_parents.end()) {
                    ++forced;
                    EXPECT_EQ(result.hierarchy.parent(child),
                              forced_it->second)
                        << "threads " << threads << " child " << child;
                    continue;
                }
                for (int p : structural.possible_parents
                                 [static_cast<std::size_t>(child)]) {
                    if (!result.typeinf.subtype(
                            types[static_cast<std::size_t>(p)],
                            types[static_cast<std::size_t>(child)]))
                        continue;
                    ++pruned;
                    EXPECT_EQ(result.distances.count({p, child}), 0u)
                        << "threads " << threads << " edge " << p
                        << " -> " << child;
                    for (const auto& parents : fam.alternatives)
                        EXPECT_NE(parents[m], p)
                            << "threads " << threads << " edge " << p
                            << " -> " << child;
                }
            }
        }
        EXPECT_GT(pruned, 0u) << "threads " << threads;
        EXPECT_GT(forced, 0u) << "threads " << threads;
    }
}

TEST(Pipeline, VerifyStageRunsByDefault)
{
    // Compiled images are rockcheck clean, and the stage is timed.
    const auto before = obs::span_wall_totals();
    ReconstructionResult result = run(corpus::streams_program());
    EXPECT_TRUE(result.diagnostics.empty());
    EXPECT_GT(obs::span_wall_since(before)["pipeline.verify"], 0.0);

    RockConfig off;
    off.verify = false;
    obs::Registry::global().reset();
    ReconstructionResult skipped = run(corpus::streams_program(), off);
    EXPECT_TRUE(skipped.diagnostics.empty());
    for (const obs::SpanRecord& span : obs::span_log())
        EXPECT_NE(span.name, "pipeline.verify");
}

TEST(Pipeline, AmbiguousFamiliesCounted)
{
    ReconstructionResult streams = run(corpus::streams_program());
    EXPECT_EQ(streams.ambiguous_families, 1);

    // With ctor cues everywhere, nothing is ambiguous.
    corpus::CorpusProgram cued = corpus::streams_program();
    cued.options.parent_ctor_calls = true;
    ReconstructionResult resolved = run(cued);
    EXPECT_EQ(resolved.ambiguous_families, 0);
}

TEST(Pipeline, FamiliesCoverAllTypes)
{
    ReconstructionResult result = run(corpus::datasources_program());
    std::set<int> covered;
    for (const auto& fam : result.families) {
        ASSERT_FALSE(fam.alternatives.empty());
        for (int member : fam.members)
            EXPECT_TRUE(covered.insert(member).second);
        for (const auto& alt : fam.alternatives)
            EXPECT_EQ(alt.size(), fam.members.size());
    }
    EXPECT_EQ(covered.size(), result.structural.types.size());
}

TEST(Pipeline, HierarchyWithRebuildsAlternatives)
{
    corpus::CorpusProgram example = corpus::echoparams_program();
    RockConfig config;
    config.tie_epsilon = 100.0; // keep many alternatives alive
    ReconstructionResult result = run(example, config);

    std::vector<int> first(result.families.size(), 0);
    Hierarchy h0 = result.hierarchy_with(first);
    for (int v = 0; v < h0.size(); ++v)
        EXPECT_EQ(h0.parent(v), result.hierarchy.parent(v));

    // Some family has >1 surviving alternative under the huge
    // epsilon; a different pick changes the forest.
    bool found_different = false;
    for (std::size_t f = 0; f < result.families.size(); ++f) {
        if (result.families[f].alternatives.size() > 1) {
            auto picks = first;
            picks[f] = 1;
            Hierarchy h1 = result.hierarchy_with(picks);
            for (int v = 0; v < h1.size(); ++v) {
                if (h1.parent(v) != h0.parent(v))
                    found_different = true;
            }
        }
    }
    EXPECT_TRUE(found_different);
}

TEST(Pipeline, MetricIsConfigurable)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);

    // The paper found symmetric metrics inferior; here we only check
    // they run and produce a hierarchy over all types.
    for (auto metric :
         {divergence::MetricKind::KL, divergence::MetricKind::KLReversed,
          divergence::MetricKind::JSDivergence,
          divergence::MetricKind::JSDistance}) {
        RockConfig config;
        config.metric = metric;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        EXPECT_EQ(result.hierarchy.size(), 3);
    }
}

TEST(Pipeline, SlmFamilyIsConfigurable)
{
    corpus::CorpusProgram example = corpus::echoparams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);

    for (auto kind : {slm::ModelKind::PpmC, slm::ModelKind::Katz,
                      slm::ModelKind::NGram}) {
        RockConfig config;
        config.slm.kind = kind;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        // Any reasonable sequence model resolves echoparams' star.
        EXPECT_LE(d.avg_missing, 0.25) << static_cast<int>(kind);
    }
}

TEST(Pipeline, SlmDepthSweep)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    for (int depth : {1, 2, 3, 4}) {
        RockConfig config;
        config.slm.depth = depth;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        EXPECT_DOUBLE_EQ(d.avg_missing + d.avg_added, 0.0)
            << "depth " << depth;
    }
}

TEST(Pipeline, TraceletLengthSweep)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    for (int len : {3, 5, 7, 11}) {
        RockConfig config;
        config.symexec.tracelet_len = len;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        EXPECT_DOUBLE_EQ(d.avg_missing + d.avg_added, 0.0)
            << "tracelet_len " << len;
    }
}

TEST(Pipeline, EmptyImageYieldsEmptyHierarchy)
{
    bir::BinaryImage empty;
    ReconstructionResult result = reconstruct(empty);
    EXPECT_EQ(result.hierarchy.size(), 0);
    EXPECT_TRUE(result.families.empty());
}

TEST(MajorityFilter, ThreeForestTwoOneSplitDropsDissenter)
{
    // Position 1: two forests vote parent 0, one votes parent 2 --
    // the 2-1 strict majority drops the dissenter. Position 2 then
    // splits 1-1 between the survivors, which is no strict majority,
    // so exactly the two agreeing forests remain, in order.
    graph::Arborescence a;
    a.parent = {-1, 0, 1};
    graph::Arborescence b;
    b.parent = {-1, 0, 0};
    graph::Arborescence c;
    c.parent = {-1, 2, 0};
    std::vector<graph::Arborescence> forests{a, b, c};
    detail::majority_filter(forests);
    ASSERT_EQ(forests.size(), 2u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 1}));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{-1, 0, 0}));
}

TEST(MajorityFilter, UnanimousPositionsFilterNothing)
{
    // Every position is either unanimous or an even split: no forest
    // may be dropped.
    graph::Arborescence a;
    a.parent = {-1, 0, 0};
    graph::Arborescence b;
    b.parent = {-1, 0, 1};
    std::vector<graph::Arborescence> forests{a, b};
    detail::majority_filter(forests);
    ASSERT_EQ(forests.size(), 2u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 0}));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{-1, 0, 1}));
}

TEST(MajorityFilter, CascadesUntilFixpoint)
{
    // Dropping the position-1 dissenter leaves a 2-1 majority at
    // position 2... (3-1 at position 1, then 2-1 at position 2):
    // the filter must iterate to the single survivor pair.
    graph::Arborescence a;
    a.parent = {-1, 0, 1};
    graph::Arborescence b;
    b.parent = {-1, 0, 1};
    graph::Arborescence c;
    c.parent = {-1, 0, 0};
    graph::Arborescence d;
    d.parent = {-1, 2, 0};
    std::vector<graph::Arborescence> forests{a, b, c, d};
    detail::majority_filter(forests);
    // Position 1: 0 wins 3-1, d dropped. Position 2: 1 wins 2-1,
    // c dropped. Survivors agree everywhere -> fixpoint.
    ASSERT_EQ(forests.size(), 2u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 1}));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{-1, 0, 1}));
}

TEST(Pipeline, WordSetStrategiesAgreeOnStreams)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    for (auto strategy : {divergence::WordSetStrategy::ObservedUnion,
                          divergence::WordSetStrategy::Sampled}) {
        RockConfig config;
        config.words.strategy = strategy;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        EXPECT_DOUBLE_EQ(d.avg_missing + d.avg_added, 0.0);
    }
}

} // namespace
