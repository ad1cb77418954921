/**
 * @file
 * Tests for the experiments runner: the fast case studies behind
 * EXPERIMENTS.md. The full Table 2 run is rendered by the rockbench
 * tool; its per-benchmark shape is checked in benchmarks_test.
 */
#include <gtest/gtest.h>

#include "experiments/experiments.h"

namespace {

using namespace rock::experiments;

TEST(Experiments, EchoparamsCaseMatchesPaper)
{
    EchoparamsCase out = run_echoparams_case();
    EXPECT_EQ(out.structural_hierarchies, 64u);
    EXPECT_DOUBLE_EQ(out.without_slm.avg_added, 2.25);
    EXPECT_DOUBLE_EQ(out.with_slm.avg_added, 0.0);
    EXPECT_DOUBLE_EQ(out.with_slm.avg_missing, 0.0);
}

TEST(Experiments, SplicingCaseMatchesFig9)
{
    SplicingCase out = run_splicing_case();
    EXPECT_EQ(out.gt_roots, 4);
    EXPECT_EQ(out.spliced_pairs, 2);
    EXPECT_DOUBLE_EQ(out.distance.avg_missing, 0.0);
    EXPECT_NEAR(out.distance.avg_added, 0.5, 1e-9);
}

TEST(Experiments, MetricComparisonRanksKlFirst)
{
    auto scores = run_metric_comparison();
    ASSERT_EQ(scores.size(), 4u);
    EXPECT_EQ(scores[0].metric, "kl");
    for (std::size_t i = 1; i < scores.size(); ++i) {
        EXPECT_LE(scores[0].total_missing_plus_added,
                  scores[i].total_missing_plus_added + 1e-9)
            << scores[i].metric;
    }
}

TEST(Experiments, ScalabilityIsRoughlyLinear)
{
    auto points = run_scalability();
    ASSERT_GE(points.size(), 3u);
    double first = points.front().analyze_ms * 1000.0 /
                   static_cast<double>(points.front().functions);
    double last = points.back().analyze_ms * 1000.0 /
                  static_cast<double>(points.back().functions);
    EXPECT_LT(last, 20.0 * first);
    // Paths grow with program size (the analysis really ran).
    EXPECT_GT(points.back().paths, points.front().paths);
}

TEST(Experiments, TypeinfFusionStrictlyImprovesMiCorpus)
{
    TypeinfAblation out = run_typeinf_ablation();
    EXPECT_GT(out.solved_facts, 0u);
    // The fused objective repairs every decoy edge: no missing
    // relations, strictly better than the DKL-only baseline in both
    // the chosen hierarchy and the worst surviving alternative.
    EXPECT_DOUBLE_EQ(out.with_typeinf.avg_missing, 0.0);
    double base = out.dkl_only.avg_missing + out.dkl_only.avg_added;
    double fused =
        out.with_typeinf.avg_missing + out.with_typeinf.avg_added;
    EXPECT_LT(fused, base);
    double base_worst =
        out.dkl_only_worst.avg_missing + out.dkl_only_worst.avg_added;
    double fused_worst = out.with_typeinf_worst.avg_missing +
                         out.with_typeinf_worst.avg_added;
    EXPECT_LT(fused_worst, base_worst);
    // Bit-identical across thread counts.
    EXPECT_TRUE(out.thread_invariant);
}

TEST(Experiments, CfiTradeoffIsMonotone)
{
    auto points = run_cfi_tradeoff();
    ASSERT_EQ(points.size(), 4u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(points[i].avg_missing,
                  points[i - 1].avg_missing + 1e-9);
        EXPECT_GE(points[i].avg_added,
                  points[i - 1].avg_added - 1e-9);
    }
}

} // namespace
