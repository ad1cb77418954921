/**
 * @file
 * Integration tests over the paper's motivating example programs.
 */
#include <gtest/gtest.h>

#include "corpus/examples.h"
#include "eval/application_distance.h"
#include "eval/forest_metrics.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

struct Reconstructed {
    toyc::CompileResult compiled;
    core::ReconstructionResult result;
    eval::GroundTruth gt;

    int
    node(const std::string& cls) const
    {
        return result.hierarchy.index_of(
            compiled.debug.class_to_vtable.at(cls));
    }
};

Reconstructed
run(const corpus::CorpusProgram& example,
    const core::RockConfig& config = {})
{
    Reconstructed r;
    r.compiled = toyc::compile(example.program, example.options);
    r.result = core::reconstruct(r.compiled.image, config);
    r.gt = eval::ground_truth_from_debug(r.compiled.debug);
    return r;
}

TEST(Examples, DataSourcesExact)
{
    Reconstructed r = run(corpus::datasources_program());
    ASSERT_EQ(r.gt.types.size(), 7u);

    eval::AppDistance dist =
        eval::application_distance(r.result.hierarchy, r.gt);
    EXPECT_DOUBLE_EQ(dist.avg_missing, 0.0);
    EXPECT_DOUBLE_EQ(dist.avg_added, 0.0);

    // The CFI property from the paper's Fig. 1: no external source may
    // be a successor of InternalDataSource.
    auto internal_succ = r.result.hierarchy.successors(
        r.node("InternalDataSource"));
    EXPECT_EQ(internal_succ.size(), 2u);
    EXPECT_TRUE(internal_succ.count(r.node("CachedInternalSource")));
    EXPECT_TRUE(internal_succ.count(r.node("FileInternalSource")));
    EXPECT_FALSE(internal_succ.count(r.node("HttpExternalSource")));
    EXPECT_FALSE(internal_succ.count(r.node("FtpExternalSource")));

    // Family-level CFI (type grouping) would let readInternal accept
    // external sources: both land in one structural family...
    const auto& sr = r.result.structural;
    auto family_of = [&](std::uint32_t vtable) {
        return sr.family[static_cast<std::size_t>(sr.index_of(vtable))];
    };
    const auto& vtables = r.compiled.debug.class_to_vtable;
    EXPECT_EQ(family_of(vtables.at("InternalDataSource")),
              family_of(vtables.at("HttpExternalSource")));

    // ...so the hierarchy strictly narrows the virtual-call target
    // sets: a call on T admits T and its successors, not its family.
    const core::Hierarchy& h = r.result.hierarchy;
    std::size_t group_total = 0;
    std::size_t hier_total = 0;
    for (int v = 0; v < h.size(); ++v) {
        group_total += sr.family_members(family_of(h.type_at(v))).size();
        hier_total += h.successors(v).size() + 1;
    }
    EXPECT_LT(hier_total, group_total);
}

TEST(Examples, EchoparamsStructurallyAmbiguousButExact)
{
    Reconstructed r = run(corpus::echoparams_program());
    ASSERT_EQ(r.gt.types.size(), 4u);

    // Structure alone admits many hierarchies (the paper counts 64
    // for the real echoparams)...
    EXPECT_EQ(r.result.ambiguous_families, 1);
    eval::AppDistance structural = eval::application_distance_structural(
        r.result.structural, r.gt);
    EXPECT_GT(structural.avg_added, 1.0);

    // ...but the behavioral ranking recovers the star exactly.
    eval::AppDistance dist =
        eval::application_distance(r.result.hierarchy, r.gt);
    EXPECT_DOUBLE_EQ(dist.avg_missing, 0.0);
    EXPECT_DOUBLE_EQ(dist.avg_added, 0.0);
}

TEST(Examples, CgridSplicesOptimizedOutParents)
{
    Reconstructed r = run(corpus::cgrid_program());
    // CEdit and CDialog are abstract: optimized out of the binary.
    EXPECT_EQ(r.compiled.debug.class_to_vtable.count("CEdit"), 0u);
    EXPECT_EQ(r.compiled.debug.class_to_vtable.count("CDialog"), 0u);
    ASSERT_EQ(r.gt.types.size(), 4u);

    // Ground truth (as it exists in the binary): four roots.
    for (const char* cls :
         {"CGridEditorComboBoxEdit", "CGridEditorText", "CAboutDlg",
          "CGridListCtrlExDlg"}) {
        EXPECT_EQ(r.gt.parent.count(
                      r.compiled.debug.class_to_vtable.at(cls)),
                  0u)
            << cls;
    }

    // The reconstruction splices each sibling pair into one hierarchy
    // (paper Fig. 9b): one of each pair becomes the other's parent.
    int combo = r.node("CGridEditorComboBoxEdit");
    int text = r.node("CGridEditorText");
    int about = r.node("CAboutDlg");
    int main_dlg = r.node("CGridListCtrlExDlg");
    EXPECT_TRUE(r.result.hierarchy.parent(combo) == text ||
                r.result.hierarchy.parent(text) == combo);
    EXPECT_TRUE(r.result.hierarchy.parent(about) == main_dlg ||
                r.result.hierarchy.parent(main_dlg) == about);

    // Against the binary ground truth this scores as added types --
    // the documented cost of recovering source-level relations.
    eval::AppDistance dist =
        eval::application_distance(r.result.hierarchy, r.gt);
    EXPECT_DOUBLE_EQ(dist.avg_missing, 0.0);
    EXPECT_NEAR(dist.avg_added, 0.5, 1e-9); // 2 added over 4 types
}

TEST(Examples, MultipleInheritanceDetected)
{
    Reconstructed r = run(corpus::multiple_inheritance_program());

    // Model has two vptr offsets -> two parents (Section 5.3).
    int model = r.result.structural.index_of(
        r.compiled.debug.class_to_vtable.at("Model"));
    ASSERT_GE(model, 0);
    auto count = r.result.structural.parent_counts.find(model);
    ASSERT_NE(count, r.result.structural.parent_counts.end());
    EXPECT_EQ(count->second, 2);

    // Primary parent: Serializable. Extra parent: Observable.
    int serializable = r.node("Serializable");
    int observable = r.node("Observable");
    int model_node = r.node("Model");
    EXPECT_EQ(r.result.hierarchy.parent(model_node), serializable);
    auto parents = r.result.hierarchy.parents(model_node);
    EXPECT_TRUE(std::find(parents.begin(), parents.end(), observable) !=
                parents.end());

    // Snapshot stays a plain child of Serializable.
    EXPECT_EQ(r.result.hierarchy.parent(r.node("Snapshot")),
              serializable);
}

} // namespace
