/**
 * @file
 * End-to-end smoke test: the paper's streams example (Figs. 3-8)
 * must reconstruct the Fig. 4 hierarchy.
 */
#include <gtest/gtest.h>

#include "corpus/examples.h"
#include "eval/application_distance.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

TEST(Smoke, StreamsReconstructsFig4)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);

    ASSERT_FALSE(compiled.image.functions.empty());
    EXPECT_TRUE(compiled.image.symbols.empty()) << "image not stripped";

    core::ReconstructionResult result =
        core::reconstruct(compiled.image);

    // Three binary types discovered.
    ASSERT_EQ(result.structural.types.size(), 3u);

    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    ASSERT_EQ(gt.types.size(), 3u);

    // The reconstruction should be exact: Stream is the root,
    // ConfirmableStream and FlushableStream its children.
    eval::AppDistance dist =
        eval::application_distance(result.hierarchy, gt);
    EXPECT_DOUBLE_EQ(dist.avg_missing, 0.0);
    EXPECT_DOUBLE_EQ(dist.avg_added, 0.0);

    std::uint32_t stream_vt = compiled.debug.class_to_vtable.at("Stream");
    std::uint32_t flush_vt =
        compiled.debug.class_to_vtable.at("FlushableStream");
    std::uint32_t confirm_vt =
        compiled.debug.class_to_vtable.at("ConfirmableStream");

    int stream = result.hierarchy.index_of(stream_vt);
    int flush = result.hierarchy.index_of(flush_vt);
    int confirm = result.hierarchy.index_of(confirm_vt);
    ASSERT_GE(stream, 0);
    ASSERT_GE(flush, 0);
    ASSERT_GE(confirm, 0);
    EXPECT_EQ(result.hierarchy.parent(stream), -1);
    EXPECT_EQ(result.hierarchy.parent(confirm), stream);
    EXPECT_EQ(result.hierarchy.parent(flush), stream);

    // The paper's Fig. 6 ranking: DKL(Class3, Class1) = 0.07 <
    // DKL(Class3, Class2) = 0.21, so Stream is the more likely parent
    // of FlushableStream. The ordering is what must hold.
    int s_stream = result.structural.index_of(stream_vt);
    int s_flush = result.structural.index_of(flush_vt);
    int s_confirm = result.structural.index_of(confirm_vt);
    EXPECT_LT(result.distances.at({s_stream, s_flush}),
              result.distances.at({s_confirm, s_flush}));
}

} // namespace
