/**
 * @file
 * Robustness: the analyses must handle adversarial/degenerate images
 * gracefully -- returning empty results or raising FatalError, never
 * crashing or hanging.
 */
#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "bir/builder.h"
#include "rock/pipeline.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/str.h"

namespace {

using namespace rock;
using namespace rock::bir;

TEST(Robustness, EmptyImage)
{
    BinaryImage image;
    analysis::AnalysisResult result = analysis::analyze(image);
    EXPECT_TRUE(result.vtables.empty());
    EXPECT_TRUE(result.type_tracelets.empty());
    core::ReconstructionResult recon = core::reconstruct(image);
    EXPECT_EQ(recon.hierarchy.size(), 0);
}

TEST(Robustness, RandomBytesEitherFatalOrEmpty)
{
    support::Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        BinaryImage image;
        std::size_t code_size =
            (1 + rng.index(64)) * kInstrSize;
        for (std::size_t i = 0; i < code_size; ++i) {
            image.code.push_back(
                static_cast<std::uint8_t>(rng.index(256)));
        }
        for (std::size_t i = 0; i < 64; ++i) {
            image.data.push_back(
                static_cast<std::uint8_t>(rng.index(256)));
        }
        image.functions.push_back(FunctionEntry{
            image.code_base,
            static_cast<std::uint32_t>(image.code.size())});
        try {
            core::ReconstructionResult result =
                core::reconstruct(image);
            // Random bytes rarely form valid types; whatever comes
            // back must at least be internally consistent.
            EXPECT_LE(result.hierarchy.size(), 16);
        } catch (const support::FatalError&) {
            // Undecodable instruction streams are a user-level error.
        }
    }
}

TEST(Robustness, ValidOpcodesGarbageOperands)
{
    // Instructions decode but reference nonsense registers/targets.
    support::Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        BinaryImage image;
        int n = 4 + static_cast<int>(rng.index(40));
        for (int i = 0; i < n; ++i) {
            Instr instr;
            instr.op = static_cast<Op>(rng.index(16));
            instr.a = static_cast<std::uint8_t>(rng.index(16));
            instr.b = static_cast<std::uint8_t>(rng.index(16));
            instr.imm = static_cast<std::uint32_t>(
                rng.uniform(0, 1 << 22));
            encode(instr, image.code);
        }
        image.functions.push_back(FunctionEntry{
            image.code_base,
            static_cast<std::uint32_t>(image.code.size())});
        // Data full of plausible-looking code addresses.
        for (int w = 0; w < 16; ++w) {
            std::uint32_t value =
                image.code_base +
                static_cast<std::uint32_t>(rng.index(
                    static_cast<std::size_t>(n))) *
                    kInstrSize;
            image.data.push_back(
                static_cast<std::uint8_t>(value & 0xff));
            image.data.push_back(
                static_cast<std::uint8_t>((value >> 8) & 0xff));
            image.data.push_back(
                static_cast<std::uint8_t>((value >> 16) & 0xff));
            image.data.push_back(
                static_cast<std::uint8_t>((value >> 24) & 0xff));
        }
        EXPECT_NO_THROW({
            core::ReconstructionResult result =
                core::reconstruct(image);
            (void)result;
        }) << "trial "
           << trial;
    }
}

TEST(Robustness, BranchTargetsOutsideFunctionTerminate)
{
    // A jump to a bogus address must not hang the executor.
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    {
        FunctionBuilder fb;
        fb.nop();
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage image = ib.link({});
    // Patch the nop into a jump far past the function end.
    Instr jump;
    jump.op = Op::Jmp;
    jump.imm = image.code_base + 0x1000;
    std::vector<std::uint8_t> encoded;
    encode(jump, encoded);
    std::copy(encoded.begin(), encoded.end(), image.code.begin());
    EXPECT_NO_THROW(analysis::analyze(image));
}

TEST(Robustness, SelfCallingFunctionTerminates)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    {
        FunctionBuilder fb;
        int top = fb.new_label();
        fb.bind(top);
        fb.jmp(top); // tight infinite loop
        ib.define_function(f, std::move(fb));
    }
    BinaryImage image = ib.link({});
    analysis::SymExecConfig config;
    config.max_steps = 100;
    EXPECT_NO_THROW(analysis::analyze(image, config));
}

TEST(Robustness, UndecodableBodyFailsOnFirstBadFunction)
{
    // Functions 1 and 2 start with an invalid opcode byte. analyze()
    // scans bodies in parallel, but the decode fallback runs in
    // function order, so the error names function 1 for any thread
    // count.
    ImageBuilder ib;
    for (const char* name : {"f0", "f1", "f2"}) {
        FuncId f = ib.declare_function(name);
        FunctionBuilder fb;
        fb.nop();
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage image = ib.link({});
    for (std::size_t i : {1, 2})
        image.code[image.functions[i].addr - image.code_base] = 0xff;
    const std::string first_bad = support::hex(image.functions[1].addr);
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        analysis::SymExecConfig config;
        config.threads = threads;
        try {
            analysis::analyze(image, config);
            ADD_FAILURE() << "analyze accepted an undecodable body";
        } catch (const support::FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(first_bad),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Robustness, HugeArgumentIndicesIgnored)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    {
        FunctionBuilder fb;
        fb.setarg(255, 3);
        fb.getarg(3, 255);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage image = ib.link({});
    EXPECT_NO_THROW(analysis::analyze(image));
}

} // namespace
