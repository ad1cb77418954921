/**
 * @file
 * Differential regression: run every bundled --builtin image under
 * rockvm and assert (a) zero traps on clean toyc output and (b) the
 * containment invariant dynamic ⊆ static -- every typed tracelet the
 * interpreter witnesses concretely also appears in the tracelet set
 * symexec extracts statically for the same type.
 *
 * The static side runs with a boosted path budget (max_paths high
 * enough that no builtin saturates it): the default budget caps
 * exploration per function, and a concretely reachable path that the
 * static side *truncated away* would be a budget artifact, not a
 * mirror bug. The tier-1 vm-differential fuzz oracle applies the same
 * escalation before declaring a miss.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "corpus/benchmarks.h"
#include "corpus/examples.h"
#include "toyc/compiler.h"
#include "toyc/parser.h"
#include "vm/vm.h"

namespace {

using namespace rock;
using vm::Interpreter;
using vm::VmConfig;
using vm::VmResult;

/** All 24 bundled programs: 5 examples + 19 Table 2 benchmarks. */
std::vector<corpus::CorpusProgram>
builtin_programs()
{
    std::vector<corpus::CorpusProgram> out = {
        corpus::streams_program(),      corpus::datasources_program(),
        corpus::echoparams_program(),   corpus::cgrid_program(),
        corpus::multiple_inheritance_program(),
    };
    for (const auto& bench : corpus::table2_benchmarks())
        out.push_back(bench.program);
    return out;
}

/** Static tracelet sets per type, boosted so paths are not truncated. */
std::map<std::uint32_t, std::set<analysis::Tracelet>>
static_sets(const bir::BinaryImage& image, analysis::SymExecConfig cfg)
{
    cfg.max_paths = 4096;
    analysis::AnalysisResult result = analysis::analyze(image, cfg);
    std::map<std::uint32_t, std::set<analysis::Tracelet>> sets;
    for (const auto& [type, tracelets] : result.type_tracelets)
        sets[type].insert(tracelets.begin(), tracelets.end());
    return sets;
}

/**
 * A program whose tracelets depend on both execution caps: useLong
 * writes 40 distinct fields in one straight line (about 90
 * instructions, past a 64-step cap), and useLoop writes a field in an
 * opaque loop, then reads two others. A VM that ran longer frames or
 * took more backjumps than the static side would witness windows the
 * static side never extracts.
 */
corpus::CorpusProgram
caps_program()
{
    std::string source = "class Box {\n  fields 40;\n  virtual touch {\n"
                         "    write this.0;\n  }\n}\n"
                         "fn useLong() {\n  new Box b;\n";
    for (int field = 0; field < 40; ++field)
        source += "  write b." + std::to_string(field) + ";\n";
    source += "}\n"
              "fn useLoop() {\n  new Box b;\n  loop {\n    write b.0;\n"
              "  }\n  read b.1;\n  read b.2;\n}\n";
    corpus::CorpusProgram prog;
    prog.name = "caps";
    prog.program = toyc::parse_program(source, prog.name);
    return prog;
}

/** Run every program of @p programs under rockvm with @p config: no
 *  traps, and every dynamic tracelet is in the static set of the same
 *  knobs. Adds the runs' cap statistics to @p total. */
void
expect_clean_and_contained(const std::vector<corpus::CorpusProgram>& programs,
                           const VmConfig& config, vm::VmStats& total)
{
    for (const auto& prog : programs) {
        SCOPED_TRACE(prog.name);
        toyc::CompileResult built =
            toyc::compile(prog.program, prog.options);
        analysis::AnalysisResult analysis =
            analysis::analyze(built.image, config.symexec);
        Interpreter interp(built.image, analysis, config);
        VmResult dynamic = interp.run_image(1);
        total.frame_step_stops += dynamic.stats.frame_step_stops;
        total.forced_fallthroughs += dynamic.stats.forced_fallthroughs;

        // (a) clean images never trap.
        ASSERT_TRUE(dynamic.traps.empty())
            << prog.name << ": first trap "
            << vm::trap_name(dynamic.traps.front().kind) << " at 0x"
            << std::hex << dynamic.traps.front().addr;

        // The run did real work.
        EXPECT_GT(dynamic.stats.steps, 0u);
        EXPECT_FALSE(dynamic.coverage.empty());

        // (b) dynamic ⊆ static per type.
        auto sets = static_sets(built.image, config.symexec);
        for (const auto& [type, tracelets] : dynamic.type_tracelets) {
            auto it = sets.find(type);
            ASSERT_NE(it, sets.end())
                << prog.name << ": type 0x" << std::hex << type
                << " witnessed dynamically but absent statically";
            for (const auto& t : tracelets) {
                EXPECT_EQ(it->second.count(t), 1u)
                    << prog.name << ": dynamic tracelet for type 0x"
                    << std::hex << type
                    << " missing from the static set";
            }
        }
    }
}

TEST(VmDifferential, AllBuiltinsRunCleanAndContained)
{
    vm::VmStats stats;
    expect_clean_and_contained(builtin_programs(), VmConfig{}, stats);
}

TEST(VmDifferential, ContainedUnderNonDefaultSymexecKnobs)
{
    // The VM reads window length, per-frame step cap and backjump cap
    // from the one SymExecConfig it shares with the static side. The
    // builtins never reach either cap; caps_program() reaches both.
    VmConfig config;
    config.symexec.tracelet_len = 3;
    config.symexec.max_steps = 64;
    config.symexec.max_backjumps = 1;
    std::vector<corpus::CorpusProgram> programs = builtin_programs();
    programs.push_back(caps_program());
    vm::VmStats stats;
    expect_clean_and_contained(programs, config, stats);
    EXPECT_GT(stats.frame_step_stops, 0u);
    EXPECT_GT(stats.forced_fallthroughs, 0u);
}

TEST(VmDifferential, DynamicTypedCoverageIsNonTrivial)
{
    // At least the canonical single-inheritance example must witness
    // typed tracelets dynamically -- an empty dynamic side would make
    // the containment check vacuous.
    corpus::CorpusProgram prog = corpus::streams_program();
    toyc::CompileResult built =
        toyc::compile(prog.program, prog.options);
    analysis::AnalysisResult analysis = analysis::analyze(built.image);
    Interpreter interp(built.image, analysis, VmConfig{});
    VmResult dynamic = interp.run_image(1);
    EXPECT_FALSE(dynamic.type_tracelets.empty());
    std::size_t total = 0;
    for (const auto& [type, tracelets] : dynamic.type_tracelets)
        total += tracelets.size();
    EXPECT_GE(total, 3u);
}

} // namespace
