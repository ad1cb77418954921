/**
 * @file
 * The obs layer: metrics registry, span tracing, JSON round-trip, and
 * the rockstat regression-diff core.
 *
 * The suite shares the process-global Registry, so every test that
 * reads totals resets it first; gtest runs tests in one thread, so no
 * cross-test interleaving can corrupt a snapshot.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "corpus/generator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rock/pipeline.h"
#include "support/parallel.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

// ---- metrics registry ------------------------------------------------

TEST(Metrics, CounterSumExactUnderParallelFor)
{
    obs::Registry::global().reset();
    obs::Counter& c =
        obs::Registry::global().counter("test.parallel_sum");
    support::ThreadPool pool(4);
    constexpr std::size_t kItems = 20000;
    pool.parallel_for(kItems, nullptr, [&](std::size_t i) {
        c.add();
        if (i % 2 == 0)
            c.add(2);
    });
    EXPECT_EQ(c.value(), kItems + 2 * (kItems / 2));
}

TEST(Metrics, RegistryReturnsSameInstancePerName)
{
    obs::Counter& a = obs::Registry::global().counter("test.same");
    obs::Counter& b = obs::Registry::global().counter("test.same");
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, CrossKindNameCollisionThrows)
{
    obs::Registry::global().counter("test.collision");
    EXPECT_THROW(obs::Registry::global().gauge("test.collision"),
                 std::runtime_error);
    EXPECT_THROW(obs::Registry::global().histogram("test.collision"),
                 std::runtime_error);
}

TEST(Metrics, DisabledRecordingIsDropped)
{
    obs::Registry::global().reset();
    obs::Counter& c = obs::Registry::global().counter("test.disabled");
    obs::set_metrics_enabled(false);
    c.add(5);
    obs::set_metrics_enabled(true);
    EXPECT_EQ(c.value(), 0u);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

// ---- counter capture + replay ----------------------------------------

TEST(CounterCapture, RecordsWhileMetricsAreDisabled)
{
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    obs::set_metrics_enabled(false);
    obs::CounterDeltas deltas;
    {
        obs::CounterCapture capture;
        reg.counter("test.capture.a").add(3);
        reg.counter("test.capture.b").add();
        reg.counter("test.capture.a").add(2);
        deltas = capture.deltas();
    }
    obs::set_metrics_enabled(true);
    EXPECT_EQ(deltas, (obs::CounterDeltas{{"test.capture.a", 5},
                                          {"test.capture.b", 1}}));
    EXPECT_EQ(reg.counter("test.capture.a").value(), 0u);
    // Closed: later adds are no longer recorded anywhere.
    reg.counter("test.capture.a").add();
    EXPECT_EQ(reg.counter("test.capture.a").value(), 1u);
}

TEST(CounterCapture, ThreadsDoNotLeakIntoEachOther)
{
    obs::Registry& reg = obs::Registry::global();
    obs::CounterDeltas mine;
    obs::CounterDeltas theirs;
    {
        obs::CounterCapture capture;
        reg.counter("test.capture.main").add();
        std::thread worker([&] {
            reg.counter("test.capture.uncaptured").add(7);
            obs::CounterCapture inner;
            reg.counter("test.capture.worker").add(2);
            theirs = inner.deltas();
        });
        worker.join();
        reg.counter("test.capture.main").add();
        mine = capture.deltas();
    }
    EXPECT_EQ(mine, (obs::CounterDeltas{{"test.capture.main", 2}}));
    EXPECT_EQ(theirs, (obs::CounterDeltas{{"test.capture.worker", 2}}));
}

TEST(CounterCapture, NestedCapturesFoldIntoTheOuterOne)
{
    obs::Registry& reg = obs::Registry::global();
    obs::CounterCapture outer;
    reg.counter("test.capture.outer").add();
    {
        obs::CounterCapture inner;
        reg.counter("test.capture.inner").add(4);
        EXPECT_EQ(inner.deltas(),
                  (obs::CounterDeltas{{"test.capture.inner", 4}}));
    }
    EXPECT_EQ(outer.deltas(),
              (obs::CounterDeltas{{"test.capture.inner", 4},
                                  {"test.capture.outer", 1}}));
}

TEST(CounterCapture, ReplayByNameRoundTrips)
{
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    obs::CounterDeltas recorded;
    {
        obs::CounterCapture capture;
        reg.counter("test.replay.a").add(11);
        reg.counter("test.replay.zero").add(0);
        recorded = capture.deltas();
    }
    const auto cold = reg.counter_values();
    reg.reset();
    // Replaying registers names on first use and, inside an open
    // capture, is itself recorded: replays nest like computations.
    obs::CounterDeltas replayed;
    {
        obs::CounterCapture capture;
        obs::replay(recorded);
        replayed = capture.deltas();
    }
    EXPECT_EQ(replayed, recorded);
    EXPECT_EQ(reg.counter_values(), cold);
    EXPECT_EQ(reg.counter("test.replay.a").value(), 11u);
}

TEST(Metrics, HistogramBucketBoundaries)
{
    obs::Registry::global().reset();
    obs::Histogram& h = obs::Registry::global().histogram(
        "test.hist", {1.0, 10.0, 100.0});
    // A value equal to a bound lands in that bound's bucket (first
    // bucket with value <= bound); above the last bound -> overflow.
    h.observe(0.5);   // bucket 0
    h.observe(1.0);   // bucket 0 (boundary inclusive)
    h.observe(1.001); // bucket 1
    h.observe(10.0);  // bucket 1
    h.observe(99.9);  // bucket 2
    h.observe(100.1); // overflow
    std::vector<std::uint64_t> expected = {2, 2, 1, 1};
    EXPECT_EQ(h.counts(), expected);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 99.9 + 100.1,
                1e-9);
}

TEST(Metrics, HistogramRejectsNonIncreasingBounds)
{
    EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::runtime_error);
    EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::runtime_error);
}

TEST(Metrics, ResetZeroesInPlaceAndKeepsReferencesValid)
{
    obs::Counter& c = obs::Registry::global().counter("test.reset");
    c.add(7);
    obs::Registry::global().reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(1); // the same reference keeps recording
    EXPECT_EQ(c.value(), 1u);
}

// ---- span tracing ----------------------------------------------------

TEST(Trace, SpanNestingAndOrdering)
{
    obs::Registry::global().reset();
    {
        obs::Span outer("test.outer");
        {
            obs::Span inner("test.inner");
        }
        obs::Span sibling("test.sibling");
        sibling.end();
    }
    auto log = obs::span_log();
    ASSERT_EQ(log.size(), 3u);
    // Open order: parents precede children; ids match positions.
    EXPECT_EQ(log[0].name, "test.outer");
    EXPECT_EQ(log[0].id, 0);
    EXPECT_EQ(log[0].parent, -1);
    EXPECT_EQ(log[1].name, "test.inner");
    EXPECT_EQ(log[1].parent, 0);
    EXPECT_EQ(log[2].name, "test.sibling");
    EXPECT_EQ(log[2].parent, 0);
    // The parent's wall time covers both children.
    EXPECT_GE(log[0].wall_ms, log[1].wall_ms);
    EXPECT_GE(log[0].wall_ms, log[2].wall_ms);
}

TEST(Trace, EndIsIdempotentAndExposesWallMs)
{
    obs::Registry::global().reset();
    obs::Span span("test.idempotent");
    span.end();
    double first = span.wall_ms();
    span.end();
    EXPECT_EQ(span.wall_ms(), first);
    EXPECT_EQ(obs::span_log().size(), 1u);
}

TEST(Trace, DisabledSpansRecordNothing)
{
    obs::Registry::global().reset();
    obs::set_metrics_enabled(false);
    {
        obs::Span span("test.invisible");
    }
    obs::set_metrics_enabled(true);
    EXPECT_TRUE(obs::span_log().empty());
}

// ---- JSON + report ---------------------------------------------------

TEST(Report, JsonRoundTripIsExact)
{
    obs::Registry::global().reset();
    obs::Registry::global().counter("test.rt_counter").add(42);
    obs::Registry::global().gauge("test.rt_gauge").set(2.5);
    obs::Registry::global()
        .histogram("test.rt_hist", {1.0, 5.0})
        .observe(3.25);
    {
        obs::Span span("test.rt_span");
    }
    obs::MetricsReport report = obs::MetricsReport::capture();
    obs::MetricsReport parsed =
        obs::MetricsReport::from_json(report.to_json());
    EXPECT_EQ(parsed, report);
    // Canonical form: serializing twice is byte-identical.
    EXPECT_EQ(parsed.to_json(), report.to_json());
}

TEST(Report, FromJsonRejectsWrongSchemaAndGarbage)
{
    EXPECT_THROW(obs::MetricsReport::from_json("{}"),
                 std::runtime_error);
    EXPECT_THROW(obs::MetricsReport::from_json("not json"),
                 std::runtime_error);
    EXPECT_THROW(obs::MetricsReport::from_json(
                     "{\"schema\":\"rock-metrics-v0\"}"),
                 std::runtime_error);
}

TEST(Json, ParserHandlesEscapesAndNumbers)
{
    obs::Json v = obs::Json::parse(
        "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":-1.5e2,\"t\":true,"
        "\"z\":null,\"a\":[1,2]}");
    EXPECT_EQ(v.find("s")->string, "a\"b\\c\n");
    EXPECT_EQ(v.find("n")->number, -150.0);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_EQ(v.find("z")->kind, obs::Json::Kind::Null);
    EXPECT_EQ(v.find("a")->array.size(), 2u);
    EXPECT_THROW(obs::Json::parse("{\"unterminated\":"),
                 std::runtime_error);
}

// ---- regression diffing (rockstat core) ------------------------------

obs::MetricsReport
small_report()
{
    obs::MetricsReport r;
    r.counters = {{"alpha", 100}, {"beta", 5}};
    obs::SpanRecord span;
    span.name = "stage";
    span.wall_ms = 100.0;
    r.spans.push_back(span);
    return r;
}

TEST(Diff, SelfDiffIsClean)
{
    obs::MetricsReport r = small_report();
    EXPECT_TRUE(obs::diff_reports(r, r).empty());
}

TEST(Diff, DoubledCounterIsARegression)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    cur.counters["alpha"] = 200;
    auto regs = obs::diff_reports(base, cur);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "counter:alpha");
    EXPECT_EQ(regs[0].baseline, 100.0);
    EXPECT_EQ(regs[0].current, 200.0);
}

TEST(Diff, CounterToleranceAllowsBoundedDrift)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    cur.counters["alpha"] = 109;
    obs::DiffOptions options;
    options.counter_rel_tol = 0.10;
    EXPECT_TRUE(obs::diff_reports(base, cur, options).empty());
    cur.counters["alpha"] = 111;
    EXPECT_EQ(obs::diff_reports(base, cur, options).size(), 1u);
}

TEST(Diff, MissingCounterOnEitherSideIsReported)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    cur.counters.erase("beta");
    cur.counters["gamma"] = 1;
    EXPECT_EQ(obs::diff_reports(base, cur).size(), 2u);
}

TEST(Diff, SpanGateIsOneSidedWithSlack)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    // Default gate: 25% relative + 5ms slack over a 100ms baseline.
    cur.spans[0].wall_ms = 129.0;
    EXPECT_TRUE(obs::diff_reports(base, cur).empty());
    cur.spans[0].wall_ms = 131.0;
    auto regs = obs::diff_reports(base, cur);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "span:stage");
    // Getting faster never fails.
    cur.spans[0].wall_ms = 1.0;
    EXPECT_TRUE(obs::diff_reports(base, cur).empty());
    // counters_only skips the timing gate entirely.
    cur.spans[0].wall_ms = 10000.0;
    obs::DiffOptions counters_only;
    counters_only.counters_only = true;
    EXPECT_TRUE(obs::diff_reports(base, cur, counters_only).empty());
}

TEST(Diff, BenchLinesPairByIdentityAndGateTimings)
{
    const std::string base =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"identical_to_serial\":true}\n"
        "{\"bench\":\"x\",\"classes\":40,\"threads\":2,"
        "\"total_ms\":60.0,\"identical_to_serial\":true}\n";
    EXPECT_TRUE(obs::diff_bench_lines(base, base).empty());

    // >25%+5ms growth on one paired line.
    const std::string slow =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":140.0,\"identical_to_serial\":true}\n"
        "{\"bench\":\"x\",\"classes\":40,\"threads\":2,"
        "\"total_ms\":60.0,\"identical_to_serial\":true}\n";
    EXPECT_EQ(obs::diff_bench_lines(base, slow).size(), 1u);

    // A flipped boolean (determinism check!) always fails.
    const std::string broken =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"identical_to_serial\":true}\n"
        "{\"bench\":\"x\",\"classes\":40,\"threads\":2,"
        "\"total_ms\":60.0,\"identical_to_serial\":false}\n";
    EXPECT_EQ(obs::diff_bench_lines(base, broken).size(), 1u);

    // A baseline line with no current partner is reported.
    const std::string missing =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"identical_to_serial\":true}\n";
    EXPECT_EQ(obs::diff_bench_lines(base, missing).size(), 1u);
}

// ---- end-to-end: the pipeline under observation ----------------------

core::ReconstructionResult
run_generated(int threads, bool typeinf = true)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = 20;
    spec.num_trees = 2;
    spec.max_depth = 3;
    spec.scenarios_per_class = 2;
    spec.seed = 11;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    core::RockConfig config;
    config.threads = threads;
    config.typeinf = typeinf;
    return core::reconstruct(compiled.image, config);
}

TEST(EndToEnd, ReconstructEmitsMetricsAcrossEveryStage)
{
    obs::Registry::global().reset();
    run_generated(2);
    // On this corpus the solved subtype facts prune every non-forced
    // candidate edge, so the DKL stage legitimately weighs nothing;
    // the baseline configuration keeps the divergence counters
    // exercised (counters accumulate across both runs).
    run_generated(2, /*typeinf=*/false);
    obs::MetricsReport report = obs::MetricsReport::capture();

    // The acceptance bar: >= 15 distinct named metrics spanning all
    // stages of the pipeline.
    EXPECT_GE(report.counters.size(), 15u);
    for (const char* name :
         {"pipeline.runs", "pipeline.types", "verify.functions",
          "analysis.functions_symexec", "analysis.tracelets",
          "structural.feasible_parent_edges", "typeinf.constraints",
          "typeinf.object_vars", "typeinf.subtype_edges",
          "typeinf.edges_pruned", "slm.models_trained",
          "slm.trie_nodes", "slm.escapes", "divergence.pairs",
          "arborescence.families_solved", "threadpool.items"}) {
        EXPECT_TRUE(report.counters.count(name)) << name;
        if (std::string(name) != "verify.diagnostics") {
            EXPECT_GT(report.counters[name], 0u) << name;
        }
    }
    // One span per pipeline stage, rooted at pipeline.reconstruct.
    auto totals = report.span_totals();
    for (const char* span :
         {"pipeline.reconstruct", "pipeline.verify",
          "pipeline.analyze", "pipeline.structural",
          "pipeline.typeinf", "pipeline.train", "pipeline.distances",
          "pipeline.arborescence"}) {
        EXPECT_TRUE(totals.count(span)) << span;
    }
}

} // namespace
