/**
 * @file
 * rockperf: the Rock benchmark binary (run it through run.py,
 * which builds it first).
 *
 *   rockperf --workload giant-family|many-families
 *            --seed N --seconds S --trace 0|1
 *            [--threads T] [--size full|tiny] [--work-dir DIR]
 *
 * Every input is generated from --seed. --trace 0 measures the
 * end-to-end metrics for --seconds; --trace 1 runs the separate
 * traced replay (layers.h) and reports the per-layer metrics, writing
 * its spans and the per-family breakdown to
 * DIR/trace-<workload>-<seed>.json. Informational JSON lines go to
 * stdout first; the last line is the result object
 * {"correct", "attempted", "failed", "metrics"}. Exit status is 0
 * only when every checked output was correct.
 */
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "bir/serialize.h"
#include "cfg/cfg_cache.h"
#include "eval/application_distance.h"
#include "layers.h"
#include "obs/metrics.h"
#include "rock/pipeline.h"
#include "serve/server.h"
#include "serve_replay.h"

#ifndef ROCKPERF_BUILD_TYPE
#define ROCKPERF_BUILD_TYPE "unknown"
#endif

namespace rockperf {
namespace {

using namespace rock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** 0 = one per hardware thread. */
    int threads = 0;
    bool tiny = false;
    std::string work_dir = ".";
};

/** Input sizes of one workload; --size tiny shrinks them for the
 *  smoke check. */
struct Sizes {
    int classes = 0;
    int images = 0;
};

Sizes
sizes_for(const std::string& workload, bool tiny)
{
    Sizes s;
    if (workload == "giant-family") {
        s.classes = tiny ? 120 : 2000;
        s.images = tiny ? 2 : 3;
    } else {
        s.classes = tiny ? 200 : 5000;
        s.images = 2;
    }
    return s;
}

/** Server workers of the traced run's cold + warm submit. */
constexpr int kServeWorkers = 2;

/** Fewest set-ups the setup_s median is taken over. */
constexpr std::size_t kSetupSamples = 5;

/** What a run checked and measured. */
struct Outcome {
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "rockperf: FAILED: %s\n", what.c_str());
        }
    }
};

void
info(const std::string& kind, const std::string& body)
{
    std::printf("{\"rockperf\":%s,%s}\n", json_string(kind).c_str(),
                body.c_str());
}

std::string
kv(const std::string& key, double value)
{
    return json_string(key) + ":" + json_number(value);
}

/** JSON array of @p values. */
template <typename T>
std::string
json_array(const std::vector<T>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        if constexpr (std::is_floating_point_v<T>)
            out += json_number(values[i]);
        else
            out += std::to_string(values[i]);
    }
    return out + "]";
}

/** Output-level checks of one reconstruction; empty when sound. */
std::string
check_reconstruction(const core::ReconstructionResult& r)
{
    if (r.structural.types.empty())
        return "no types discovered";
    if (r.hierarchy.types() != r.structural.types)
        return "hierarchy does not cover every discovered type";
    for (const auto& fam : r.families) {
        if (fam.alternatives.empty())
            return "family " + std::to_string(fam.family_id) +
                   " has no forest";
    }
    return {};
}

/** Same types with the same parents, extra parents included. */
bool
same_hierarchy(const core::Hierarchy& a, const core::Hierarchy& b)
{
    if (a.types() != b.types())
        return false;
    for (int node = 0; node < a.size(); ++node) {
        if (a.parents(node) != b.parents(node))
            return false;
    }
    return true;
}

/**
 * The workload's input images: fixed programs in seed-derived
 * layouts. giant-family measures rockc --synthetic 2000 --gen-seed 1
 * (the ROADMAP's "s2000") and many-families the programs of generator
 * seeds 1 and 2. The run seed picks each image's layout (the
 * generator's entry_usage rotation reorders the usage functions). The
 * cost of this generator shape swings from 2.6 s to 37 s cold across
 * generator seeds at 2000 classes (README.md), so a fresh program per
 * run seed would make every time metric unsteady.
 */
std::vector<Image>
make_images(const Options& opt, const Sizes& sizes)
{
    std::vector<Image> images;
    for (int k = 0; k < sizes.images; ++k) {
        const bool giant = opt.workload == "giant-family";
        corpus::GeneratorSpec spec =
            giant ? synthetic_shape(sizes.classes, 1)
                  : forest_shape(sizes.classes, k + 1);
        spec.entry_usage =
            1 + static_cast<int>(
                    derive_seed(opt.seed, static_cast<std::uint64_t>(k)) %
                    1000000);
        images.push_back(make_image(spec));
    }
    return images;
}

core::RockConfig
config_with(int threads)
{
    core::RockConfig config;
    config.threads = threads;
    return config;
}

void
set_latency_metrics(Metrics& m, const std::vector<double>& latency_ms,
                    double busy_s)
{
    m.set("latency_ms.p50", percentile(latency_ms, 0.50), "ms");
    m.set("latency_ms.p95", percentile(latency_ms, 0.95), "ms");
    m.set("requests_per_s",
          busy_s > 0.0 ? static_cast<double>(latency_ms.size()) / busy_s
                       : 0.0,
          "1/s");
}

/** The §6 application distance of one result, as totals. */
struct Accuracy {
    int types = 0;
    /** Ground-truth (ancestor, descendant) pairs. */
    double expected = 0.0;
    double missing = 0.0;
    double added = 0.0;
};

/** (ancestor, descendant) pairs over the evaluated types, ground truth
 *  or reconstructed. */
using AncestorPairs = std::set<std::pair<std::uint32_t, std::uint32_t>>;

AncestorPairs
truth_pairs(const eval::GroundTruth& gt)
{
    AncestorPairs pairs;
    for (std::uint32_t d : gt.types) {
        for (auto it = gt.parent.find(d); it != gt.parent.end();
             it = gt.parent.find(it->second)) {
            if (it->second == d)
                break;
            if (std::binary_search(gt.types.begin(), gt.types.end(),
                                   it->second))
                pairs.insert({it->second, d});
        }
    }
    return pairs;
}

AncestorPairs
hierarchy_pairs(const core::Hierarchy& h, const eval::GroundTruth& gt)
{
    AncestorPairs pairs;
    for (std::uint32_t d : gt.types) {
        const int node = h.index_of(d);
        if (node < 0)
            continue;
        std::set<int> seen;
        std::vector<int> stack{node};
        while (!stack.empty()) {
            const int cur = stack.back();
            stack.pop_back();
            for (int p : h.parents(cur)) {
                if (p == node || !seen.insert(p).second)
                    continue;
                stack.push_back(p);
                const std::uint32_t a = h.type_at(p);
                if (std::binary_search(gt.types.begin(), gt.types.end(), a))
                    pairs.insert({a, d});
            }
        }
    }
    return pairs;
}

/**
 * eval::application_distance's relation -- t' is a successor of t
 * when t is on t''s ancestor chain -- counted from the ancestor side
 * in O(types x depth); the library walks every type per type, which
 * takes tens of seconds at 5000 classes. On images of at most
 * kCrossCheckTypes types both are computed and must agree exactly.
 */
constexpr std::size_t kCrossCheckTypes = 600;

Accuracy
accuracy_of(const core::Hierarchy& h, const eval::GroundTruth& gt,
            Outcome& out)
{
    const AncestorPairs truth = truth_pairs(gt);
    const AncestorPairs found = hierarchy_pairs(h, gt);
    Accuracy a;
    a.types = static_cast<int>(gt.types.size());
    a.expected = static_cast<double>(truth.size());
    for (const auto& pair : truth)
        a.missing += found.count(pair) ? 0.0 : 1.0;
    for (const auto& pair : found)
        a.added += truth.count(pair) ? 0.0 : 1.0;
    if (gt.types.size() <= kCrossCheckTypes && a.types > 0) {
        const eval::AppDistance lib = eval::application_distance(h, gt);
        out.check(lib.avg_missing == a.missing / a.types &&
                      lib.avg_added == a.added / a.types,
                  "ancestor-pair count disagrees with "
                  "eval::application_distance");
    }
    return a;
}

/**
 * The §6 metric over every image of the run, as two ratios that are
 * never 0: the share of ground-truth ancestor relations recovered
 * (1 - missing / expected) and the share of reported relations that
 * are true. avg_missing / avg_added themselves go to an info line.
 */
void
set_accuracy_metrics(Metrics& m, const std::vector<Accuracy>& all)
{
    double expected = 0.0, missing = 0.0, added = 0.0;
    double avg_missing = 0.0, avg_added = 0.0;
    for (const Accuracy& a : all) {
        expected += a.expected;
        missing += a.missing;
        added += a.added;
        avg_missing += a.types ? a.missing / a.types : 0.0;
        avg_added += a.types ? a.added / a.types : 0.0;
    }
    const double found = expected - missing;
    m.set("ancestor_recall", expected > 0.0 ? found / expected : 1.0,
          "ratio");
    m.set("ancestor_precision",
          found + added > 0.0 ? found / (found + added) : 1.0, "ratio");
    const double images = std::max<double>(1.0, all.size());
    info("accuracy", kv("avg_missing", avg_missing / images) + "," +
                         kv("avg_added", avg_added / images) + "," +
                         kv("images", static_cast<double>(all.size())));
}

/** --trace 0: cold reconstructs of the workload's images, round
 *  robin, until the time is up. */
Outcome
run_batch(const Options& opt, const std::vector<Image>& images,
          int threads, std::vector<double> setup_s)
{
    Outcome out;
    std::vector<double> wall_s, cpu_s;
    std::vector<std::optional<core::Hierarchy>> first(images.size());
    std::vector<Accuracy> accuracy;
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < images.size() || seconds_since(start) < opt.seconds; ++i) {
        const std::size_t k = i % images.size();
        // Keep the obs span log from growing across samples (one
        // rockhier process performs one reconstruction).
        obs::Registry::global().reset();
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        core::ReconstructionResult result;
        std::string error;
        try {
            result = core::reconstruct(images[k].compiled.image,
                                       config_with(threads));
        } catch (const std::exception& e) {
            error = std::string("reconstruct threw: ") + e.what();
        }
        wall_s.push_back(seconds_since(t0));
        cpu_s.push_back(process_cpu_s() - cpu0);
        if (error.empty())
            error = check_reconstruction(result);
        if (error.empty()) {
            if (!first[k]) {
                first[k] = result.hierarchy;
                accuracy.push_back(
                    accuracy_of(result.hierarchy, images[k].truth, out));
            } else if (!same_hierarchy(result.hierarchy, *first[k])) {
                error = "hierarchy differs between two reconstructs of "
                        "one image";
            }
        }
        out.check(error.empty(), "reconstruct of image " +
                                     std::to_string(k) + ": " + error);
    }
    double busy = 0.0;
    std::vector<double> latency_ms;
    for (double s : wall_s) {
        busy += s;
        latency_ms.push_back(1e3 * s);
    }
    info("samples", kv("reconstructs", static_cast<double>(wall_s.size())) +
                        "," + kv("images", static_cast<double>(images.size())) +
                        "," + json_string("wall_ms") + ":" +
                        json_array(latency_ms));
    Metrics& m = out.metrics;
    m.set("setup_s", median(std::move(setup_s)), "s");
    m.set("reconstruct_s", median(wall_s), "s");
    m.set("cpu_s", median(cpu_s), "s");
    set_latency_metrics(m, latency_ms, busy);
    set_accuracy_metrics(m, accuracy);
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
}

void
check_serve(Outcome& out, const ServeReplay& r)
{
    out.attempted += r.submits;
    out.failed += r.failed;
    if (r.failed > 0)
        std::fprintf(stderr, "rockperf: FAILED: %llu submit(s): %s\n",
                     static_cast<unsigned long long>(r.failed),
                     r.first_error.c_str());
}

std::string
socket_path(const Options& opt)
{
    return opt.work_dir + "/rockperf-" + std::to_string(::getpid()) +
           ".sock";
}

void
set_serve_layer_metrics(Metrics& m, const ServeReplay& r)
{
    const std::uint64_t lookups = r.cache_hits + r.cache_misses;
    m.set("cache.hit_rate",
          lookups ? static_cast<double>(r.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
          "ratio");
    m.set("cache.bytes", static_cast<double>(r.cache_bytes), "bytes");
    m.set("cache.evictions", static_cast<double>(r.cache_evictions),
          "count");
    m.set("serve.cold_ms.p50", median(r.cold_ms), "ms");
    m.set("serve.warm_ms.p50", median(r.warm_ms), "ms");
    m.set("serve.waves", static_cast<double>(r.waves), "count");
    m.set("serve.dedup_hits", static_cast<double>(r.dedup_hits), "count");
    m.set("serve.mean_batch",
          r.batch_count ? r.batch_sum / static_cast<double>(r.batch_count)
                        : 0.0,
          "requests");
}

/** Stage-level totals of one traced replay: durations and counter
 *  increments of the root's direct children (one span per layer call
 *  or stage). */
struct LayerTotals {
    std::map<std::string, double> stage_ms;
    std::map<std::string, std::uint64_t> counters;
    /** Sum of the stage spans that are layer calls (not rock.*). */
    double layers_ms = 0.0;

    LayerTotals(const Tracer& tracer, int root)
    {
        for (const SpanRecord& s : tracer.spans()) {
            if (s.parent != root)
                continue;
            stage_ms[s.name] += s.ms();
            for (const auto& [name, n] : s.counters)
                counters[name] += n;
            if (s.name.rfind("rock.", 0) != 0)
                layers_ms += s.ms();
        }
    }

    /** Stage time of every stage span whose name starts with
     *  @p prefix. */
    double
    ms(const std::string& prefix) const
    {
        double total = 0.0;
        for (const auto& [name, v] : stage_ms) {
            if (name.rfind(prefix, 0) == 0)
                total += v;
        }
        return total;
    }

    double
    count(const std::string& name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : static_cast<double>(it->second);
    }
};

void
write_trace_file(const Options& opt, const std::string& host,
                 const Tracer& tracer, const LayerReplay& replay)
{
    const std::string path = opt.work_dir + "/trace-" + opt.workload +
                             "-" + std::to_string(opt.seed) + ".json";
    std::ofstream f(path);
    f << "{\"host\":{" << host << "},\n\"spans\":[\n";
    bool first = true;
    for (const SpanRecord& s : tracer.spans()) {
        f << (first ? "" : ",\n") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << ",\"name\":" << json_string(s.name)
          << ",\"family\":" << s.family
          << ",\"start_ms\":" << json_number(s.start_ms)
          << ",\"end_ms\":" << json_number(s.end_ms) << ",\"counters\":{";
        bool first_counter = true;
        for (const auto& [name, n] : s.counters) {
            f << (first_counter ? "" : ",") << json_string(name) << ":"
              << n;
            first_counter = false;
        }
        f << "}}";
        first = false;
    }
    f << "\n],\n\"families\":[\n";
    first = true;
    for (const FamilyCost& c : replay.family_costs) {
        f << (first ? "" : ",\n") << "{\"family\":" << c.family
          << ",\"members\":" << c.members << ",\"pairs\":" << c.pairs
          << ",\"divergence_ms\":" << json_number(c.divergence_ms)
          << ",\"probe_ms\":" << json_number(c.probe_ms)
          << ",\"solve_ms\":" << json_number(c.solve_ms) << "}";
        first = false;
    }
    f << "\n]}\n";
    info("trace_file", json_string("path") + ":" + json_string(path));
}

/**
 * --trace 1: serial traced replay of the workload's first image
 * (op 0), then an untraced serial reconstruct of it (op 1: the
 * equality reference, the glue and the tracing overhead), then a
 * parallel submit_response_text of it (op 2: parallel efficiency and
 * the reference bytes), then one cold and one warm submit of it to an
 * in-process server (op 3: the cache and serve layers).
 */
Outcome
run_traced(const Options& opt, const std::vector<Image>& images,
           int threads, const std::string& host)
{
    Outcome out;
    const bir::BinaryImage& image = images.front().compiled.image;

    obs::Registry::global().reset();
    Tracer tracer;
    const LayerReplay replay =
        replay_layers(image, config_with(1), tracer, 0);

    // Untraced operations, one span each (ops 1-3).
    obs::Registry::global().reset();
    core::ReconstructionResult direct;
    {
        Scope span(tracer, "core.reconstruct", 1);
        direct = core::reconstruct(image, config_with(1));
    }
    const double serial_ms = tracer.spans().back().ms();
    const std::string mismatch = compare_replay(replay, direct);
    out.check(mismatch.empty(), "traced replay vs reconstruct(): " +
                                    mismatch);
    const std::string unsound = check_reconstruction(direct);
    out.check(unsound.empty(), "serial reconstruct: " + unsound);

    obs::Registry::global().reset();
    const double cpu0 = process_cpu_s();
    std::string expected;
    {
        Scope span(tracer, "serve.submit_response_text", 2);
        expected = serve::submit_response_text(image, config_with(threads));
    }
    const double parallel_s = 1e-3 * tracer.spans().back().ms();
    const double parallel_cpu_s = process_cpu_s() - cpu0;

    ServeReplay serve;
    {
        Scope span(tracer, "serve.replay_trace", 3);
        serve = replay_trace({bir::save_image(image)}, {expected}, {0, 0},
                             1, kServeWorkers, socket_path(opt));
    }
    check_serve(out, serve);

    const LayerTotals t(tracer, replay.root_span);
    const double root_ms =
        tracer.spans()[static_cast<std::size_t>(replay.root_span)].ms();
    Metrics& m = out.metrics;
    m.set("cfg.build_ms", t.ms("cfg.build"), "ms");
    m.set("cfg.verify_ms", t.ms("cfg.verify"), "ms");
    m.set("cfg.functions", t.count("cfg.cache.functions"), "count");
    m.set("analysis.analyze_ms", t.ms("analysis."), "ms");
    m.set("analysis.paths", t.count("analysis.paths"), "count");
    m.set("analysis.tracelets", t.count("analysis.tracelets"), "count");
    m.set("structural.ms", t.ms("structural."), "ms");
    m.set("structural.feasible_parent_edges",
          t.count("structural.feasible_parent_edges"), "count");
    m.set("structural.forced_parents", t.count("structural.forced_parents"),
          "count");
    m.set("typeinf.infer_ms", t.ms("typeinf."), "ms");
    m.set("typeinf.constraints", t.count("typeinf.constraints"), "count");
    m.set("slm.train_ms", t.ms("slm."), "ms");
    m.set("slm.training_symbols", t.count("slm.training_symbols"), "count");
    m.set("slm.trie_nodes", t.count("slm.trie_nodes"), "count");
    const double divergence_ms = t.ms("divergence");
    const double words = t.count("divergence.words");
    m.set("divergence.ms", divergence_ms, "ms");
    m.set("divergence.pairs", t.count("divergence.pairs"), "count");
    m.set("divergence.words", words, "count");
    m.set("slm.escapes", t.count("slm.escapes"), "count");
    // Words floored at 1 so a family-free image still reads a time.
    m.set("divergence.ns_per_word",
          1e6 * divergence_ms / std::max(1.0, words), "ns");
    double probe_ms = 0.0, solve_ms = 0.0, max_family_ms = 0.0;
    for (const FamilyCost& c : replay.family_costs) {
        probe_ms += c.probe_ms;
        solve_ms += c.solve_ms;
        max_family_ms = std::max(max_family_ms, c.probe_ms + c.solve_ms);
    }
    m.set("graph.probe_ms", probe_ms, "ms");
    m.set("graph.solve_ms", solve_ms, "ms");
    m.set("graph.max_family_ms", max_family_ms, "ms");
    m.set("graph.edmonds.contractions",
          t.count("graph.edmonds.contractions"), "count");
    m.set("arborescence.cooptimal_forests",
          static_cast<double>(replay.cooptimal_forests), "count");
    m.set("rock.glue_ms", serial_ms - t.layers_ms, "ms");
    m.set("rock.tracing_overhead_ms", root_ms - serial_ms, "ms");
    m.set("support.parallel_efficiency",
          parallel_cpu_s / (parallel_s * threads), "ratio");
    set_serve_layer_metrics(m, serve);

    const double front_ms = t.ms("cfg.") + t.ms("analysis.") +
                            t.ms("structural.") +
                            t.ms("typeinf.") + t.ms("slm.");
    info("layer_shares",
         kv("traced_serial_ms", root_ms) + "," +
             kv("untraced_serial_ms", serial_ms) + "," +
             kv("front_end_share", front_ms / root_ms) + "," +
             kv("divergence_graph_share",
                (divergence_ms + t.ms("graph")) / root_ms));
    std::vector<FamilyCost> top = replay.family_costs;
    std::sort(top.begin(), top.end(),
              [](const FamilyCost& a, const FamilyCost& b) {
                  return a.total_ms() > b.total_ms();
              });
    for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size());
         ++i) {
        const FamilyCost& c = top[i];
        info("top_family",
             kv("family", c.family) + "," + kv("members", c.members) + "," +
                 kv("pairs", static_cast<double>(c.pairs)) + "," +
                 kv("divergence_ms", c.divergence_ms) + "," +
                 kv("probe_ms", c.probe_ms) + "," +
                 kv("solve_ms", c.solve_ms));
    }
    write_trace_file(opt, host, tracer, replay);
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: rockperf --workload giant-family|many-families "
                 "--seed N --seconds S --trace 0|1 "
                 "[--threads T] [--size full|tiny] [--work-dir DIR]\n");
    return 2;
}

int
run(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--threads")
            opt.threads = std::atoi(value.c_str());
        else if (arg == "--size")
            opt.tiny = value == "tiny";
        else if (arg == "--work-dir")
            opt.work_dir = value;
        else
            return usage();
    }
    if (opt.workload != "giant-family" && opt.workload != "many-families")
        return usage();

    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    const int threads = opt.threads > 0 ? opt.threads : hw;
    const Sizes sizes = sizes_for(opt.workload, opt.tiny);

    std::vector<Image> images = make_images(opt, sizes);
    std::vector<double> setup_s;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::vector<std::uint64_t> gen_seeds;
    std::vector<int> entry_usages;
    // setup_s is a median over at least kSetupSamples set-ups; images
    // beyond the workload's own are built again and dropped.
    for (std::size_t k = images.size(); k < kSetupSamples; ++k)
        setup_s.push_back(
            make_image(images[k % images.size()].spec).setup_s);
    for (const Image& image : images) {
        setup_s.push_back(image.setup_s);
        digest = (digest ^ cfg::image_digest(image.compiled.image)) *
                 0x100000001b3ull;
        gen_seeds.push_back(image.spec.seed);
        entry_usages.push_back(image.spec.entry_usage);
    }
    char digest_hex[24];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    const std::string host =
        kv("nproc", hw) + "," + kv("threads", threads) + "," +
        json_string("underprovisioned") + ":" +
        (threads > hw ? "true" : "false") + "," +
        json_string("build_type") + ":" + json_string(ROCKPERF_BUILD_TYPE) +
        "," + json_string("workload") + ":" + json_string(opt.workload) +
        "," + json_string("seed") + ":" + std::to_string(opt.seed) + "," +
        json_string("size") + ":" + json_string(opt.tiny ? "tiny" : "full") +
        "," + json_string("gen_seeds") + ":" + json_array(gen_seeds) + "," +
        json_string("entry_usages") + ":" + json_array(entry_usages) + "," +
        kv("classes", images.front().spec.num_classes) + "," +
        json_string("inputs_digest") + ":" + json_string(digest_hex);
    info("host", host);
    if (threads > hw) {
        std::fprintf(stderr,
                     "rockperf: WARNING: %d threads requested on a host "
                     "with %d hardware threads (underprovisioned)\n",
                     threads, hw);
    }
    std::fflush(stdout);

    Outcome out;
    if (opt.trace)
        out = run_traced(opt, images, threads, host);
    else
        out = run_batch(opt, images, threads, setup_s);

    info("failures", kv("failed_ratio", static_cast<double>(out.failed) /
                                            static_cast<double>(std::max<
                                                std::uint64_t>(
                                                1, out.attempted))));
    std::string metrics;
    for (const auto& [name, v] : out.metrics.values) {
        if (!metrics.empty())
            metrics += ',';
        metrics += json_string(name) +
                   ":{\"value\":" + json_number(v.value) +
                   ",\"unit\":" + json_string(v.unit) + "}";
    }
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace rockperf

int
main(int argc, char** argv)
{
    try {
        return rockperf::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "rockperf: error: %s\n", e.what());
        return 1;
    }
}
