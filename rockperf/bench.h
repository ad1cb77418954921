/**
 * @file
 * Shared pieces of the rockperf benchmark: generated inputs, timing
 * and statistics helpers, the benchmark-side span tracer, and the
 * metric list every run prints.
 *
 * rockperf drives the Rock library strictly from outside: inputs come
 * from corpus::generate_program + toyc::compile, end-to-end numbers
 * from core::reconstruct and serve::Server/serve::Client, and the
 * traced run from each layer's own public functions (layers.h).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "eval/ground_truth.h"
#include "toyc/compiler.h"

namespace rockperf {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double seconds_since(Clock::time_point start);

/** CPU time of the whole process (every thread), in seconds. */
double process_cpu_s();

/** Peak resident set size of the process, in MiB. */
double peak_rss_mb();

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> values);

/** Nearest-rank percentile @p q in (0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);

/** SplitMix64 step: the k-th input seed derived from a run seed. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/** One generated, compiled and stripped input image. */
struct Image {
    rock::corpus::GeneratorSpec spec;
    rock::toyc::CompileResult compiled;
    rock::eval::GroundTruth truth;
    /** Generate + compile + ground-truth extraction, seconds. */
    double setup_s = 0.0;
};

/** The rockc --synthetic / skype_scale generator shape: many trees,
 *  fold noise and multiple inheritance (most types end up in one
 *  giant family). */
rock::corpus::GeneratorSpec synthetic_shape(int classes, std::uint64_t seed);

/** Same trees without multiple inheritance or fold noise: the trees
 *  stay independent families and every non-root has a forced
 *  rule-3 parent. */
rock::corpus::GeneratorSpec forest_shape(int classes, std::uint64_t seed);

Image make_image(const rock::corpus::GeneratorSpec& spec);

/** One span recorded by the benchmark around a call into a layer. */
struct SpanRecord {
    int id = 0;
    /** Enclosing span, or -1. */
    int parent = -1;
    /** Operation the span belongs to (one traced replay = one op). */
    int op = 0;
    std::string name;
    /** Family index for per-family spans, -1 otherwise. */
    int family = -1;
    /** Milliseconds since the tracer was created. */
    double start_ms = 0.0;
    double end_ms = 0.0;
    /** obs counter increments observed between open and close. */
    std::map<std::string, std::uint64_t> counters;

    double ms() const { return end_ms - start_ms; }
};

/**
 * In-memory span log. Spans nest by open/close order on the calling
 * thread (the traced replay is serial); the log is written out once,
 * when the run ends.
 */
class Tracer {
  public:
    Tracer();

    int open(const std::string& name, int op, int family = -1);
    void close(int id);

    const std::vector<SpanRecord>& spans() const { return spans_; }

  private:
    Clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    std::vector<std::map<std::string, std::uint64_t>> before_;
};

/** RAII span. */
class Scope {
  public:
    Scope(Tracer& tracer, const std::string& name, int op,
          int family = -1)
        : tracer_(tracer), id_(tracer.open(name, op, family))
    {
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void
    close()
    {
        if (id_ >= 0)
            tracer_.close(id_);
        id_ = -1;
    }

  private:
    Tracer& tracer_;
    int id_;
};

/** Name -> (value, unit) in insertion-independent (sorted) order. */
struct Metrics {
    struct Value {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Value> values;

    void
    set(const std::string& name, double value, const std::string& unit)
    {
        values[name] = {value, unit};
    }
};

/** JSON string literal for @p s. */
std::string json_string(const std::string& s);

/** JSON number with every digit of @p v. */
std::string json_number(double v);

} // namespace rockperf
