#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "obs/metrics.h"

namespace rockperf {

using namespace rock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x100000001b3ull + (k + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

corpus::GeneratorSpec
synthetic_shape(int classes, std::uint64_t seed)
{
    // Mirrors rockc --synthetic and bench/skype_scale.
    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = std::max(4, classes / 40);
    spec.max_depth = 6;
    spec.max_children = 5;
    spec.scenarios_per_class = 2;
    spec.fold_noise_pairs = classes / 100;
    spec.mi_prob = 0.05;
    spec.seed = seed;
    return spec;
}

corpus::GeneratorSpec
forest_shape(int classes, std::uint64_t seed)
{
    corpus::GeneratorSpec spec = synthetic_shape(classes, seed);
    spec.fold_noise_pairs = 0;
    spec.mi_prob = 0.0;
    return spec;
}

Image
make_image(const corpus::GeneratorSpec& spec)
{
    const auto start = Clock::now();
    Image image;
    image.spec = spec;
    image.compiled = toyc::compile(corpus::generate_program(spec));
    image.truth = eval::ground_truth_from_debug(image.compiled.debug);
    image.setup_s = seconds_since(start);
    return image;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::open(const std::string& name, int op, int family)
{
    SpanRecord span;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op;
    span.name = name;
    span.family = family;
    before_.push_back(obs::Registry::global().counter_values());
    span.start_ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - epoch_)
                        .count();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(int id)
{
    SpanRecord& span = spans_[static_cast<std::size_t>(id)];
    span.end_ms = std::chrono::duration<double, std::milli>(
                      Clock::now() - epoch_)
                      .count();
    const auto after = obs::Registry::global().counter_values();
    const auto& before = before_.back();
    for (const auto& [name, value] : after) {
        auto it = before.find(name);
        const std::uint64_t prior = it == before.end() ? 0 : it->second;
        if (value > prior)
            span.counters[name] = value - prior;
    }
    before_.pop_back();
    stack_.pop_back();
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace rockperf
