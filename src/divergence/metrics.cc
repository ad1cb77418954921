#include "divergence/metrics.h"

#include <cmath>

#include "obs/metrics.h"
#include "support/error.h"

namespace rock::divergence {

MetricKind
metric_from_name(const std::string& name)
{
    if (name == "kl")
        return MetricKind::KL;
    if (name == "kl-reversed")
        return MetricKind::KLReversed;
    if (name == "js")
        return MetricKind::JSDivergence;
    if (name == "js-distance")
        return MetricKind::JSDistance;
    support::fatal("unknown metric '" + name + "'");
}

std::string
metric_name(MetricKind kind)
{
    switch (kind) {
      case MetricKind::KL: return "kl";
      case MetricKind::KLReversed: return "kl-reversed";
      case MetricKind::JSDivergence: return "js";
      case MetricKind::JSDistance: return "js-distance";
    }
    return "?";
}

namespace {

/** Scale @p raw (positive, non-empty) to sum 1, summing in order. */
void
normalize(std::vector<double>& raw)
{
    double total = 0.0;
    for (double p : raw)
        total += p;
    ROCK_ASSERT(total > 0.0, "degenerate word distribution");
    for (double& p : raw)
        p /= total;
}

/** JS divergence of two normalized distributions. */
double
js_between(const std::vector<double>& pa, const std::vector<double>& pb)
{
    std::vector<double> mid(pa.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        mid[i] = 0.5 * (pa[i] + pb[i]);
    return 0.5 * kl_between(pa, mid) + 0.5 * kl_between(pb, mid);
}

/** Raw probabilities: model.sequence_prob(w) for every w of @p words,
 *  in order, each strictly positive. Counts divergence.model_queries. */
std::vector<double>
word_probs(const slm::LanguageModel& model, const WordSet& words)
{
    static obs::Counter& queries =
        obs::Registry::global().counter("divergence.model_queries");
    queries.add(words.size());
    std::vector<double> probs;
    probs.reserve(words.size());
    for (const auto& word : words) {
        double p = model.sequence_prob(word);
        ROCK_ASSERT(p > 0.0, "non-positive word probability");
        probs.push_back(p);
    }
    return probs;
}

} // namespace

std::vector<double>
word_distribution(const slm::LanguageModel& model, const WordSet& words)
{
    support::check(!words.empty(),
                   "divergence over an empty word set");
    std::vector<double> dist = word_probs(model, words);
    normalize(dist);
    return dist;
}

double
kl_between(const std::vector<double>& p, const std::vector<double>& q)
{
    ROCK_ASSERT(p.size() == q.size(), "distribution size mismatch");
    double sum = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] <= 0.0)
            continue;
        ROCK_ASSERT(q[i] > 0.0, "KL against zero mass");
        sum += p[i] * std::log(p[i] / q[i]);
    }
    // Guard tiny negative results from floating-point noise.
    return sum < 0.0 ? 0.0 : sum;
}

double
kl_divergence(const slm::LanguageModel& a, const slm::LanguageModel& b,
              const WordSet& words)
{
    return kl_between(word_distribution(a, words),
                      word_distribution(b, words));
}

double
js_divergence(const slm::LanguageModel& a, const slm::LanguageModel& b,
              const WordSet& words)
{
    return js_between(word_distribution(a, words),
                      word_distribution(b, words));
}

double
js_distance(const slm::LanguageModel& a, const slm::LanguageModel& b,
            const WordSet& words)
{
    return std::sqrt(js_divergence(a, b, words));
}

double
score_words(MetricKind kind, std::vector<double>& parent,
            std::vector<double>& child)
{
    // Work-volume telemetry: pairs evaluated and words integrated
    // over -- both pure functions of the feasible-edge work list.
    {
        static obs::Counter& pairs =
            obs::Registry::global().counter("divergence.pairs");
        static obs::Counter& word_count =
            obs::Registry::global().counter("divergence.words");
        pairs.add();
        word_count.add(parent.size());
    }
    support::check(!parent.empty(), "divergence over an empty word set");
    normalize(parent);
    normalize(child);
    switch (kind) {
      case MetricKind::KL:
        return kl_between(parent, child);
      case MetricKind::KLReversed:
        return kl_between(child, parent);
      case MetricKind::JSDivergence:
        return js_between(parent, child);
      case MetricKind::JSDistance:
        return std::sqrt(js_between(parent, child));
    }
    support::panic("unknown metric kind");
}

double
pair_distance(MetricKind kind, const slm::LanguageModel& parent,
              const slm::LanguageModel& child, const WordSet& words)
{
    std::vector<double> parent_probs = word_probs(parent, words);
    std::vector<double> child_probs = word_probs(child, words);
    return score_words(kind, parent_probs, child_probs);
}

} // namespace rock::divergence
