/**
 * @file
 * Divergence metrics between trained language models.
 *
 * The primary metric is the Kullback-Leibler divergence of paper
 * Section 4.2.1:
 *
 *   DKL(A || B) = sum_{w in W} P_A(w) ln( P_A(w) / P_B(w) )
 *
 * with both distributions normalized over the word set W. The paper's
 * "Other Metrics" paragraph also evaluates the symmetric
 * JS-divergence and JS-distance (and finds them inferior because the
 * parent/child relation is inherently asymmetric); both are provided
 * for the ablation benchmark.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "divergence/word_set.h"
#include "slm/model.h"

namespace rock::divergence {

/** Selectable pairwise metrics. */
enum class MetricKind {
    /** DKL(first || second) -- the paper's choice. */
    KL,
    /** DKL(second || first) -- direction ablation. */
    KLReversed,
    /** Jensen-Shannon divergence (symmetric). */
    JSDivergence,
    /** sqrt(JS divergence) (a true metric). */
    JSDistance,
};

/** Parse "kl" / "kl-reversed" / "js" / "js-distance". */
MetricKind metric_from_name(const std::string& name);

/** Printable name of @p kind. */
std::string metric_name(MetricKind kind);

/**
 * Normalized word probabilities of @p model over @p words.
 * Every entry is strictly positive.
 */
std::vector<double> word_distribution(const slm::LanguageModel& model,
                                      const WordSet& words);

/** DKL(A || B) over @p words (normalized). Non-negative. */
double kl_divergence(const slm::LanguageModel& a,
                     const slm::LanguageModel& b, const WordSet& words);

/** Jensen-Shannon divergence over @p words. In [0, ln 2]. */
double js_divergence(const slm::LanguageModel& a,
                     const slm::LanguageModel& b, const WordSet& words);

/** sqrt of js_divergence(). */
double js_distance(const slm::LanguageModel& a,
                   const slm::LanguageModel& b, const WordSet& words);

/**
 * The one scoring kernel behind every edge weight: normalize the raw
 * word probabilities of the parent and the child (same words, same
 * order, non-empty) in place and score them under @p kind. Counts
 * one `divergence.pairs` and the word count into `divergence.words`.
 * Where the raw probabilities come from (fresh model queries in
 * pair_distance(), or rows gathered by a WordTable) does not change a
 * bit of the result.
 */
double score_words(MetricKind kind, std::vector<double>& parent,
                   std::vector<double>& child);

/**
 * Edge weight for "a is the parent of b" under @p kind: score_words()
 * over both models' sequence_prob() of every word (two
 * `divergence.model_queries` per word).
 *
 * For MetricKind::KL this is DKL(SLM(parent) || SLM(child)): inherited
 * behavior makes the parent's distribution nearly contained in the
 * child's, so true parent edges are cheap.
 */
double pair_distance(MetricKind kind, const slm::LanguageModel& parent,
                     const slm::LanguageModel& child,
                     const WordSet& words);

/** DKL between two explicit discrete distributions (helper). */
double kl_between(const std::vector<double>& p,
                  const std::vector<double>& q);

} // namespace rock::divergence
