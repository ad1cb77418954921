/**
 * @file
 * Unit and property tests for word sets and divergence metrics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "support/error.h"
#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "divergence/word_table.h"
#include "obs/metrics.h"
#include "slm/model.h"
#include "support/rng.h"

namespace {

using namespace rock::divergence;
using namespace rock::slm;

std::unique_ptr<LanguageModel>
model_from(const std::vector<std::vector<int>>& seqs, int alphabet = 4)
{
    ModelConfig config;
    return train_model(config, alphabet, seqs);
}

// ---------------------------------------------------------------------
// Word sets
// ---------------------------------------------------------------------

TEST(WordSet, ObservedUnionDeduplicates)
{
    WordSetConfig config;
    auto words = build_word_set(config, {{0, 1}, {0, 1}},
                                {{0, 1}, {2}}, nullptr, 4);
    EXPECT_EQ(words.size(), 2u);
}

TEST(WordSet, ObservedUnionSkipsEmptySequences)
{
    WordSetConfig config;
    auto words = build_word_set(config, {{}}, {{1}}, nullptr, 4);
    ASSERT_EQ(words.size(), 1u);
    EXPECT_EQ(words[0], (std::vector<int>{1}));
}

TEST(WordSet, ExhaustiveCountsMatchPowerSum)
{
    WordSetConfig config;
    config.strategy = WordSetStrategy::Exhaustive;
    config.exhaustive_len = 3;
    auto words = build_word_set(config, {}, {}, nullptr, 3);
    // 3 + 9 + 27 words.
    EXPECT_EQ(words.size(), 39u);
}

TEST(WordSet, SampledIsDeterministicPerSeed)
{
    auto model = model_from({{0, 1, 2}, {0, 1, 3}});
    WordSetConfig config;
    config.strategy = WordSetStrategy::Sampled;
    config.sample_count = 32;
    config.sample_len = 4;
    auto a = build_word_set(config, {}, {}, model.get(), 4);
    auto b = build_word_set(config, {}, {}, model.get(), 4);
    EXPECT_EQ(a, b);
    config.seed = 99;
    auto c = build_word_set(config, {}, {}, model.get(), 4);
    EXPECT_NE(a, c);
}

TEST(WordSet, SampledFollowsModelBias)
{
    // A model trained overwhelmingly on symbol 0 should emit mostly 0.
    auto model = model_from({{0, 0, 0, 0, 0, 0, 0}}, 4);
    rock::support::Rng rng(5);
    int zeros = 0;
    int total = 0;
    for (int i = 0; i < 50; ++i) {
        auto word = sample_word(*model, 5, rng);
        for (int s : word) {
            zeros += (s == 0);
            ++total;
        }
    }
    EXPECT_GT(zeros, total / 2);
}

// ---------------------------------------------------------------------
// Divergences
// ---------------------------------------------------------------------

TEST(Divergence, KlIsZeroForIdenticalModels)
{
    auto a = model_from({{0, 1, 2}, {0, 1, 3}});
    auto b = model_from({{0, 1, 2}, {0, 1, 3}});
    WordSet words{{0, 1, 2}, {0, 1, 3}, {2, 2}};
    EXPECT_NEAR(kl_divergence(*a, *b, words), 0.0, 1e-12);
}

TEST(Divergence, KlIsNonNegative)
{
    rock::support::Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::vector<int>> sa, sb;
        for (int i = 0; i < 5; ++i) {
            std::vector<int> w;
            for (std::size_t k = 0; k < 1 + rng.index(6); ++k)
                w.push_back(static_cast<int>(rng.index(4)));
            sa.push_back(w);
            std::vector<int> v;
            for (std::size_t k = 0; k < 1 + rng.index(6); ++k)
                v.push_back(static_cast<int>(rng.index(4)));
            sb.push_back(v);
        }
        auto a = model_from(sa);
        auto b = model_from(sb);
        WordSetConfig config;
        auto words = build_word_set(config, sa, sb, nullptr, 4);
        EXPECT_GE(kl_divergence(*a, *b, words), 0.0);
    }
}

TEST(Divergence, KlIsAsymmetric)
{
    // A's behaviors are contained in B's (B = A + extras): the
    // containment direction must be cheaper, mirroring the
    // parent-to-child reading of the paper.
    std::vector<std::vector<int>> parent{{0, 1}, {0, 1}};
    std::vector<std::vector<int>> child{{0, 1}, {0, 1, 2, 3},
                                        {2, 3, 2}};
    auto a = model_from(parent);
    auto b = model_from(child);
    WordSetConfig config;
    auto words = build_word_set(config, parent, child, nullptr, 4);
    double forward = kl_divergence(*a, *b, words); // parent || child
    double backward = kl_divergence(*b, *a, words);
    EXPECT_LT(forward, backward);
}

TEST(Divergence, JsIsSymmetricAndBounded)
{
    auto a = model_from({{0, 0, 0}});
    auto b = model_from({{3, 3, 3}});
    WordSet words{{0, 0, 0}, {3, 3, 3}, {1, 2}};
    double ab = js_divergence(*a, *b, words);
    double ba = js_divergence(*b, *a, words);
    EXPECT_NEAR(ab, ba, 1e-12);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, std::log(2.0) + 1e-12);
    EXPECT_NEAR(js_distance(*a, *b, words), std::sqrt(ab), 1e-12);
}

TEST(Divergence, WordDistributionNormalizes)
{
    auto a = model_from({{0, 1, 2}});
    WordSet words{{0}, {1}, {0, 1}, {2, 2, 2}};
    auto dist = word_distribution(*a, words);
    double total = 0.0;
    for (double p : dist) {
        EXPECT_GT(p, 0.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Divergence, EmptyWordSetIsFatal)
{
    auto a = model_from({{0}});
    EXPECT_THROW(word_distribution(*a, {}),
                 rock::support::FatalError);
}

TEST(Divergence, KlBetweenHandValues)
{
    std::vector<double> p{0.5, 0.5};
    std::vector<double> q{0.9, 0.1};
    double expected = 0.5 * std::log(0.5 / 0.9) +
                      0.5 * std::log(0.5 / 0.1);
    EXPECT_NEAR(kl_between(p, q), expected, 1e-12);
    EXPECT_NEAR(kl_between(p, p), 0.0, 1e-12);
}

TEST(Metrics, NamesRoundTrip)
{
    for (MetricKind kind :
         {MetricKind::KL, MetricKind::KLReversed,
          MetricKind::JSDivergence, MetricKind::JSDistance}) {
        EXPECT_EQ(metric_from_name(metric_name(kind)), kind);
    }
    EXPECT_THROW(metric_from_name("nope"), rock::support::FatalError);
}

TEST(Metrics, PairDistanceDispatch)
{
    auto a = model_from({{0, 1}});
    auto b = model_from({{0, 1}, {2, 3}});
    WordSet words{{0, 1}, {2, 3}};
    EXPECT_NEAR(pair_distance(MetricKind::KL, *a, *b, words),
                kl_divergence(*a, *b, words), 1e-12);
    EXPECT_NEAR(pair_distance(MetricKind::KLReversed, *a, *b, words),
                kl_divergence(*b, *a, words), 1e-12);
    EXPECT_NEAR(pair_distance(MetricKind::JSDivergence, *a, *b, words),
                js_divergence(*a, *b, words), 1e-12);
    EXPECT_NEAR(pair_distance(MetricKind::JSDistance, *a, *b, words),
                js_distance(*a, *b, words), 1e-12);
}

// ---------------------------------------------------------------------
// Word tables: row-gathered weights are pair_distance's exact bits
// ---------------------------------------------------------------------

/** Seeded random types and candidate edges for the word-table tests. */
struct EdgeFixture {
    static constexpr int kAlphabet = 5;
    std::vector<std::vector<std::vector<int>>> seqs;
    std::vector<std::unique_ptr<LanguageModel>> models;
    std::vector<std::pair<int, int>> edges;
};

/**
 * Types 0-5 draw 1-4 random tracelets over symbols {0..3}; symbol 4 is
 * never trained except by type 6, so its words escape every context of
 * the other models down to order -1. Types 7 and 8 have no tracelets
 * (untrained models), and the edge 7 -> 8 has an empty ObservedUnion
 * word set. Type 2 is both a parent and a child, and 3 -> 1 / 1 -> 3
 * are both candidates.
 */
EdgeFixture
make_edge_fixture(std::uint64_t seed, ModelKind kind, bool exclusion = false)
{
    rock::support::Rng rng(seed);
    EdgeFixture fx;
    fx.seqs.resize(9);
    for (int t = 0; t < 6; ++t) {
        const std::size_t count = 1 + rng.index(4);
        for (std::size_t i = 0; i < count; ++i) {
            std::vector<int> word(1 + rng.index(5));
            for (int& sym : word)
                sym = static_cast<int>(rng.index(4));
            fx.seqs[static_cast<std::size_t>(t)].push_back(word);
        }
    }
    fx.seqs[6] = {{4, 0, 4}, {1, 4}, {4}};
    ModelConfig config;
    config.kind = kind;
    config.exclusion = exclusion;
    for (const auto& seqs : fx.seqs)
        fx.models.push_back(train_model(config, EdgeFixture::kAlphabet, seqs));
    fx.edges = {{0, 1}, {2, 1}, {3, 1}, {1, 3}, {0, 2}, {6, 2},
                {4, 5}, {0, 6}, {5, 6}, {7, 8}, {7, 0}, {3, 8}};
    return fx;
}

/** Run a WordTable through all four steps over @p fx's edges. */
WordTable
filled_table(const WordSetConfig& config, const EdgeFixture& fx)
{
    WordTable table(config, EdgeFixture::kAlphabet, fx.edges);
    const std::vector<int>& types = table.types();
    for (std::size_t s = 0; s < types.size(); ++s) {
        const auto t = static_cast<std::size_t>(types[s]);
        table.collect(s, fx.seqs[t], *fx.models[t]);
    }
    table.intern();
    for (std::size_t s = 0; s < types.size(); ++s)
        table.fill_row(s, *fx.models[static_cast<std::size_t>(types[s])]);
    return table;
}

/** Every edge's weight under @p kind from @p table's rows. */
std::vector<double>
gathered(const WordTable& table, MetricKind kind, std::size_t edges)
{
    std::vector<double> weights(edges);
    table.distances(kind, 0, edges, weights.data());
    return weights;
}

WordSetConfig
strategy_config(WordSetStrategy strategy)
{
    WordSetConfig config;
    config.strategy = strategy;
    config.exhaustive_len = 3;
    config.sample_count = 24;
    config.sample_len = 4;
    return config;
}

TEST(WordTable, GatheredWeightsEqualPairDistanceBitForBit)
{
    for (ModelKind model_kind :
         {ModelKind::PpmC, ModelKind::Katz, ModelKind::NGram}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const EdgeFixture fx = make_edge_fixture(seed, model_kind);
            for (WordSetStrategy strategy :
                 {WordSetStrategy::ObservedUnion, WordSetStrategy::Exhaustive,
                  WordSetStrategy::Sampled}) {
                const WordSetConfig config = strategy_config(strategy);
                const WordTable table = filled_table(config, fx);
                for (MetricKind kind :
                     {MetricKind::KL, MetricKind::KLReversed,
                      MetricKind::JSDivergence, MetricKind::JSDistance}) {
                    const std::vector<double> weights =
                        gathered(table, kind, fx.edges.size());
                    for (std::size_t e = 0; e < fx.edges.size(); ++e) {
                        SCOPED_TRACE(::testing::Message()
                                     << "model " << static_cast<int>(model_kind)
                                     << " seed " << seed << " strategy "
                                     << static_cast<int>(strategy) << " metric "
                                     << metric_name(kind) << " edge " << e);
                        const auto [p, c] = fx.edges[e];
                        const auto pi = static_cast<std::size_t>(p);
                        const auto ci = static_cast<std::size_t>(c);
                        WordSet words = build_word_set(
                            config, fx.seqs[pi], fx.seqs[ci],
                            fx.models[pi].get(), EdgeFixture::kAlphabet);
                        const double expected =
                            words.empty()
                                ? 0.0
                                : pair_distance(kind, *fx.models[pi],
                                                *fx.models[ci], words);
                        EXPECT_EQ(weights[e], expected);
                    }
                }
            }
        }
    }
}

TEST(WordTable, RowEntriesEqualSequenceProbBitForBit)
{
    // fill_row() scores a row in one prefix walk: every entry must keep
    // the bits of sequence_prob() of its word alone, and
    // divergence.symbol_queries counts only the symbols after each
    // word's prefix shared with the previous word of its row.
    struct Model {
        ModelKind kind;
        bool exclusion;
    };
    rock::obs::Counter& symbol_queries =
        rock::obs::Registry::global().counter("divergence.symbol_queries");
    for (const Model model : {Model{ModelKind::PpmC, false},
                              Model{ModelKind::PpmC, true},
                              Model{ModelKind::Katz, false},
                              Model{ModelKind::NGram, false}}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const EdgeFixture fx =
                make_edge_fixture(seed, model.kind, model.exclusion);
            for (WordSetStrategy strategy :
                 {WordSetStrategy::ObservedUnion, WordSetStrategy::Exhaustive,
                  WordSetStrategy::Sampled}) {
                SCOPED_TRACE(::testing::Message()
                             << "model " << static_cast<int>(model.kind)
                             << " exclusion " << model.exclusion << " seed "
                             << seed << " strategy "
                             << static_cast<int>(strategy));
                const WordSetConfig config = strategy_config(strategy);
                const std::uint64_t before = symbol_queries.value();
                const WordTable table = filled_table(config, fx);
                const WordSet& vocab = table.vocab();
                // Exhaustive rows walk its length-major list ({4} before
                // {0, 0}), not lexicographic order.
                EXPECT_EQ(std::is_sorted(vocab.begin(), vocab.end()),
                          strategy != WordSetStrategy::Exhaustive);
                std::uint64_t steps = 0;
                for (std::size_t s = 0; s < table.types().size(); ++s) {
                    const LanguageModel& lm = *fx.models[static_cast<std::size_t>(
                        table.types()[s])];
                    const std::span<const int> ids = table.row_ids(s);
                    const std::span<const double> probs = table.row_probs(s);
                    ASSERT_EQ(ids.size(), probs.size());
                    if (strategy == WordSetStrategy::Exhaustive) {
                        EXPECT_EQ(ids.size(), vocab.size());
                    }
                    const std::vector<int>* prev = nullptr;
                    for (std::size_t i = 0; i < ids.size(); ++i) {
                        const std::vector<int>& word =
                            vocab[static_cast<std::size_t>(ids[i])];
                        EXPECT_EQ(probs[i], lm.sequence_prob(word))
                            << "slot " << s << " word " << ids[i];
                        std::size_t shared = 0;
                        while (prev && shared < word.size() &&
                               shared < prev->size() &&
                               word[shared] == (*prev)[shared])
                            ++shared;
                        steps += word.size() - shared;
                        prev = &word;
                    }
                }
                EXPECT_EQ(symbol_queries.value() - before, steps);
            }
        }
    }
}

TEST(WordTable, EmptyWordSetWeighsZeroAndCountsNothing)
{
    const EdgeFixture fx = make_edge_fixture(1, ModelKind::PpmC);
    const WordSetConfig config =
        strategy_config(WordSetStrategy::ObservedUnion);
    // Types 7 and 8 have no tracelets: edge 7 -> 8 has no words.
    ASSERT_EQ(fx.edges[9], (std::pair<int, int>{7, 8}));
    ASSERT_TRUE(
        build_word_set(config, fx.seqs[7], fx.seqs[8], nullptr, 5).empty());
    const WordTable table = filled_table(config, fx);
    rock::obs::Counter& pairs = rock::obs::Registry::global().counter("divergence.pairs");
    const std::uint64_t before = pairs.value();
    const std::vector<double> weights =
        gathered(table, MetricKind::KL, fx.edges.size());
    EXPECT_EQ(weights[9], 0.0);
    // Every other edge is scored: 7 -> 0 over type 0's words alone.
    EXPECT_EQ(pairs.value(), before + fx.edges.size() - 1);
}

TEST(WordTable, OrderMinusOneEscapesAreGatheredExactly)
{
    // Symbol 4 is unseen by type 0's model: every context escapes and
    // the probability comes from the order -1 uniform fallback.
    const EdgeFixture fx = make_edge_fixture(2, ModelKind::PpmC);
    const LanguageModel& unseen = *fx.models[0];
    rock::obs::Counter& escapes = rock::obs::Registry::global().counter("slm.escapes");
    const std::uint64_t before = escapes.value();
    unseen.sequence_prob({4});
    EXPECT_GT(escapes.value(), before);

    const WordSetConfig config =
        strategy_config(WordSetStrategy::ObservedUnion);
    const WordTable table = filled_table(config, fx);
    // Edge 0 -> 6: type 6's words all hold symbol 4.
    ASSERT_EQ(fx.edges[7], (std::pair<int, int>{0, 6}));
    WordSet words = build_word_set(config, fx.seqs[0], fx.seqs[6], nullptr, 5);
    EXPECT_EQ(gathered(table, MetricKind::KL, fx.edges.size())[7],
              pair_distance(MetricKind::KL, unseen, *fx.models[6], words));
}

TEST(WordTable, ExhaustiveKeepsLengthMajorOrder)
{
    const WordSetConfig config = strategy_config(WordSetStrategy::Exhaustive);
    const WordSet words = build_word_set(config, {}, {}, nullptr, 5);
    // {4} precedes {0, 0}: the list is not lexicographic, and summing
    // it in sorted order would move the last bits of the weights.
    ASSERT_FALSE(std::is_sorted(words.begin(), words.end()));
    const EdgeFixture fx = make_edge_fixture(3, ModelKind::PpmC);
    const WordTable table = filled_table(config, fx);
    for (MetricKind kind : {MetricKind::KL, MetricKind::JSDivergence}) {
        const std::vector<double> weights =
            gathered(table, kind, fx.edges.size());
        for (std::size_t e = 0; e < fx.edges.size(); ++e) {
            const auto [p, c] = fx.edges[e];
            EXPECT_EQ(weights[e],
                      pair_distance(kind, *fx.models[static_cast<std::size_t>(p)],
                                    *fx.models[static_cast<std::size_t>(c)],
                                    words))
                << "edge " << e;
        }
    }
}

TEST(WordTable, ScoresEachTypeWordPairOnce)
{
    // The rows cover exactly the distinct (type, word) pairs of all
    // the edges' word sets: one model query each.
    const EdgeFixture fx = make_edge_fixture(4, ModelKind::PpmC);
    for (WordSetStrategy strategy :
         {WordSetStrategy::ObservedUnion, WordSetStrategy::Exhaustive,
          WordSetStrategy::Sampled}) {
        SCOPED_TRACE(static_cast<int>(strategy));
        const WordSetConfig config = strategy_config(strategy);
        std::set<std::pair<int, std::vector<int>>> distinct;
        for (const auto& [p, c] : fx.edges) {
            const auto pi = static_cast<std::size_t>(p);
            for (const auto& word :
                 build_word_set(config, fx.seqs[pi],
                                fx.seqs[static_cast<std::size_t>(c)],
                                fx.models[pi].get(), EdgeFixture::kAlphabet)) {
                distinct.insert({p, word});
                distinct.insert({c, word});
            }
        }
        rock::obs::Counter& queries =
            rock::obs::Registry::global().counter("divergence.model_queries");
        const std::uint64_t before = queries.value();
        filled_table(config, fx);
        EXPECT_EQ(queries.value() - before, distinct.size());
    }
}

/**
 * Property sweep: for synthetic parent/child/unrelated triples, the
 * paper's Hypothesis 4.1 must hold under the default metric --
 * the true parent is closer than an unrelated type.
 */
class ContainmentSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ContainmentSweep, ParentCloserThanUnrelated)
{
    rock::support::Rng rng(GetParam());
    const int alphabet = 6;
    // Parent behavior: a random base word used repeatedly.
    std::vector<int> base;
    for (int i = 0; i < 4; ++i)
        base.push_back(static_cast<int>(rng.index(3)));
    std::vector<std::vector<int>> parent_seqs{base, base};
    // Child behavior: base + suffix over other symbols.
    std::vector<int> child_word = base;
    for (int i = 0; i < 3; ++i)
        child_word.push_back(3 + static_cast<int>(rng.index(3)));
    std::vector<std::vector<int>> child_seqs{base, child_word,
                                             child_word};
    // Unrelated: scrambled symbols.
    std::vector<std::vector<int>> other_seqs;
    for (int i = 0; i < 3; ++i) {
        std::vector<int> w;
        for (int k = 0; k < 5; ++k)
            w.push_back(static_cast<int>(rng.index(alphabet)));
        other_seqs.push_back(w);
    }

    auto parent = model_from(parent_seqs, alphabet);
    auto child = model_from(child_seqs, alphabet);
    auto other = model_from(other_seqs, alphabet);

    WordSetConfig config;
    auto w_pc =
        build_word_set(config, parent_seqs, child_seqs, nullptr,
                       alphabet);
    auto w_oc = build_word_set(config, other_seqs, child_seqs, nullptr,
                               alphabet);
    double d_parent = kl_divergence(*parent, *child, w_pc);
    double d_other = kl_divergence(*other, *child, w_oc);
    EXPECT_LT(d_parent, d_other);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
