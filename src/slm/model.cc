#include "slm/model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "slm/katz.h"
#include "slm/ngram.h"
#include "slm/ppm.h"
#include "support/error.h"

namespace rock::slm {

namespace {

/** Add a call's escape tally to `slm.escapes` (docs/OBSERVABILITY.md).
 *  A call that took no escape leaves the counter untouched. */
void
add_escapes(std::uint64_t n)
{
    if (n == 0)
        return;
    static obs::Counter& escapes =
        obs::Registry::global().counter("slm.escapes");
    escapes.add(n);
}

} // namespace

double
LanguageModel::prob(int symbol, const std::vector<int>& context) const
{
    std::uint64_t escapes = 0;
    double p = query(symbol, context, escapes);
    add_escapes(escapes);
    return p;
}

double
LanguageModel::sequence_log_prob(const std::vector<int>& seq) const
{
    std::uint64_t escapes = 0;
    double log_p = 0.0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        double p = query(seq[i], std::span(seq).first(i), escapes);
        ROCK_ASSERT(p > 0.0, "model returned non-positive probability");
        log_p += std::log(p);
    }
    add_escapes(escapes);
    return log_p;
}

double
LanguageModel::sequence_prob(const std::vector<int>& seq) const
{
    return std::exp(sequence_log_prob(seq));
}

std::uint64_t
LanguageModel::sequence_probs(std::span<const std::vector<int>* const> words,
                              double* out) const
{
    // partial[k]: log-probability of the first k symbols of the
    // previous word, summed left to right.
    thread_local std::vector<double> partial;
    partial.assign(1, 0.0);
    const std::vector<int>* prev = nullptr;
    std::uint64_t queries = 0;
    std::uint64_t escapes = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
        const std::vector<int>& word = *words[w];
        std::size_t shared = 0;
        if (prev != nullptr) {
            const std::size_t limit = std::min(word.size(), prev->size());
            while (shared < limit && word[shared] == (*prev)[shared])
                ++shared;
        }
        partial.resize(shared + 1);
        double log_p = partial[shared];
        for (std::size_t i = shared; i < word.size(); ++i) {
            double p = query(word[i], std::span(word).first(i), escapes);
            ROCK_ASSERT(p > 0.0, "model returned non-positive probability");
            log_p += std::log(p);
            partial.push_back(log_p);
        }
        queries += word.size() - shared;
        out[w] = std::exp(log_p);
        prev = &word;
    }
    add_escapes(escapes);
    return queries;
}

std::unique_ptr<LanguageModel>
make_model(const ModelConfig& config, int alphabet_size)
{
    support::check(alphabet_size > 0,
                   "model requires a non-empty alphabet");
    support::check(config.depth >= 0, "model depth must be >= 0");
    switch (config.kind) {
      case ModelKind::PpmC:
        return std::make_unique<PpmModel>(alphabet_size, config.depth,
                                          config.exclusion,
                                          config.escape);
      case ModelKind::Katz:
        return std::make_unique<KatzModel>(alphabet_size, config.depth,
                                           config.katz_threshold);
      case ModelKind::NGram:
        return std::make_unique<NGramModel>(
            alphabet_size, config.depth, config.laplace_alpha);
    }
    support::panic("unknown model kind");
}

std::unique_ptr<LanguageModel>
train_model(const ModelConfig& config, int alphabet_size,
            const std::vector<std::vector<int>>& sequences)
{
    auto model = make_model(config, alphabet_size);
    std::uint64_t symbols = 0;
    for (const auto& seq : sequences) {
        model->train(seq);
        symbols += seq.size();
    }
    model->finalize();

    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& trained = reg.counter("slm.models_trained");
    static obs::Counter& seqs = reg.counter("slm.training_sequences");
    static obs::Counter& syms = reg.counter("slm.training_symbols");
    trained.add();
    seqs.add(sequences.size());
    syms.add(symbols);
    if (const auto* ppm = dynamic_cast<const PpmModel*>(model.get())) {
        static obs::Counter& nodes = reg.counter("slm.trie_nodes");
        nodes.add(ppm->trie().node_count());
    }
    return model;
}

} // namespace rock::slm
