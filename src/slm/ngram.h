/**
 * @file
 * Fixed-order Laplace-smoothed n-gram model (baseline).
 *
 * Uses the longest stored context up to the configured depth and
 * additive smoothing: P = (c + alpha) / (n + alpha * |Sigma|).
 */
#pragma once

#include "slm/context_trie.h"
#include "slm/model.h"

namespace rock::slm {

/** Laplace-smoothed fixed-order n-gram. */
class NGramModel final : public LanguageModel {
  public:
    NGramModel(int alphabet_size, int depth, double alpha)
        : trie_(depth), alphabet_size_(alphabet_size), alpha_(alpha) {}

    void train(const std::vector<int>& seq) override;
    int alphabet_size() const override { return alphabet_size_; }

    const ContextTrie& trie() const { return trie_; }

    /** Replace the trained trie (snapshot restore). The depth must
     *  match the constructed depth. */
    void adopt_trie(ContextTrie trie);

  protected:
    double query(int symbol, std::span<const int> context,
                 std::uint64_t& escapes) const override;

  private:
    ContextTrie trie_;
    int alphabet_size_;
    double alpha_;
};

} // namespace rock::slm
