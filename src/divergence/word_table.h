/**
 * @file
 * One model query per (type, word): the distance stage's word table.
 *
 * pair_distance() scores every word of a pair's word set under both
 * models, so a type with k candidate edges scores its shared words k
 * times over. A WordTable serves a fixed list of (parent, child)
 * edges from one probability row per endpoint type instead:
 *
 *  1. collect(slot, ...) per endpoint type, once its model is
 *     trained: the type's share of its edges' word sets. Under
 *     ObservedUnion that is its sorted distinct tracelets; under
 *     Sampled, the words drawn from its model when it is the parent
 *     of some edge (the set depends on the parent only, so it is
 *     drawn once per parent, not once per pair); under Exhaustive,
 *     nothing.
 *  2. intern() once: one vocabulary and every type's words as
 *     ascending ids. ObservedUnion and Sampled sort the vocabulary,
 *     so id order is build_word_set()'s lexicographic order; the
 *     Exhaustive vocabulary is the one shared word list, kept in its
 *     length-major order.
 *  3. fill_row(slot, model) per endpoint type: sequence_prob of every
 *     word any of its edges integrates over, each exactly once, in
 *     one prefix walk over the row's ascending ids (a word queries
 *     only the symbols after the prefix it shares with the previous
 *     one).
 *  4. distances(kind, range) per run of edges: gather both rows in
 *     each edge's word order, then the shared score_words() kernel.
 *
 * Calls of one step for distinct slots (edge ranges) touch disjoint
 * state, so they may run on different threads; each step must finish
 * before the next starts. sequence_prob() is pure and the prefix
 * walk keeps its bits, so every weight has the exact bits of
 * pair_distance() over build_word_set()'s words.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "slm/model.h"

namespace rock::divergence {

/** Word lists and probability rows of one edge list's endpoints. */
class WordTable {
  public:
    /**
     * Table for @p edges, (parent type, child type) pairs of
     * non-negative type indices. Cheap: records the endpoint slots
     * and incidence only.
     */
    WordTable(const WordSetConfig& config, int alphabet_size,
              std::span<const std::pair<int, int>> edges);

    /** Endpoint types, ascending; a type's slot is its index here. */
    const std::vector<int>& types() const { return types_; }

    /**
     * Per slot, the sum of @p edge_costs (one per edge) over its
     * edges: a row covers the words of every edge it is on, so this
     * is the cost vector that balances fill_row() chunks.
     */
    std::vector<std::uint64_t>
    row_costs(const std::uint64_t* edge_costs) const;

    /** Step 1: record slot @p slot's words (@p seqs: its observed
     *  sequences; @p model: its trained model). */
    void collect(std::size_t slot,
                 const std::vector<std::vector<int>>& seqs,
                 const slm::LanguageModel& model);

    /** Step 2: intern every collected word (frees the word copies). */
    void intern();

    /** Step 3: slot @p slot's row under its model @p model, in one
     *  LanguageModel::sequence_probs() prefix walk. Counts
     *  `divergence.model_queries`, one per word of the row, and
     *  `divergence.symbol_queries`, the symbol queries the walk made. */
    void fill_row(std::size_t slot, const slm::LanguageModel& model);

    /** The interned words, by id (after intern()). */
    const WordSet& vocab() const { return vocab_; }

    /** Slot @p slot's row (after fill_row()): the ascending word ids
     *  it covers, and their probabilities under its model. */
    std::span<const int> row_ids(std::size_t slot) const
    {
        return row_ids_[slot];
    }
    std::span<const double> row_probs(std::size_t slot) const
    {
        return row_probs_[slot];
    }

    /**
     * Step 4: the weights of edges [@p begin, @p end) under @p kind,
     * into @p out[0 .. end - begin). An edge whose word set is empty
     * weighs 0 and counts nothing, like a pair the pipeline never
     * hands to pair_distance(). Runs of edges that share a child
     * (the pipeline's edge order) look the child's row up directly.
     */
    void distances(MetricKind kind, std::size_t begin, std::size_t end,
                   double* out) const;

  private:
    /** The word ids edge @p e integrates over, in order, into @p out. */
    void edge_words(std::size_t e, std::vector<int>& out) const;

    WordSetConfig config_;
    int alphabet_size_;
    std::vector<int> types_;
    /** (parent slot, child slot) per edge. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_slots_;
    /** Edges incident to slot s: incident_[incident_begin_[s] ..
     *  incident_begin_[s + 1]). */
    std::vector<std::uint32_t> incident_begin_;
    std::vector<std::uint32_t> incident_;
    /** Step 1 output, consumed by intern(). */
    std::vector<WordSet> collected_;
    WordSet vocab_;
    /** Per slot: what collect() recorded, as ascending ids (unused
     *  under Exhaustive, where every edge covers the whole vocab_). */
    std::vector<std::vector<int>> ids_;
    /** Per slot: the ascending ids its row covers, and their
     *  sequence_prob under its model. */
    std::vector<std::vector<int>> row_ids_;
    std::vector<std::vector<double>> row_probs_;
};

} // namespace rock::divergence
