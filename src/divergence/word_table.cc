#include "divergence/word_table.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.h"
#include "support/error.h"

namespace rock::divergence {

WordTable::WordTable(const WordSetConfig& config, int alphabet_size,
                     std::span<const std::pair<int, int>> edges)
    : config_(config), alphabet_size_(alphabet_size)
{
    // Slots in ascending type order, through a dense map over the
    // edges' type range (a family's types are one short range).
    constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();
    int lo = std::numeric_limits<int>::max();
    int hi = -1;
    for (const auto& [p, c] : edges) {
        ROCK_ASSERT(p >= 0 && c >= 0, "negative type in a word table");
        lo = std::min({lo, p, c});
        hi = std::max({hi, p, c});
    }
    std::vector<std::uint32_t> slot_of(
        edges.empty() ? 0 : static_cast<std::size_t>(hi - lo + 1), kNone);
    for (const auto& [p, c] : edges) {
        slot_of[static_cast<std::size_t>(p - lo)] = 0;
        slot_of[static_cast<std::size_t>(c - lo)] = 0;
    }
    for (std::size_t i = 0; i < slot_of.size(); ++i) {
        if (slot_of[i] == kNone)
            continue;
        slot_of[i] = static_cast<std::uint32_t>(types_.size());
        types_.push_back(lo + static_cast<int>(i));
    }

    edge_slots_.reserve(edges.size());
    incident_begin_.assign(types_.size() + 1, 0);
    for (const auto& [p, c] : edges) {
        const std::uint32_t ps = slot_of[static_cast<std::size_t>(p - lo)];
        const std::uint32_t cs = slot_of[static_cast<std::size_t>(c - lo)];
        edge_slots_.emplace_back(ps, cs);
        ++incident_begin_[ps + 1];
        if (cs != ps)
            ++incident_begin_[cs + 1];
    }
    std::partial_sum(incident_begin_.begin(), incident_begin_.end(),
                     incident_begin_.begin());
    incident_.resize(incident_begin_.back());
    std::vector<std::uint32_t> cursor(incident_begin_.begin(),
                                      incident_begin_.end() - 1);
    for (std::size_t e = 0; e < edge_slots_.size(); ++e) {
        const auto [ps, cs] = edge_slots_[e];
        incident_[cursor[ps]++] = static_cast<std::uint32_t>(e);
        if (cs != ps)
            incident_[cursor[cs]++] = static_cast<std::uint32_t>(e);
    }
    collected_.resize(types_.size());
}

std::vector<std::uint64_t>
WordTable::row_costs(const std::uint64_t* edge_costs) const
{
    std::vector<std::uint64_t> costs(types_.size(), 0);
    for (std::size_t s = 0; s < types_.size(); ++s)
        for (std::uint32_t i = incident_begin_[s]; i < incident_begin_[s + 1];
             ++i)
            costs[s] += edge_costs[incident_[i]];
    return costs;
}

void
WordTable::collect(std::size_t slot,
                   const std::vector<std::vector<int>>& seqs,
                   const slm::LanguageModel& model)
{
    switch (config_.strategy) {
      case WordSetStrategy::ObservedUnion:
        collected_[slot] = sorted_unique_words(seqs);
        return;
      case WordSetStrategy::Sampled:
        for (std::uint32_t i = incident_begin_[slot];
             i < incident_begin_[slot + 1]; ++i) {
            if (edge_slots_[incident_[i]].first == slot) {
                collected_[slot] = build_word_set(config_, {}, {}, &model,
                                                  alphabet_size_);
                return;
            }
        }
        return;
      case WordSetStrategy::Exhaustive:
        return;
    }
}

void
WordTable::intern()
{
    if (config_.strategy == WordSetStrategy::Exhaustive) {
        vocab_ = build_word_set(config_, {}, {}, nullptr, alphabet_size_);
    } else {
        // Deduplicate through a hash of the collected words, then rank
        // the distinct ones lexicographically: id order is word order.
        struct Hash {
            std::size_t
            operator()(const std::vector<int>* word) const
            {
                std::uint64_t h = 1469598103934665603ull;
                for (int sym : *word) {
                    h ^= static_cast<std::uint32_t>(sym);
                    h *= 1099511628211ull;
                }
                return static_cast<std::size_t>(h);
            }
        };
        struct Equal {
            bool
            operator()(const std::vector<int>* a,
                       const std::vector<int>* b) const
            {
                return *a == *b;
            }
        };
        std::unordered_map<const std::vector<int>*, int, Hash, Equal> id_of;
        for (const WordSet& words : collected_)
            for (const auto& word : words)
                id_of.emplace(&word, 0);
        std::vector<const std::vector<int>*> distinct;
        distinct.reserve(id_of.size());
        for (const auto& entry : id_of)
            distinct.push_back(entry.first);
        std::sort(distinct.begin(), distinct.end(),
                  [](const std::vector<int>* a, const std::vector<int>* b) {
                      return *a < *b;
                  });
        vocab_.reserve(distinct.size());
        for (const std::vector<int>* word : distinct) {
            id_of.at(word) = static_cast<int>(vocab_.size());
            vocab_.push_back(*word);
        }
        ids_.resize(types_.size());
        for (std::size_t s = 0; s < types_.size(); ++s) {
            // collected_[s] is sorted, so its ids come out ascending.
            ids_[s].reserve(collected_[s].size());
            for (const auto& word : collected_[s])
                ids_[s].push_back(id_of.at(&word));
        }
    }
    std::vector<WordSet>().swap(collected_);
    row_ids_.resize(types_.size());
    row_probs_.resize(types_.size());
}

void
WordTable::fill_row(std::size_t slot, const slm::LanguageModel& model)
{
    std::vector<int>& row = row_ids_[slot];
    if (config_.strategy == WordSetStrategy::Exhaustive) {
        row.resize(vocab_.size());
        std::iota(row.begin(), row.end(), 0);
    } else {
        // The union of edge_words() over the slot's edges: ObservedUnion
        // edges add both endpoints' words, Sampled edges the parent's.
        const bool both = config_.strategy == WordSetStrategy::ObservedUnion;
        std::vector<char> seen(vocab_.size(), 0);
        auto add = [&](std::uint32_t s) {
            for (int id : ids_[s]) {
                char& mark = seen[static_cast<std::size_t>(id)];
                if (!mark) {
                    mark = 1;
                    row.push_back(id);
                }
            }
        };
        for (std::uint32_t i = incident_begin_[slot];
             i < incident_begin_[slot + 1]; ++i) {
            const auto [ps, cs] = edge_slots_[incident_[i]];
            add(ps);
            if (both)
                add(cs);
        }
        std::sort(row.begin(), row.end());
    }

    // The row's words in id order, scored in one prefix walk.
    // Lexicographic ids put words with a shared prefix side by side;
    // Exhaustive's length-major ids share less, but every entry keeps
    // its bits either way.
    std::vector<const std::vector<int>*> words;
    words.reserve(row.size());
    for (int id : row)
        words.push_back(&vocab_[static_cast<std::size_t>(id)]);
    std::vector<double>& probs = row_probs_[slot];
    probs.resize(row.size());
    const std::uint64_t steps = model.sequence_probs(words, probs.data());
    for (double p : probs)
        ROCK_ASSERT(p > 0.0, "non-positive word probability");

    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& queries = reg.counter("divergence.model_queries");
    static obs::Counter& symbol_queries =
        reg.counter("divergence.symbol_queries");
    queries.add(row.size());
    symbol_queries.add(steps);
}

void
WordTable::edge_words(std::size_t e, std::vector<int>& out) const
{
    const auto [ps, cs] = edge_slots_[e];
    out.clear();
    switch (config_.strategy) {
      case WordSetStrategy::ObservedUnion:
        std::set_union(ids_[ps].begin(), ids_[ps].end(), ids_[cs].begin(),
                       ids_[cs].end(), std::back_inserter(out));
        return;
      case WordSetStrategy::Sampled:
        out = ids_[ps];
        return;
      case WordSetStrategy::Exhaustive:
        out.resize(vocab_.size());
        std::iota(out.begin(), out.end(), 0);
        return;
    }
}

void
WordTable::distances(MetricKind kind, std::size_t begin, std::size_t end,
                     double* out) const
{
    // The current child's row by word id. Only the ids of that row
    // are ever read back, so a new child overwrites without clearing.
    std::vector<double> child_row(vocab_.size(), 0.0);
    std::size_t child_slot = types_.size();
    std::vector<int> words;
    std::vector<double> parent_probs;
    std::vector<double> child_probs;
    for (std::size_t e = begin; e < end; ++e) {
        edge_words(e, words);
        if (words.empty()) {
            out[e - begin] = 0.0;
            continue;
        }
        const auto [ps, cs] = edge_slots_[e];
        if (cs != child_slot) {
            child_slot = cs;
            const std::vector<int>& row = row_ids_[cs];
            for (std::size_t i = 0; i < row.size(); ++i)
                child_row[static_cast<std::size_t>(row[i])] =
                    row_probs_[cs][i];
        }
        // Parent side: the edge's ids ascend, and so does the row.
        const std::vector<int>& row = row_ids_[ps];
        parent_probs.clear();
        child_probs.clear();
        auto it = row.begin();
        for (int id : words) {
            it = std::lower_bound(it, row.end(), id);
            ROCK_ASSERT(it != row.end() && *it == id, "word outside its row");
            parent_probs.push_back(
                row_probs_[ps][static_cast<std::size_t>(it - row.begin())]);
            child_probs.push_back(child_row[static_cast<std::size_t>(id)]);
        }
        out[e - begin] = score_words(kind, parent_probs, child_probs);
    }
}

} // namespace rock::divergence
