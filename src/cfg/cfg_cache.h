/**
 * @file
 * Per-image cache of recovered CFGs, shared between pipeline stages.
 *
 * Before this cache existed every consumer of static structure built
 * its own CFGs: the verifier once per function inside verify_image,
 * and the behavioral analysis re-decoded every function body in each
 * of its two symbolic-execution phases. On real sweeps that made the
 * verify stage cost ~3x its useful work. A CfgCache builds each
 * function's CFG exactly once (parallel, cost-chunked by body size)
 * and hands out const references to whoever asks.
 *
 * Entries are content-addressed: the key is (entry address, byte
 * size, FNV-1a of the body bytes). Recovered CFGs embed absolute
 * addresses, so two byte-identical bodies at different addresses
 * still need separate entries -- the hash's job is cheap identity
 * (invalidation checks, the `cfg.cache.unique_bodies` dedup metric),
 * not cross-address structure sharing.
 *
 * Thread safety: build_all() is a barrier; after it returns the cache
 * is immutable and at()/find()/body() are safe from any thread.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bir/image.h"
#include "cfg/cfg.h"
#include "support/error.h"
#include "support/parallel.h"

namespace rock::cfg {

/** Build-once, read-many CFG store for one image. */
class CfgCache {
  public:
    explicit CfgCache(const bir::BinaryImage& image);

    /**
     * Recover every function's CFG on @p pool, chunked by body size
     * so one giant function cannot serialize the sweep. Idempotent.
     */
    void build_all(support::ThreadPool& pool);

    /** Has build_all() completed? */
    bool built() const { return built_; }

    /** Number of cached functions (== image function-table size). */
    std::size_t size() const { return cfgs_.size(); }

    /** CFG of function-table entry @p index. Requires built(). */
    const Cfg& at(std::size_t index) const;

    /** CFG of the function entered at @p func_addr, or nullptr. */
    const Cfg* find(std::uint32_t func_addr) const;

    /** Content key of entry @p index: FNV-1a over the body bytes. */
    std::uint64_t content_hash(std::size_t index) const;

    /**
     * Decoded body of entry @p index. Served straight from the cached
     * slots when the CFG is well-formed; falls back to
     * BinaryImage::decode_function otherwise, preserving its
     * fatal-error contract on corrupt bodies.
     */
    std::vector<bir::Instr> body(std::size_t index) const;

    /**
     * Call @p visit on each instruction of body(@p index) in order,
     * reading a well-formed CFG's slots in place (no copy), with
     * body()'s fallback otherwise.
     */
    template <class Visit>
    void for_each_instr(std::size_t index, Visit&& visit) const
    {
        ROCK_ASSERT(built_, "CfgCache::for_each_instr before build_all");
        const Cfg& cfg = cfgs_[index];
        if (cfg.well_formed()) {
            for (const Slot& slot : cfg.slots)
                visit(*slot.instr);
            return;
        }
        for (const bir::Instr& instr :
             image_.decode_function(image_.functions[index]))
            visit(instr);
    }

    /**
     * Per-function instruction-slot counts -- the natural cost vector
     * for ThreadPool::parallel_for over function-table sweeps. Requires
     * built().
     */
    const std::vector<std::uint64_t>& costs() const { return costs_; }

    /**
     * image_digest() of the cached image, computed on first use and
     * then reused: every artifact fingerprint of one run (manifest,
     * symexec, typeinf) folds the same value. Thread-safe.
     */
    std::uint64_t image_digest() const;

  private:
    const bir::BinaryImage& image_;
    mutable std::once_flag digest_once_;
    mutable std::uint64_t digest_ = 0;
    std::vector<Cfg> cfgs_;
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint64_t> costs_;
    /** function entry address -> function-table index */
    std::unordered_map<std::uint32_t, std::size_t> by_addr_;
    bool built_ = false;
};

/** FNV-1a over @p fn's body bytes (clipped to the code section). */
std::uint64_t hash_function_bytes(const bir::BinaryImage& image,
                                  const bir::FunctionEntry& fn);

/**
 * FNV-1a digest of everything the analyses read from @p image: code
 * and data bytes, section bases, the function table and the entry
 * address. Symbols and the RTTI flag are excluded -- stripped images
 * carry neither and the analysis layer never reads them. Artifact
 * cache fingerprints (src/cache/) fold this in so per-function
 * artifacts recorded under one image can never serve another.
 */
std::uint64_t image_digest(const bir::BinaryImage& image);

} // namespace rock::cfg
