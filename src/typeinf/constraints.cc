#include "typeinf/constraints.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cache/artifact_cache.h"
#include "cfg/analyses.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/str.h"

namespace rock::typeinf {

namespace {

using bir::Instr;
using bir::Op;

/** What the linear scan knows about one register. */
struct RegState {
    enum Kind : std::uint8_t {
        Unknown, ///< nothing object-like
        VtConst, ///< a vtable address materialized by MovImm
        Obj,     ///< pointer to object `var` at byte `offset`
        PtrLoad, ///< word loaded from an object (potential vptr)
        SlotFn,  ///< word loaded from a PtrLoad (potential method ptr)
    };
    Kind kind = Unknown;
    int var = -1;
    std::int32_t offset = 0;
    std::uint32_t value = 0;
    int slot = -1;
    /** PtrLoad: slot index of the producing Load (field-vs-vptr
     *  classification happens when/if a second Load consumes it). */
    int site = -1;
};

/** One function's scan output, with function-local variable ids. */
struct Batch {
    std::vector<Constraint> constraints;
    int num_vars = 0;
    int this_var = -1;
};

/** A candidate field read: a Load off an object pointer that no
 *  dispatch chain reclassified as a vptr load. */
struct LoadSite {
    int slot = -1;
    int var = -1;
    std::int32_t offset = 0;
    std::uint32_t addr = 0;
};

class FunctionScanner {
  public:
    FunctionScanner(const bir::BinaryImage& image, const cfg::Cfg& cfg,
                    const std::unordered_set<std::uint32_t>& vtables)
        : image_(image), cfg_(cfg), vtables_(vtables)
    {
    }

    Batch scan();

  private:
    void reset_all();
    void reset_pendings();
    int this_param_var();
    /** Reaching-defs fallback: Obj(this, 0) when every def of @p reg
     *  reaching @p slot is a GetArg-slot-0. */
    std::optional<RegState> recover_this(int slot, int reg);
    /** Constant-propagation fallback for a register the scan lost. */
    std::optional<std::uint32_t> const_value(int slot, int reg);
    Constraint base(ConstraintKind kind, std::uint32_t addr) const;
    void flush_direct_call(std::uint32_t callee, std::uint32_t addr);

    const bir::BinaryImage& image_;
    const cfg::Cfg& cfg_;
    const std::unordered_set<std::uint32_t>& vtables_;

    Batch batch_;
    RegState regs_[bir::kNumRegs];
    RegState pending_arg0_;
    bool pending_alloc_ = false;
    std::vector<LoadSite> load_sites_;
    std::vector<bool> site_is_vptr_;
    std::optional<cfg::ConstProp> constprop_;
    std::optional<cfg::ReachingDefs> reaching_;
};

void
FunctionScanner::reset_all()
{
    for (auto& reg : regs_)
        reg = RegState{};
    reset_pendings();
}

void
FunctionScanner::reset_pendings()
{
    pending_arg0_ = RegState{};
    pending_alloc_ = false;
}

int
FunctionScanner::this_param_var()
{
    if (batch_.this_var < 0)
        batch_.this_var = batch_.num_vars++;
    return batch_.this_var;
}

std::optional<RegState>
FunctionScanner::recover_this(int slot, int reg)
{
    if (!reaching_)
        reaching_ = cfg::reaching_definitions(cfg_);
    std::set<int> defs = reaching_->reaching(cfg_, slot, reg);
    if (defs.empty())
        return std::nullopt;
    for (int def : defs) {
        if (def == cfg::kUninitDef)
            return std::nullopt;
        const auto& instr =
            cfg_.slots[static_cast<std::size_t>(def)].instr;
        if (!instr || instr->op != Op::GetArg || instr->b != 0)
            return std::nullopt;
    }
    RegState state;
    state.kind = RegState::Obj;
    state.var = this_param_var();
    state.offset = 0;
    return state;
}

std::optional<std::uint32_t>
FunctionScanner::const_value(int slot, int reg)
{
    if (!constprop_)
        constprop_ = cfg::constant_propagation(cfg_);
    cfg::ConstVal val = constprop_->value_at(cfg_, slot, reg);
    if (val.kind == cfg::ConstVal::Const)
        return val.value;
    return std::nullopt;
}

Constraint
FunctionScanner::base(ConstraintKind kind, std::uint32_t addr) const
{
    Constraint c;
    c.kind = kind;
    c.func_addr = cfg_.func.addr;
    c.addr = addr;
    return c;
}

void
FunctionScanner::flush_direct_call(std::uint32_t callee,
                                   std::uint32_t addr)
{
    if (pending_arg0_.kind == RegState::Obj &&
        image_.function_at(callee) != nullptr) {
        Constraint c = base(ConstraintKind::ThisArg, addr);
        c.var = pending_arg0_.var;
        c.offset = pending_arg0_.offset;
        c.callee = callee;
        batch_.constraints.push_back(c);
    }
    reset_pendings();
}

Batch
FunctionScanner::scan()
{
    reset_all();
    const int slots = static_cast<int>(cfg_.slots.size());
    for (int s = 0; s < slots; ++s) {
        const cfg::Slot& slot = cfg_.slots[static_cast<std::size_t>(s)];
        // Calls and argument slots do not survive a control-flow
        // join: the flow-insensitive scan drops them at block
        // leaders, keeping the dispatch/ctor idioms (always
        // straight-line) while never pairing a SetArg with a Call in
        // a different block.
        if (s > 0 && cfg_.slot_block[static_cast<std::size_t>(s)] !=
                         cfg_.slot_block[static_cast<std::size_t>(s - 1)])
            reset_pendings();
        if (!slot.instr) {
            reset_all(); // corrupted slot: trust nothing downstream
            continue;
        }
        const Instr& in = *slot.instr;
        switch (in.op) {
          case Op::MovImm: {
            RegState state;
            if (vtables_.count(in.imm)) {
                state.kind = RegState::VtConst;
                state.value = in.imm;
            }
            regs_[in.a] = state;
            break;
          }
          case Op::MovReg:
            regs_[in.a] = regs_[in.b];
            break;
          case Op::AddImm: {
            RegState state = regs_[in.b];
            if (state.kind == RegState::Obj)
                state.offset += static_cast<std::int32_t>(in.imm);
            else
                state = RegState{};
            regs_[in.a] = state;
            break;
          }
          case Op::Load: {
            RegState src = regs_[in.b];
            if (src.kind == RegState::Unknown) {
                if (auto rec = recover_this(s, in.b))
                    src = *rec;
            }
            RegState out;
            if (src.kind == RegState::Obj) {
                out.kind = RegState::PtrLoad;
                out.var = src.var;
                out.offset =
                    src.offset + static_cast<std::int32_t>(in.imm);
                out.site = static_cast<int>(load_sites_.size());
                load_sites_.push_back({s, out.var, out.offset,
                                       slot.addr});
                site_is_vptr_.push_back(false);
            } else if (src.kind == RegState::PtrLoad) {
                // Second load of the dispatch idiom: the first load
                // was a vptr read, this one fetches a method pointer.
                out.kind = RegState::SlotFn;
                out.var = src.var;
                out.offset = src.offset;
                out.slot = static_cast<int>(in.imm / bir::kWordSize);
                if (src.site >= 0)
                    site_is_vptr_[static_cast<std::size_t>(src.site)] =
                        true;
            }
            regs_[in.a] = out;
            break;
          }
          case Op::Store: {
            RegState dst = regs_[in.a];
            if (dst.kind == RegState::Unknown) {
                if (auto rec = recover_this(s, in.a))
                    dst = *rec;
            }
            if (dst.kind != RegState::Obj)
                break;
            std::int32_t off =
                dst.offset + static_cast<std::int32_t>(in.imm);
            RegState val = regs_[in.b];
            std::optional<std::uint32_t> stored;
            if (val.kind == RegState::VtConst)
                stored = val.value;
            else if (val.kind == RegState::Unknown) {
                // Constant propagation sees through paths the linear
                // scan lost (e.g. a join of two MovImms).
                if (auto cv = const_value(s, in.b);
                    cv && vtables_.count(*cv))
                    stored = *cv;
            }
            if (stored) {
                Constraint c =
                    base(ConstraintKind::VptrStore, slot.addr);
                c.var = dst.var;
                c.offset = off;
                c.vtable = *stored;
                batch_.constraints.push_back(c);
            } else {
                Constraint c =
                    base(ConstraintKind::FieldAccess, slot.addr);
                c.var = dst.var;
                c.offset = off;
                c.is_store = true;
                batch_.constraints.push_back(c);
            }
            break;
          }
          case Op::SetArg:
            if (in.a == 0)
                pending_arg0_ = regs_[in.b];
            break;
          case Op::GetArg: {
            RegState state;
            if (in.b == 0) {
                state.kind = RegState::Obj;
                state.var = this_param_var();
                state.offset = 0;
            }
            regs_[in.a] = state;
            break;
          }
          case Op::Call:
            if (in.imm == bir::kAllocStub) {
                reset_pendings();
                pending_alloc_ = true;
            } else {
                flush_direct_call(in.imm, slot.addr);
            }
            break;
          case Op::CallInd: {
            RegState target = regs_[in.a];
            if (target.kind == RegState::SlotFn) {
                Constraint c =
                    base(ConstraintKind::MethodSlot, slot.addr);
                c.var = target.var;
                c.offset = target.offset;
                c.slot = target.slot;
                batch_.constraints.push_back(c);
                reset_pendings();
            } else if (auto cv = const_value(s, in.a)) {
                // A provably-constant indirect call is a direct call
                // in disguise (constprop fact, verifier-checked).
                flush_direct_call(*cv, slot.addr);
            } else {
                reset_pendings();
            }
            break;
          }
          case Op::GetRet: {
            RegState state;
            if (pending_alloc_) {
                state.kind = RegState::Obj;
                state.var = batch_.num_vars++;
                state.offset = 0;
                pending_alloc_ = false;
            }
            regs_[in.a] = state;
            break;
          }
          case Op::Nop:
          case Op::RetVal:
          case Op::Ret:
          case Op::Jmp:
          case Op::Jnz:
          case Op::Jz:
            break;
        }
    }

    // Loads never consumed by a dispatch chain are field reads.
    for (std::size_t i = 0; i < load_sites_.size(); ++i) {
        if (site_is_vptr_[i])
            continue;
        const LoadSite& site = load_sites_[i];
        Constraint c = base(ConstraintKind::FieldAccess, site.addr);
        c.var = site.var;
        c.offset = site.offset;
        batch_.constraints.push_back(c);
    }
    std::stable_sort(batch_.constraints.begin(),
                     batch_.constraints.end(),
                     [](const Constraint& a, const Constraint& b) {
                         return a.addr < b.addr;
                     });
    return batch_;
}

// ---- "typeinf" artifact codec -----------------------------------------
// Payload: one representative body's Batch, before the per-alias
// variable/address rebase (the rebase is pure arithmetic, so caching
// the batch reproduces the merged ConstraintSet bit for bit).

void
encode_batch(const Batch& batch, cache::ByteWriter& w)
{
    w.i32(batch.num_vars);
    w.i32(batch.this_var);
    w.u32(static_cast<std::uint32_t>(batch.constraints.size()));
    for (const Constraint& c : batch.constraints) {
        w.u8(static_cast<std::uint8_t>(c.kind));
        w.i32(c.var);
        w.i32(c.offset);
        w.u32(c.vtable);
        w.i32(c.slot);
        w.u32(c.callee);
        w.u8(c.is_store ? 1 : 0);
        w.u32(c.func_addr);
        w.u32(c.addr);
    }
}

bool
decode_batch(cache::ByteReader& r, Batch& batch)
{
    batch = Batch{};
    batch.num_vars = r.i32();
    batch.this_var = r.i32();
    std::uint32_t n = r.u32();
    if (!r.ok() || n > r.remaining())
        return false;
    batch.constraints.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        Constraint& c = batch.constraints[i];
        std::uint8_t kind = r.u8();
        if (kind >
            static_cast<std::uint8_t>(ConstraintKind::FieldAccess))
            return false;
        c.kind = static_cast<ConstraintKind>(kind);
        c.var = r.i32();
        c.offset = r.i32();
        c.vtable = r.u32();
        c.slot = r.i32();
        c.callee = r.u32();
        c.is_store = r.u8() != 0;
        c.func_addr = r.u32();
        c.addr = r.u32();
    }
    return r.at_end();
}

} // namespace

const char*
constraint_name(ConstraintKind kind)
{
    switch (kind) {
      case ConstraintKind::VptrStore: return "vptr-store";
      case ConstraintKind::MethodSlot: return "method-slot";
      case ConstraintKind::ThisArg: return "this-arg";
      case ConstraintKind::FieldAccess: return "field-access";
    }
    return "?";
}

std::string
to_string(const Constraint& c)
{
    using support::format;
    using support::hex;
    std::string head = format("%s: [%s] ", hex(c.addr).c_str(),
                              constraint_name(c.kind));
    switch (c.kind) {
      case ConstraintKind::VptrStore:
        return head + format("v%d+%d <- vt %s", c.var, c.offset,
                             hex(c.vtable).c_str());
      case ConstraintKind::MethodSlot:
        return head +
               format("v%d+%d dispatches slot %d", c.var, c.offset,
                      c.slot);
      case ConstraintKind::ThisArg:
        return head + format("v%d+%d passed as this to %s", c.var,
                             c.offset, hex(c.callee).c_str());
      case ConstraintKind::FieldAccess:
        return head + format("v%d %s field at %d", c.var,
                             c.is_store ? "writes" : "reads",
                             c.offset);
    }
    return head + "?";
}

ConstraintSet
generate_constraints(const bir::BinaryImage& image,
                     const cfg::CfgCache& cache,
                     const std::vector<analysis::VTableInfo>& vtables,
                     support::ThreadPool& pool)
{
    return generate_constraints(image, cache, vtables, pool, nullptr);
}

ConstraintSet
generate_constraints(const bir::BinaryImage& image,
                     const cfg::CfgCache& cache,
                     const std::vector<analysis::VTableInfo>& vtables,
                     support::ThreadPool& pool,
                     const std::shared_ptr<cache::ArtifactCache>&
                         artifacts)
{
    ROCK_ASSERT(cache.built(), "CfgCache must be built before "
                               "constraint generation");
    const std::size_t n = cache.size();
    std::unordered_set<std::uint32_t> vtable_addrs;
    for (const auto& vt : vtables)
        vtable_addrs.insert(vt.addr);

    // One scan per unique body: group function-table entries by
    // content hash, scan each group's representative, then replicate
    // the batch to every alias with its addresses rebased.
    std::unordered_map<std::uint64_t, std::size_t> rep_of_hash;
    std::vector<std::size_t> group_rep; // representative fn index
    std::vector<std::size_t> rep_index(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        auto [it, inserted] =
            rep_of_hash.try_emplace(cache.content_hash(i),
                                    group_rep.size());
        if (inserted)
            group_rep.push_back(i);
        rep_index[i] = it->second;
    }

    // Memoization fingerprint: the scan reads the rep's CFG, the
    // vtable address set and the function table (direct-call targets
    // are checked against it), all covered by the image digest +
    // vtable fold below. Worker count deliberately excluded.
    cache::ArtifactCache* store = artifacts.get();
    std::uint64_t fp = 0;
    if (store) {
        fp = cache::mix(cache::kFnvSeed, cache::kSchemaVersion);
        fp = cache::mix(fp, cache.image_digest());
        fp = cache::mix(fp, vtable_addrs.size());
        for (const auto& vt : vtables)
            fp = cache::mix(fp, vt.addr);
    }

    std::vector<Batch> rep_batches(group_rep.size());
    std::vector<std::uint64_t> group_costs(group_rep.size(), 1);
    for (std::size_t g = 0; g < group_rep.size(); ++g)
        group_costs[g] = cache.costs()[group_rep[g]];
    pool.parallel_for(group_rep.size(), group_costs.data(),
                      [&](std::size_t g) {
        const auto scan = [&] {
            FunctionScanner scanner(image, cache.at(group_rep[g]),
                                    vtable_addrs);
            rep_batches[g] = scanner.scan();
        };
        if (!store) {
            scan();
            return;
        }
        std::uint64_t content = cache::mix(
            cache::kFnvSeed, cache.content_hash(group_rep[g]));
        content =
            cache::mix(content, image.functions[group_rep[g]].addr);
        cache::ArtifactKey key{"typeinf", content, fp};
        if (store->probe(key, [&](cache::ByteReader& in) {
                return decode_batch(in, rep_batches[g]);
            }))
            return;
        obs::CounterCapture capture;
        scan();
        cache::ByteWriter w;
        encode_batch(rep_batches[g], w);
        store->store(key, w, capture.deltas());
    });

    // Merge in function-table order: every alias gets its own block
    // of variable ids (byte-identical bodies do not share objects)
    // and its own provenance addresses.
    ConstraintSet out;
    out.this_vars.assign(n, -1);
    out.unique_bodies = group_rep.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Batch& batch = rep_batches[rep_index[i]];
        const bir::FunctionEntry& fn = image.functions[i];
        const bir::FunctionEntry& rep_fn =
            image.functions[group_rep[rep_index[i]]];
        const int var_base = out.num_vars;
        if (batch.this_var >= 0)
            out.this_vars[i] = var_base + batch.this_var;
        for (Constraint c : batch.constraints) {
            c.var += var_base;
            c.func_addr = fn.addr;
            c.addr = fn.addr + (c.addr - rep_fn.addr);
            out.constraints.push_back(c);
        }
        out.num_vars += batch.num_vars;
    }
    return out;
}

} // namespace rock::typeinf
