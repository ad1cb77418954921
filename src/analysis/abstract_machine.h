/**
 * @file
 * The abstract machine of object-tracelet recovery (paper Section 3.2).
 *
 * One abstract domain -- values, objects, frame-local state -- and one
 * transfer function over it, driven by two explorers: the symbolic
 * executor (symexec.h) forks it along every bounded path of a function,
 * and rockvm (vm/vm.h) steps it along the one path a concrete run
 * takes. Because both call the same step() and finish(), a frame's
 * event stream under rockvm is, op for op, the stream symexec produces
 * along the same intra-procedural path; only control (which path) is
 * each driver's own.
 */
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "analysis/event.h"
#include "analysis/vtable_scan.h"
#include "bir/image.h"

namespace rock::analysis {

/** An abstract value held in a register or memory cell. */
struct AbsValue {
    enum class Kind : std::uint8_t {
        Unknown,
        Const,  ///< known 32-bit constant (imm)
        Obj,    ///< pointer to abstract object `obj` at byte offset
        Vptr,   ///< value loaded from a vptr slot of object `obj`
        SlotFn, ///< function pointer loaded from vtable slot `slot`
    };

    Kind kind = Kind::Unknown;
    std::uint32_t imm = 0;
    int obj = -1;
    std::int32_t off = 0;       ///< Obj: offset; Vptr: vptr offset
    std::uint32_t slot = 0;     ///< SlotFn: slot index
    std::uint32_t slot_aux = 0; ///< SlotFn: subobject vptr offset

    static AbsValue unknown() { return {}; }

    static AbsValue
    constant(std::uint32_t imm)
    {
        AbsValue v;
        v.kind = Kind::Const;
        v.imm = imm;
        return v;
    }

    static AbsValue
    object(int obj, std::int32_t off)
    {
        AbsValue v;
        v.kind = Kind::Obj;
        v.obj = obj;
        v.off = off;
        return v;
    }
};

/** One abstract object along one path (or one rockvm frame). */
struct AbsObject {
    std::map<std::int32_t, std::uint32_t> vptr_stores;
    /** (subobject offset, callee) of each direct call taking the
     *  object as `this`. */
    std::vector<std::pair<std::int32_t, std::uint32_t>> this_calls;
    std::vector<Event> events;
    bool is_this_param = false;
};

/** Frame-local abstract state: everything a data op reads or writes. */
struct AbsState {
    std::array<AbsValue, bir::kNumRegs> regs;
    std::map<int, AbsValue> out_args;
    AbsValue last_ret;
    std::vector<AbsObject> objects;
    /** Memory keyed by (object, absolute offset). */
    std::map<std::pair<int, std::int32_t>, AbsValue> mem;
};

/**
 * The discovered vtables of one image, indexed by start address and
 * by member function, plus the transfer function over AbsState.
 */
class AbstractMachine {
  public:
    /**
     * @param image         the image under analysis
     * @param vtables       discovered vtables (from scan_vtables)
     * @param tracelet_len  window length finish() splits into; >= 1,
     *                      checked here (FatalError otherwise)
     */
    AbstractMachine(const bir::BinaryImage& image,
                    const std::vector<VTableInfo>& vtables,
                    int tracelet_len);

    /**
     * Apply @p in to @p st: the data ops (MovImm, MovReg, AddImm,
     * Load, Store, SetArg, GetArg, GetRet) and the event side of
     * Call, CallInd and RetVal. Nop and control ops leave @p st alone.
     *
     * @param this_callees    functions whose first argument is `this`
     * @param arg0_is_object  GetArg 0 yields the function's own
     *                        `this` object
     */
    void step(AbsState& st, const bir::Instr& in,
              const std::set<std::uint32_t>& this_callees,
              bool arg0_is_object) const;

    /**
     * Attribute the objects of a finished path (or frame) of function
     * @p fn: each object's events are split into disjoint windows of at
     * most tracelet_len events and appended to the object's type (its
     * offset-0 vptr store, else -- for the `this` object of a vtable
     * member -- every vtable containing @p fn), or to @p untyped for a
     * `this` object of no type.
     */
    void finish(const AbsState& st, std::uint32_t fn,
                std::map<std::uint32_t, std::vector<Tracelet>>& typed,
                std::vector<Tracelet>& untyped) const;

    /** Vtable starting exactly at @p addr, or null. */
    const VTableInfo* vtable_starting_at(std::uint32_t addr) const;

  private:
    /** Vtable whose slot array covers @p addr (sets @p slot), or null. */
    const VTableInfo* vtable_at(std::uint32_t addr,
                                std::uint32_t* slot) const;

    const bir::BinaryImage& image_;
    std::vector<VTableInfo> vtables_;
    std::size_t tracelet_len_;
    /** vtable start address -> index into vtables_. */
    std::map<std::uint32_t, std::size_t> vtable_index_;
    /** function address -> vtable addresses containing it. */
    std::map<std::uint32_t, std::vector<std::uint32_t>> containing_;
};

} // namespace rock::analysis
