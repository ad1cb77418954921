#include "analysis/abstract_machine.h"

#include <algorithm>

#include "support/error.h"

namespace rock::analysis {

using bir::Instr;
using bir::Op;

namespace {

void
emit(AbsState& st, int obj, Event e)
{
    st.objects[static_cast<std::size_t>(obj)].events.push_back(e);
}

/** Effects of a call on the objects passed to it; clears the
 *  outgoing arguments and the return value. */
void
call_effects(AbsState& st, std::uint32_t callee, bool callee_known,
             const std::set<std::uint32_t>& this_callees)
{
    for (const auto& [slot, val] : st.out_args) {
        if (val.kind != AbsValue::Kind::Obj)
            continue;
        if (slot == 0 && callee_known && this_callees.count(callee)) {
            emit(st, val.obj, Event{EventKind::PassedThis, 0, 0});
            st.objects[static_cast<std::size_t>(val.obj)]
                .this_calls.emplace_back(val.off, callee);
        } else {
            emit(st, val.obj,
                 Event{EventKind::PassedArg,
                       static_cast<std::uint32_t>(slot), 0});
        }
        if (callee_known)
            emit(st, val.obj, Event{EventKind::CallDirect, callee, 0});
    }
    st.out_args.clear();
    st.last_ret = AbsValue::unknown();
}

} // namespace

AbstractMachine::AbstractMachine(const bir::BinaryImage& image,
                                 const std::vector<VTableInfo>& vtables,
                                 int tracelet_len)
    : image_(image), vtables_(vtables),
      tracelet_len_(static_cast<std::size_t>(tracelet_len))
{
    support::check(tracelet_len >= 1, "tracelet length must be >= 1");
    for (std::size_t i = 0; i < vtables_.size(); ++i) {
        vtable_index_[vtables_[i].addr] = i;
        for (std::uint32_t fn : vtables_[i].slots)
            containing_[fn].push_back(vtables_[i].addr);
    }
}

const VTableInfo*
AbstractMachine::vtable_starting_at(std::uint32_t addr) const
{
    auto it = vtable_index_.find(addr);
    return it == vtable_index_.end() ? nullptr : &vtables_[it->second];
}

const VTableInfo*
AbstractMachine::vtable_at(std::uint32_t addr, std::uint32_t* slot) const
{
    // Locate the vtable whose slot array covers addr.
    auto it = vtable_index_.upper_bound(addr);
    if (it == vtable_index_.begin())
        return nullptr;
    --it;
    const VTableInfo& vt = vtables_[it->second];
    std::uint32_t end =
        vt.addr + static_cast<std::uint32_t>(vt.slots.size()) *
                      bir::kWordSize;
    if (addr < vt.addr || addr >= end)
        return nullptr;
    if ((addr - vt.addr) % bir::kWordSize != 0)
        return nullptr;
    *slot = (addr - vt.addr) / bir::kWordSize;
    return &vt;
}

void
AbstractMachine::step(AbsState& st, const Instr& in,
                      const std::set<std::uint32_t>& this_callees,
                      bool arg0_is_object) const
{
    switch (in.op) {
      case Op::MovImm:
        st.regs[in.a] = AbsValue::constant(in.imm);
        break;
      case Op::MovReg:
        st.regs[in.a] = st.regs[in.b];
        break;
      case Op::AddImm: {
        AbsValue v = st.regs[in.b];
        std::int32_t delta = static_cast<std::int32_t>(in.imm);
        switch (v.kind) {
          case AbsValue::Kind::Obj:
            v.off += delta;
            break;
          case AbsValue::Kind::Const:
            v.imm += static_cast<std::uint32_t>(delta);
            break;
          default:
            v = AbsValue::unknown();
            break;
        }
        st.regs[in.a] = v;
        break;
      }
      case Op::Load: {
        const AbsValue& base = st.regs[in.b];
        std::int32_t disp = static_cast<std::int32_t>(in.imm);
        AbsValue out = AbsValue::unknown();
        if (base.kind == AbsValue::Kind::Obj) {
            std::int32_t abs = base.off + disp;
            auto& obj = st.objects[static_cast<std::size_t>(base.obj)];
            bool vptr_slot = obj.vptr_stores.count(abs) != 0 ||
                             (obj.is_this_param && abs == 0);
            if (vptr_slot) {
                // Reading the object's vptr: no field event.
                out.kind = AbsValue::Kind::Vptr;
                out.obj = base.obj;
                out.off = abs;
                auto stored = obj.vptr_stores.find(abs);
                if (stored != obj.vptr_stores.end())
                    out.imm = stored->second;
            } else {
                emit(st, base.obj,
                     Event{EventKind::ReadField,
                           static_cast<std::uint32_t>(abs), 0});
                auto cell = st.mem.find({base.obj, abs});
                if (cell != st.mem.end())
                    out = cell->second;
            }
        } else if (base.kind == AbsValue::Kind::Vptr) {
            // Loading a function pointer out of a vtable.
            out.kind = AbsValue::Kind::SlotFn;
            out.obj = base.obj;
            out.slot = static_cast<std::uint32_t>(disp) / bir::kWordSize;
            out.slot_aux = static_cast<std::uint32_t>(base.off);
            if (base.imm != 0) {
                if (auto word = image_.read_data_word(base.imm + in.imm))
                    out.imm = *word;
            }
        } else if (base.kind == AbsValue::Kind::Const &&
                   image_.in_data(base.imm)) {
            std::uint32_t addr = base.imm + static_cast<std::uint32_t>(disp);
            std::uint32_t slot = 0;
            if (const VTableInfo* vt = vtable_at(addr, &slot)) {
                out.kind = AbsValue::Kind::SlotFn;
                out.slot = slot;
                out.imm = vt->slots[slot];
            } else if (auto word = image_.read_data_word(addr)) {
                out = AbsValue::constant(*word);
            }
        }
        st.regs[in.a] = out;
        break;
      }
      case Op::Store: {
        const AbsValue& base = st.regs[in.a];
        const AbsValue& val = st.regs[in.b];
        if (base.kind == AbsValue::Kind::Obj) {
            std::int32_t abs = base.off + static_cast<std::int32_t>(in.imm);
            auto& obj = st.objects[static_cast<std::size_t>(base.obj)];
            if (val.kind == AbsValue::Kind::Const &&
                vtable_index_.count(val.imm) != 0) {
                // vptr assignment: types the object.
                obj.vptr_stores[abs] = val.imm;
            } else {
                emit(st, base.obj,
                     Event{EventKind::WriteField,
                           static_cast<std::uint32_t>(abs), 0});
            }
            st.mem[{base.obj, abs}] = val;
        }
        break;
      }
      case Op::SetArg:
        st.out_args[in.a] = st.regs[in.b];
        break;
      case Op::GetArg: {
        AbsValue v = AbsValue::unknown();
        if (in.b == 0 && arg0_is_object) {
            // Locate or create the `this` object.
            int found = -1;
            for (std::size_t i = 0; i < st.objects.size(); ++i) {
                if (st.objects[i].is_this_param)
                    found = static_cast<int>(i);
            }
            if (found < 0) {
                AbsObject obj;
                obj.is_this_param = true;
                st.objects.push_back(std::move(obj));
                found = static_cast<int>(st.objects.size()) - 1;
            }
            v = AbsValue::object(found, 0);
        }
        st.regs[in.a] = v;
        break;
      }
      case Op::GetRet:
        st.regs[in.a] = st.last_ret;
        break;
      case Op::Call:
        if (in.imm == bir::kAllocStub) {
            st.objects.push_back(AbsObject{});
            st.out_args.clear();
            st.last_ret = AbsValue::object(
                static_cast<int>(st.objects.size()) - 1, 0);
        } else if (in.imm == bir::kPurecallStub) {
            st.out_args.clear();
            st.last_ret = AbsValue::unknown();
        } else {
            call_effects(st, in.imm, true, this_callees);
        }
        break;
      case Op::CallInd: {
        const AbsValue& target = st.regs[in.a];
        if (target.kind == AbsValue::Kind::SlotFn) {
            // Virtual dispatch: C(slot) on the receiver.
            int receiver = target.obj;
            std::uint32_t aux = target.slot_aux;
            auto arg0 = st.out_args.find(0);
            if (receiver < 0 && arg0 != st.out_args.end() &&
                arg0->second.kind == AbsValue::Kind::Obj) {
                receiver = arg0->second.obj;
                aux = static_cast<std::uint32_t>(arg0->second.off);
            }
            if (receiver >= 0) {
                emit(st, receiver,
                     Event{EventKind::VirtCall, target.slot, aux});
            }
            // Remaining object args still count as passed.
            for (const auto& [slot, val] : st.out_args) {
                if (slot != 0 && val.kind == AbsValue::Kind::Obj) {
                    emit(st, val.obj,
                         Event{EventKind::PassedArg,
                               static_cast<std::uint32_t>(slot), 0});
                }
            }
            st.out_args.clear();
            st.last_ret = AbsValue::unknown();
        } else if (target.kind == AbsValue::Kind::Const &&
                   image_.is_function_start(target.imm)) {
            call_effects(st, target.imm, true, this_callees);
        } else {
            call_effects(st, 0, false, this_callees);
        }
        break;
      }
      case Op::RetVal: {
        const AbsValue& v = st.regs[in.a];
        if (v.kind == AbsValue::Kind::Obj)
            emit(st, v.obj, Event{EventKind::Returned, 0, 0});
        break;
      }
      case Op::Nop:
      case Op::Ret:
      case Op::Jmp:
      case Op::Jnz:
      case Op::Jz:
        break;
    }
}

void
AbstractMachine::finish(
    const AbsState& st, std::uint32_t fn,
    std::map<std::uint32_t, std::vector<Tracelet>>& typed,
    std::vector<Tracelet>& untyped) const
{
    for (const AbsObject& obj : st.objects) {
        const std::vector<Event>& ev = obj.events;
        if (ev.empty())
            continue;
        std::vector<Tracelet> windows;
        for (std::size_t i = 0; i < ev.size(); i += tracelet_len_) {
            std::size_t hi = std::min(ev.size(), i + tracelet_len_);
            windows.emplace_back(ev.begin() + i, ev.begin() + hi);
        }
        auto append = [&windows](std::vector<Tracelet>& out) {
            out.insert(out.end(), windows.begin(), windows.end());
        };
        auto primary = obj.vptr_stores.find(0);
        if (primary != obj.vptr_stores.end()) {
            append(typed[primary->second]);
        } else if (obj.is_this_param) {
            // A shared method body is attributed to every type whose
            // vtable holds it (behavior inheritance).
            auto owners = containing_.find(fn);
            if (owners == containing_.end()) {
                append(untyped);
            } else {
                for (std::uint32_t type : owners->second)
                    append(typed[type]);
            }
        }
    }
}

} // namespace rock::analysis
