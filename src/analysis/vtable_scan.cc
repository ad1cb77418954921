#include "analysis/vtable_scan.h"

#include <algorithm>

#include "bir/isa.h"

namespace rock::analysis {

using bir::Instr;
using bir::Op;

VtableCandidates::VtableCandidates(const bir::BinaryImage& image)
    : image_(image)
{
}

void
VtableCandidates::add(const Instr& instr)
{
    switch (instr.op) {
      case Op::MovImm:
        reg_is_data_[instr.a] = image_.in_data(instr.imm);
        reg_const_[instr.a] = instr.imm;
        break;
      case Op::MovReg:
        reg_is_data_[instr.a] = reg_is_data_[instr.b];
        reg_const_[instr.a] = reg_const_[instr.b];
        break;
      case Op::Store:
        if (reg_is_data_[instr.b])
            addrs_.push_back(reg_const_[instr.b]);
        break;
      case Op::Load:
      case Op::GetArg:
      case Op::GetRet:
      case Op::AddImm:
        // Register is clobbered with a non-constant.
        reg_is_data_[instr.a] = false;
        break;
      default:
        break;
    }
}

std::vector<VTableInfo>
vtables_at(const bir::BinaryImage& image,
           std::vector<std::uint32_t> candidates)
{
    // Keep candidates whose words form a run of function entry
    // points. The run stops at the first word that is not a function
    // start -- in practice the next vtable's RTTI back-pointer (zero
    // when stripped) or unrelated data. Candidates are visited in
    // ascending address order, so the tables come out sorted.
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<VTableInfo> tables;
    for (std::uint32_t addr : candidates) {
        VTableInfo info;
        info.addr = addr;
        std::uint32_t cur = addr;
        while (true) {
            auto word = image.read_data_word(cur);
            if (!word || !image.is_function_start(*word))
                break;
            info.slots.push_back(*word);
            cur += bir::kWordSize;
        }
        if (!info.slots.empty())
            tables.push_back(std::move(info));
    }
    return tables;
}

std::vector<VTableInfo>
scan_vtables(const bir::BinaryImage& image)
{
    std::vector<std::uint32_t> candidates;
    for (const auto& fn : image.functions) {
        VtableCandidates scan(image);
        for (const auto& instr : image.decode_function(fn))
            scan.add(instr);
        candidates.insert(candidates.end(), scan.addrs().begin(),
                          scan.addrs().end());
    }
    return vtables_at(image, std::move(candidates));
}

} // namespace rock::analysis
