/**
 * @file
 * Virtual-function-table discovery in stripped images.
 *
 * Binary types are represented by their vtables (paper Section 1,
 * problem statement). A data-section address is considered a vtable
 * when (a) some function materializes it and stores it through a
 * pointer -- the signature of object initialization -- and (b) the
 * words starting at that address form a non-empty run of valid
 * function entry points (including the _purecall trap).
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bir/image.h"
#include "bir/isa.h"

namespace rock::analysis {

/** One discovered vtable. */
struct VTableInfo {
    /** Address of slot 0 in the data section. */
    std::uint32_t addr = 0;
    /** Function entry addresses, one per slot. */
    std::vector<std::uint32_t> slots;

    bool operator==(const VTableInfo&) const = default;
};

/**
 * Step 1 of the scan for one function body: fed the body's decoded
 * instructions in order, it collects the data-section addresses the
 * body both materializes (MovImm) and stores through a pointer. A
 * linear, flow-insensitive pass: conservative, it may propose false
 * candidates, which vtables_at() filters.
 */
class VtableCandidates {
  public:
    explicit VtableCandidates(const bir::BinaryImage& image);

    /** Feed the body's next instruction. */
    void add(const bir::Instr& instr);

    /** The candidates so far, in body order (repeats possible). */
    std::vector<std::uint32_t>& addrs() { return addrs_; }

  private:
    const bir::BinaryImage& image_;
    std::array<std::uint32_t, bir::kNumRegs> reg_const_{};
    std::array<bool, bir::kNumRegs> reg_is_data_{};
    std::vector<std::uint32_t> addrs_;
};

/**
 * Step 2: the vtables among @p candidates (any order, repeats
 * allowed): those whose words form a run of function entry points.
 *
 * @return discovered tables sorted by address.
 */
std::vector<VTableInfo> vtables_at(const bir::BinaryImage& image,
                                   std::vector<std::uint32_t> candidates);

/**
 * Scan @p image for vtables: both steps over every function, each
 * body decoded here (analyze() runs step 1 on its cached CFGs
 * instead).
 *
 * @return discovered tables sorted by address.
 */
std::vector<VTableInfo> scan_vtables(const bir::BinaryImage& image);

} // namespace rock::analysis
