// Benchmark circuit generators: functional stand-ins for the MCNC/ISCAS-85
// circuits the paper evaluates on (the original BLIF files are not
// redistributable here). Each generator produces a combinational network of
// the same function class, size range and reconvergence structure as its
// namesake — which is what drives the mapping/wiring trade-offs the paper
// measures. All generators are deterministic.
//
//   9symml  -> nine-input symmetric function (count-of-ones in {3..6})
//   C432    -> 27-channel priority interrupt controller
//   C499    -> 32-bit single-error-correction (Hamming) checker
//   C880    -> 8-bit ALU slice
//   C1908   -> 16-bit SEC/DED-style checker
//   C3540   -> wider ALU with status logic
//   C5315   -> 9-bit ALU with parallel compare/select
//   apex6/7 -> random multi-level control logic (seeded)
//   b9      -> small control logic
//   apex3/duke2/e64/misex1/misex3 -> PLA-style two-level blocks (seeded)
#pragma once

#include <string>
#include <vector>

#include "netlist/network.hpp"

namespace lily {

/// Nine-input symmetric benchmark: output is 1 iff the number of 1-inputs
/// is between `lo` and `hi` inclusive (9symml uses 3..6).
Network make_symmetric9(unsigned lo = 3, unsigned hi = 6);

/// n-channel priority interrupt controller (C432 flavor): per-channel
/// enable masks, a priority encoder and grant outputs.
Network make_priority_controller(unsigned channels = 27);

/// Hamming-style single-error-correcting checker over `data_bits` data
/// lines: computes syndrome from received codeword and corrected outputs
/// (C499/C1908 flavor). `dual` adds a second interleaved checker (C1908).
Network make_ecc_checker(unsigned data_bits = 32, bool dual = false);

/// w-bit ALU slice: add/sub with carry chain, AND/OR/XOR lanes, a 2-bit op
/// select, zero flag (C880/C3540/C5315 flavor). Throws std::invalid_argument
/// for width 0.
Network make_alu(unsigned width = 8, bool with_status = false);

/// Random multi-level control logic with reconvergent fanout (apex6/apex7/
/// b9 flavor). Deterministic for a seed.
Network make_control_logic(unsigned n_pi, unsigned n_po, unsigned n_gates,
                           std::uint64_t seed, const std::string& name);

/// PLA-style block pre-decomposed into AND/OR trees: `terms` random product
/// terms over `n_pi` inputs OR-ed into `n_po` outputs (apex3/duke2/e64/
/// misex flavor, in the "already optimized" multi-level shape the mapper
/// expects).
Network make_pla(unsigned n_pi, unsigned n_po, unsigned terms, std::uint64_t seed,
                 const std::string& name);

/// The same PLA as genuinely two-level logic: one wide SOP node per output
/// (the raw .pla shape, before technology-independent optimization). Input
/// for the src/opt extraction passes. n_pi must be at most 64.
Network make_pla_flat(unsigned n_pi, unsigned n_po, unsigned terms, std::uint64_t seed,
                      const std::string& name);

/// w x w array multiplier (ISCAS C6288 flavor: the classic stress case for
/// mappers and placers — deep carry-save structure, heavy reconvergence).
Network make_multiplier(unsigned width = 8);

/// One named benchmark instance of the paper's Table 1/2 suite.
struct Benchmark {
    std::string name;   // the paper's circuit name this stands in for
    Network network;
};

/// The full suite in the order of Table 1. `scale` in (0, 1] shrinks every
/// circuit proportionally (for fast test/bench runs).
std::vector<Benchmark> paper_suite(double scale = 1.0);

/// The subset used in Table 2 (delay comparison).
std::vector<std::string> table2_names();

}  // namespace lily
