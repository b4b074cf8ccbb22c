// Mapped-netlist invariants: structural well-formedness (every pin driven,
// topological instance order, no double drivers) and sanity of a timing
// report over the netlist (finite, non-negative, monotone arrivals; loads at
// least the connected pin capacitance — wire load can only add).
#pragma once

#include "check/check.hpp"
#include "map/mapped_netlist.hpp"
#include "sta/timing.hpp"

namespace lily {

class MappedChecker {
public:
    explicit MappedChecker(const Library& lib) : lib_(&lib) {}

    /// Structural invariants (CheckLevel::Light).
    CheckReport check(const MappedNetlist& m) const;

    /// Timing-report sanity for this netlist: arrivals finite, non-negative
    /// and monotone along gate connectivity; loads no smaller than the
    /// connected input pin capacitance.
    CheckReport check_timing(const MappedNetlist& m, const TimingReport& timing) const;

private:
    const Library* lib_;
};

/// Deliberately corrupt `mapped` for checker/verifier self-tests: replace
/// one instance's gate with a same-arity gate whose truth table differs (a
/// functionally wrong cover). Returns false when the library carries no such
/// pair. Used by the flow's verify:miscompare fault probe (lily_lint
/// --inject=verify:miscompare), perfbench's self-test and the tests.
bool inject_wrong_cover(MappedNetlist& mapped, const Library& lib);

}  // namespace lily
