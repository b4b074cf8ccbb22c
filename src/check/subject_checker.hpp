// Invariants of the NAND2/INV subject graph (the inchoate network):
// base-function-only ops, topological fanin order, fanin/fanout edge
// symmetry, I/O sanity.
#pragma once

#include "check/check.hpp"
#include "subject/subject_graph.hpp"

namespace lily {

class SubjectChecker {
public:
    /// Structural invariants (CheckLevel::Light).
    CheckReport check(const SubjectGraph& g) const;
};

}  // namespace lily
