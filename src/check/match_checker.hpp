// Match/cover legality and functional verification. A Match claims that a
// library gate, with its input pins bound to specific subject nodes,
// computes the signal of the subject node it is rooted at. The checker
// verifies the claim two ways: structurally (the covered set is a
// well-formed cone whose internal fanins stay inside the cover) and
// functionally (the cone's exact truth table over the bound inputs equals
// the gate function, with repeated bindings identified — the rule
// ConeFunction owns).
#pragma once

#include "check/check.hpp"
#include "match/matcher.hpp"
#include "subject/cone_function.hpp"

namespace lily {

class MatchChecker {
public:
    explicit MatchChecker(const Library& lib) : lib_(&lib) {}

    /// Structural cover legality only.
    CheckReport check(const SubjectGraph& g, const Match& m) const;

    /// Legality plus cone-vs-gate functional equivalence (exact truth
    /// tables; gates are small, so 2^n enumeration is cheap).
    CheckReport check_function(const SubjectGraph& g, const Match& m) const;

private:
    const Library* lib_;
    mutable ConeFunction cone_;  // scratch reused across checks; not thread-safe
};

}  // namespace lily
