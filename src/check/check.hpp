// Pipeline invariant checking: structured diagnostics instead of asserts.
//
// Every stage of the mapping pipeline rests on invariants the paper states
// but a transformation bug can silently break: the subject graph must stay
// a well-formed NAND2/INV DAG, every chosen match must compute the function
// of the cone it replaces, placements must keep every position finite and
// inside the chip region, and the mapped netlist must be well formed. The
// checkers in this directory verify those local invariants and report
// violations as CheckIssue records, so callers (tests, the flow's
// CheckLevel knob, the lily_lint CLI) decide whether to warn, throw, or
// exit non-zero. Equivalence of a whole mapped circuit with its source is
// the verify stage's job (verify/cec.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lily {

/// How much local self-verification the pipeline runs between stages.
/// Whole-circuit equivalence is not a check level: the flow's verify stage
/// (VerifyLevel, LILY_VERIFY) owns it.
///  * Off   — no checking (production default).
///  * Light — the local checks: structural scans of every artifact plus
///            the exact truth-table check of each chosen match's cone.
enum class CheckLevel : std::uint8_t { Off, Light };

/// Parse "off" / "light" (case-insensitive). Unknown text returns
/// `fallback`.
CheckLevel parse_check_level(std::string_view text, CheckLevel fallback = CheckLevel::Off);

/// CheckLevel from the LILY_CHECK_LEVEL environment variable (unset -> Off;
/// unparsable -> Off with one stderr line). Read once and cached.
CheckLevel check_level_from_env();

enum class CheckSeverity : std::uint8_t { Warning, Error };

/// Which pipeline stage (equivalently: which checker) produced an issue.
enum class CheckStage : std::uint8_t {
    Network,    // source Boolean network
    Subject,    // NAND2/INV subject graph (decomposition)
    Match,      // pattern matches / covers
    Placement,  // global+detailed placement, pads
    Mapped,     // mapped gate netlist, timing
    Pipeline,   // cross-stage artifact versioning (ECO staleness)
    Verify,     // formal equivalence engine, netlist lint passes
    Serve,      // serving-layer spool/journal integrity
};

const char* to_string(CheckStage stage);
const char* to_string(CheckSeverity severity);

/// One diagnostic. `node` is the index of the offending object in its
/// stage's id space (NodeId, SubjectId, instance/cell index...), or
/// kNoCheckNode when the issue is not tied to one object.
inline constexpr std::uint64_t kNoCheckNode = static_cast<std::uint64_t>(-1);

struct CheckIssue {
    CheckSeverity severity = CheckSeverity::Error;
    CheckStage stage = CheckStage::Network;
    std::uint64_t node = kNoCheckNode;
    std::string message;

    std::string to_string() const;
};

/// An append-only collection of issues with the common queries.
class CheckReport {
public:
    void add(CheckIssue issue) { issues_.push_back(std::move(issue)); }
    void error(CheckStage stage, std::uint64_t node, std::string message) {
        add({CheckSeverity::Error, stage, node, std::move(message)});
    }
    void warning(CheckStage stage, std::uint64_t node, std::string message) {
        add({CheckSeverity::Warning, stage, node, std::move(message)});
    }

    /// Merge another report's issues into this one.
    void merge(const CheckReport& other);

    const std::vector<CheckIssue>& issues() const { return issues_; }
    bool empty() const { return issues_.empty(); }
    std::size_t error_count() const;
    std::size_t warning_count() const;
    bool has_errors() const { return error_count() > 0; }

    /// True when some issue's message contains `needle` (for tests).
    bool mentions(std::string_view needle) const;

    /// One line per issue: "error [subject] node 12: ...".
    std::string to_string() const;

    /// Throw std::logic_error with to_string() when the report has errors;
    /// `context` prefixes the message. No-op otherwise.
    void throw_if_errors(const std::string& context) const;

private:
    std::vector<CheckIssue> issues_;
};

}  // namespace lily
