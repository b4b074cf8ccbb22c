// The result of technology mapping: a netlist of library gate instances
// plus the binding back to subject-graph nodes (needed by placement, wire
// estimation and timing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "library/library.hpp"
#include "match/matcher.hpp"
#include "netlist/network.hpp"
#include "subject/subject_graph.hpp"
#include "util/csr.hpp"
#include "util/version.hpp"

namespace lily {

/// One placed-able gate instance. `driver` is the subject node whose signal
/// the gate output realizes; `inputs` are the subject nodes feeding each
/// gate pin (each is either a subject Input or the `driver` of another
/// instance in the same netlist).
struct GateInstance {
    GateId gate = kNullGate;
    SubjectId driver = kNullSubject;
    std::vector<SubjectId> inputs;
    std::vector<SubjectId> absorbed;  // subject nodes merged into this gate
};

struct MappedOutput {
    std::string name;
    SubjectId driver = kNullSubject;  // gate instance driver or subject Input
};

/// A mapped netlist over a subject graph.
class MappedNetlist {
public:
    MappedNetlist() = default;

    std::vector<GateInstance> gates;   // topological order
    std::vector<MappedOutput> outputs;
    std::vector<SubjectId> subject_inputs;            // the PI interface
    std::vector<std::string> subject_input_names;

    std::size_t gate_count() const { return gates.size(); }
    double total_gate_area(const Library& lib) const;

    /// Index of the instance driving subject node `s`, or npos when `s` is a
    /// subject input (or undriven). Served from a lazily built sorted
    /// driver->instance index keyed to the netlist's version stamp (the old
    /// size-equality invalidation heuristic missed same-size rewrites).
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t instance_driving(SubjectId s) const;

    /// Structure generation. Any code that mutates `gates` (inserting,
    /// erasing, reordering, or changing a driver) must call bump_version()
    /// so instance_driving rebuilds its index instead of serving stale hits.
    Version version() const { return version_; }
    void bump_version() { ++version_; }

    /// Convert to a Network (gate instances become SOP nodes) so mapped
    /// results can be equivalence-checked against the source network and
    /// written to BLIF.
    Network to_network(const Library& lib, const std::string& name = "mapped") const;

    /// Structural sanity: inputs of every instance are subject inputs or
    /// driven by another instance; no signal is defined twice or by the null
    /// id; every output driver resolvable; gates in topological order.
    /// Throws std::logic_error on violation.
    void check(const Library& lib) const;

private:
    Version version_ = 1;
    mutable Version index_version_ = kNeverBuilt;  // version the index was built at
    mutable std::vector<std::pair<SubjectId, std::size_t>> driver_index_;  // lazy, sorted
    void build_index() const;
};

/// Dense numbering of the signals a netlist defines, for whole-netlist
/// passes: slot k < subject_inputs.size() is primary input k, and slot
/// subject_inputs.size() + i is instance i's output. An id defined twice
/// resolves to its lowest slot; an id nothing defines has no slot (npos):
/// it is undriven.
///
/// Ids resolve through the sorted definitions plus a bucket directory over
/// their range, with one bucket per definition at most: a lookup is O(1)
/// for ids spread like subject ids, and every table is sized from the
/// number of definitions, never from an id.
class SignalIndex {
public:
    explicit SignalIndex(const MappedNetlist& m);

    std::size_t slot_of(SubjectId s) const;
    std::size_t size() const { return ids_.size(); }
    std::size_t instance_slot(std::size_t instance) const { return n_inputs_ + instance; }

private:
    std::size_t n_inputs_ = 0;
    std::vector<SubjectId> ids_;        // defined ids, ascending
    std::vector<std::uint32_t> slots_;  // slot of each, lowest first among equal ids
    std::vector<std::uint32_t> first_;  // bucket -> first index into ids_
    SubjectId lo_ = 0;                  // smallest defined id
    unsigned shift_ = 0;                // bucket of id s: (s - lo_) >> shift_
};

/// Where every signal of a netlist goes, as CSR arrays over SignalIndex
/// slots. Sinks keep netlist order (instance, then pin) and outputs keep
/// their ordinal order, so passes that sum over them add in the same order
/// as a walk over the netlist would.
struct SignalFanout {
    static constexpr std::uint32_t kUndriven = static_cast<std::uint32_t>(-1);
    struct Sink {
        std::uint32_t instance = 0;
        std::uint32_t pin = 0;
    };

    explicit SignalFanout(const MappedNetlist& m);

    SignalIndex index;
    Csr<std::uint32_t> fanin;    // instance -> slot of each pin (kUndriven if none)
    Csr<Sink> sinks;             // slot -> pins it feeds
    Csr<std::uint32_t> outputs;  // slot -> ordinals of the outputs it drives
};

}  // namespace lily
