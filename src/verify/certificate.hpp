// Proving a mapping by its own certificate.
//
// The flow builds a mapped netlist in two local steps (paper §3). It
// decomposes every source node into NAND2/INV subject nodes
// (DecomposeResult::signal_of names the subject node computing each source
// node), then covers subject cones with library gates (GateInstance::driver
// is the subject node an instance realizes, GateInstance::inputs the
// subject nodes on its pins). Each step claims something about one node, so
// source ≡ mapped follows from local obligations checked in time linear in
// circuit size — no whole-circuit miter:
//
//   Interface  every source PI decomposes to a subject Input that the
//              mapped netlist binds under the PI's name; mapped outputs
//              match source POs by name, one to one.
//   Source     per live logic node v, in id (topological) order: every
//              fanin was proven before v; the subject cone of signal_of[v]
//              cut at the fanins' signals closes, and under that cut equals
//              v's SOP (fanins sharing a signal identified). Up to 16
//              distinct leaves by exact truth tables, wider nodes by a
//              local SAT miter over free leaves.
//   Gate       per instance, in netlist order: a valid gate id and pin
//              count; every pin reads a bound PI or the driver of an
//              earlier instance; no driver is driven twice; the driver's
//              cone cut at the pins closes and equals the gate function
//              under pin aliasing (ConeFunction).
//   Output     the mapped output named like source PO (n, d) is driven by
//              signal_of[d].
//
// Soundness is an induction over topological order. Source obligations
// show that signal_of[v] computes v's global function: its fanins' signals
// do (induction), and the cone over them computes v's SOP of them. Gate
// obligations show that each instance output computes its driver's global
// subject function: its pins carry their subject nodes' functions
// (induction; a PI is its subject Input), and the gate function over them
// equals the driver's cone over them. Outputs then compare equal functions.
//
// The trusted inputs are the subject graph's NAND/INV semantics, the source
// SOPs and the library truth tables; every mapper claim is re-checked. The
// answer is Proven or declined with a reason — never Refuted: a failed local
// obligation does not show the circuits differ (a cut may close only under
// correlations between its leaves), so the caller falls back to
// check_equivalence, which refutes with a replayed counterexample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "library/library.hpp"
#include "map/mapped_netlist.hpp"
#include "netlist/network.hpp"
#include "subject/decompose.hpp"

namespace lily {

struct CertificateStats {
    std::size_t interface_obligations = 0;  // PI and PO bindings discharged
    std::size_t source_obligations = 0;     // source nodes discharged
    std::size_t gate_obligations = 0;       // instances discharged
    std::size_t sat_calls = 0;              // local miters (wide source nodes)
    std::uint64_t conflicts = 0;            // summed over the local miters

    std::size_t obligations() const {
        return interface_obligations + source_obligations + gate_obligations;
    }
};

struct CertificateResult {
    bool proven = false;
    /// Why the certificate declined (the first failed obligation); empty
    /// when proven.
    std::string decline;
    /// Obligations discharged (all of them when proven; up to the decline
    /// otherwise).
    CertificateStats stats;
};

/// Check `mapped` against `source` through `sub`, the decomposition whose
/// subject graph `mapped` covers. `conflict_budget` bounds each local
/// miter (0 = unlimited); exhausting it declines.
CertificateResult check_certificate(const Network& source, const DecomposeResult& sub,
                                    const Library& lib, const MappedNetlist& mapped,
                                    std::uint64_t conflict_budget);

}  // namespace lily
