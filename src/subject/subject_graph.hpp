// The subject graph: the Boolean network re-expressed in base functions
// (2-input NAND and inverter), the "inchoate network" N_inchoate of the
// paper. Technology mapping covers this graph with library pattern graphs.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/network.hpp"
#include "util/csr.hpp"
#include "util/version.hpp"

namespace lily {

using SubjectId = std::uint32_t;
inline constexpr SubjectId kNullSubject = std::numeric_limits<SubjectId>::max();

enum class SubjectKind : std::uint8_t { Input, Inv, Nand2 };

struct SubjectNode {
    SubjectKind kind = SubjectKind::Input;
    SubjectId fanin0 = kNullSubject;
    SubjectId fanin1 = kNullSubject;  // Nand2 only
    std::vector<SubjectId> fanouts;
    /// Source-network node this subject node realizes (its root signal), or
    /// kNullNode for internal decomposition nodes.
    NodeId origin = kNullNode;
    // Names live in the graph's side-table (SubjectGraph::name_of): only
    // interface nodes carry one, so the millions of internal decomposition
    // nodes of a large subject graph do not each drag a std::string around.

    unsigned fanin_count() const {
        return kind == SubjectKind::Input ? 0 : (kind == SubjectKind::Inv ? 1 : 2);
    }
    SubjectId fanin(unsigned i) const { return i == 0 ? fanin0 : fanin1; }
};

struct SubjectOutput {
    std::string name;
    SubjectId driver = kNullSubject;
};

/// Frozen structure-of-arrays view of a SubjectGraph: kind/fanin0/fanin1 as
/// flat parallel arrays plus the fanout edges in CSR form. SubjectNode drags
/// a std::vector (the fanouts) through every cache line, so the pattern
/// matcher and the Lily DP — which walk millions of fanin/fanout edges per
/// flow — read this view instead. Stamped with the graph version it was
/// built from; SubjectGraph::topology() rebuilds lazily after mutation.
struct SubjectTopology {
    Version built_from = kNeverBuilt;
    std::vector<SubjectKind> kind;
    std::vector<SubjectId> fanin0;
    std::vector<SubjectId> fanin1;
    Csr<SubjectId> fanouts;

    std::size_t size() const { return kind.size(); }
    std::span<const SubjectId> fanouts_of(SubjectId v) const { return fanouts.neighbors(v); }
};

/// A combinational NAND2/INV DAG with structural hashing. Node ids are
/// topologically ordered by construction.
class SubjectGraph {
public:
    /// `cancel_inverter_pairs` folds INV(INV(x)) to x at construction time.
    /// Off by default: the paper-era (MIS-style) subject graphs retained
    /// inverter pairs, and the mappers' relative behaviour depends on it —
    /// see bench/ablation_subject_cleanup for the comparison.
    explicit SubjectGraph(std::string name = "subject", bool cancel_inverter_pairs = false)
        : name_(std::move(name)), cancel_inv_(cancel_inverter_pairs) {}

    const std::string& name() const { return name_; }

    SubjectId add_input(std::string input_name, NodeId origin);
    /// Structurally hashed: returns an existing node when one computes the
    /// same INV/NAND of the same fanins (NAND fanin order normalized); with
    /// cancel_inverter_pairs, add_inv of an Inv node returns its fanin.
    SubjectId add_inv(SubjectId a);
    SubjectId add_nand(SubjectId a, SubjectId b);
    void add_output(std::string po_name, SubjectId driver);

    /// Point primary output `index` at a different driver (ECO retarget),
    /// keeping the po-driver flags consistent.
    void retarget_output(std::size_t index, SubjectId driver);

    /// Record that subject node `s` realizes source node `origin`.
    void set_origin(SubjectId s, NodeId origin);

    /// Intern a name for `s` (interface nodes only — internal decomposition
    /// nodes stay anonymous and print as "s<id>").
    void set_name(SubjectId s, std::string name);
    /// Interned name, or the canonical anonymous name "s<id>".
    std::string name_of(SubjectId s) const;
    /// The interned (explicitly named) nodes, unordered.
    const std::unordered_map<SubjectId, std::string>& named_nodes() const { return names_; }

    std::size_t size() const { return nodes_.size(); }
    const SubjectNode& node(SubjectId id) const { return nodes_[id]; }
    std::span<const SubjectId> inputs() const { return inputs_; }
    std::span<const SubjectOutput> outputs() const { return outputs_; }

    /// Structure generation: bumped by every node allocation. Downstream
    /// artifacts (the frozen topology view, mapper caches) stamp themselves
    /// with it to detect staleness — the same discipline Network::version()
    /// uses for the ECO pipeline.
    Version version() const { return version_.value(); }

    /// The frozen flat-adjacency view, rebuilt lazily when the version
    /// moved. The warm path just compares stamps; cold builds are O(V + E).
    /// Not safe against a concurrent *first* build — freeze it from serial
    /// code before handing the graph to parallel kernels (every flow call
    /// site does: the mappers fetch it once at entry).
    const SubjectTopology& topology() const;

    std::size_t gate_count() const;  // Inv + Nand2 nodes
    std::size_t depth() const;
    bool is_multi_fanout(SubjectId id) const { return nodes_[id].fanouts.size() > 1; }
    bool drives_output(SubjectId id) const { return po_driver_[id]; }

    /// Convert back into a Network of NAND2/INV nodes (for equivalence
    /// checking against the source network).
    Network to_network() const;

    /// Structural invariants; throws std::logic_error on violation.
    void check() const;

private:
    SubjectId allocate(SubjectNode n);

    std::string name_;
    bool cancel_inv_ = false;
    std::vector<SubjectNode> nodes_;
    std::vector<SubjectId> inputs_;
    std::vector<SubjectOutput> outputs_;
    std::vector<bool> po_driver_;
    std::unordered_map<SubjectId, std::string> names_;
    VersionCounter version_;
    mutable std::shared_ptr<const SubjectTopology> topo_;  // stamped lazy cache
    // Structural hash: key packs (kind, fanin0, fanin1).
    struct Key {
        SubjectKind kind;
        SubjectId a;
        SubjectId b;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            std::size_t h = static_cast<std::size_t>(k.kind);
            h = h * 1000003u + k.a;
            h = h * 1000003u + k.b;
            return h;
        }
    };
    std::unordered_map<Key, SubjectId, KeyHash> strash_;
};

}  // namespace lily
