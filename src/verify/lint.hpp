// Static netlist lint: structural sanity passes that need no reference
// network. Where the checkers in src/check/ compare a transformed artifact
// against the stage before it, lint inspects ONE network for defects that
// are legal by construction rules but almost always a bug upstream:
//
//   error   combinational cycle (Tarjan SCC over fanin edges, including
//           self-loops — only reachable by mutating nodes in place), or a
//           fanin not earlier in id order (ids are a topological order)
//   error   primary output with a null, out-of-range or dead driver, or
//           whose driver lacks the is_po_driver flag
//   error   node reading a dead or out-of-range fanin, a primary input
//           with fanins, an SOP referencing a fanin slot the node lacks
//   error   fanin/fanout edge lists that disagree
//   error   empty node name, duplicate net name on two live nodes,
//           duplicate PO name (a multi-driver net in BLIF terms)
//   warning is_po_driver flag set on a node that drives no output
//   warning floating primary input (reaches no primary output)
//   warning dead cone (live logic node that reaches no primary output)
//   warning constant-mergeable logic (a node with fanins whose function
//           simplifies to constant 0/1 under AIG lowering)
//
// Findings come back as a CheckReport under CheckStage::Verify; callers
// (lily_lint --lint-netlist, tests) decide whether to warn or fail.
#pragma once

#include "check/check.hpp"
#include "netlist/network.hpp"

namespace lily {

CheckReport lint_network(const Network& net);

}  // namespace lily
