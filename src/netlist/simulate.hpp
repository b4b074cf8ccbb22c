// 64-way parallel random simulation of Boolean networks. This is the
// equivalence-checking workhorse: every structural transformation in the
// flow (decomposition, mapping, duplication) is validated by simulating the
// before/after networks on the same random vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/network.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace lily {

/// One simulation block: for each node, a 64-bit word whose bit k is the
/// node's value under input pattern k.
std::vector<std::uint64_t> simulate_block(const Network& net,
                                          std::span<const std::uint64_t> input_words);

/// Simulate `blocks` random 64-pattern blocks and return the PO words,
/// one vector of size outputs().size() per block, flattened
/// (block-major). Deterministic for a given seed.
std::vector<std::uint64_t> simulate_random(const Network& net, std::size_t blocks,
                                           std::uint64_t seed);

/// Compare two networks with identical PI/PO interfaces (matched by name,
/// via align_interfaces) on `blocks` random 64-pattern blocks. Returns
/// false when some PO word disagrees; a PI/PO name-set mismatch is not a
/// miscompare but a caller bug and comes back as an error Status
/// (InvariantViolation) instead of a silent `false`.
StatusOr<bool> equivalent_random_checked(const Network& a, const Network& b,
                                         std::size_t blocks, std::uint64_t seed);

/// Throwing wrapper: true iff equivalent on every sampled vector. A PI/PO
/// interface mismatch raises std::logic_error (it historically returned
/// false, which let interface bugs masquerade as miscompares). Kept
/// because perfbench/ calls it.
bool equivalent_random(const Network& a, const Network& b, std::size_t blocks,
                       std::uint64_t seed);

}  // namespace lily
