#include "circuits/benchmarks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace lily {

namespace {

/// Balanced XOR tree over the signals.
NodeId xor_tree(Network& net, std::vector<NodeId> sigs) {
    while (sigs.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < sigs.size(); i += 2) {
            next.push_back(net.make_xor2(sigs[i], sigs[i + 1]));
        }
        if (sigs.size() % 2 == 1) next.push_back(sigs.back());
        sigs = std::move(next);
    }
    return sigs[0];
}

NodeId and_tree(Network& net, std::vector<NodeId> sigs) {
    while (sigs.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < sigs.size(); i += 2) {
            next.push_back(net.make_and2(sigs[i], sigs[i + 1]));
        }
        if (sigs.size() % 2 == 1) next.push_back(sigs.back());
        sigs = std::move(next);
    }
    return sigs[0];
}

NodeId or_tree(Network& net, std::vector<NodeId> sigs) {
    while (sigs.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < sigs.size(); i += 2) {
            next.push_back(net.make_or2(sigs[i], sigs[i + 1]));
        }
        if (sigs.size() % 2 == 1) next.push_back(sigs.back());
        sigs = std::move(next);
    }
    return sigs[0];
}

/// Full adder; returns {sum, carry}.
std::pair<NodeId, NodeId> full_add(Network& net, NodeId a, NodeId b, NodeId c) {
    const NodeId axb = net.make_xor2(a, b);
    const NodeId sum = net.make_xor2(axb, c);
    const NodeId carry = net.make_or2(net.make_and2(a, b), net.make_and2(axb, c));
    return {sum, carry};
}

/// Count of ones as a binary vector (LSB first) via a full-adder tree.
std::vector<NodeId> popcount_bits(Network& net, std::vector<NodeId> ones) {
    std::vector<std::vector<NodeId>> columns{std::move(ones)};
    std::size_t col = 0;
    while (col < columns.size()) {
        // Index access throughout: growing `columns` invalidates references.
        while (columns[col].size() >= 3) {
            const NodeId a = columns[col].back();
            columns[col].pop_back();
            const NodeId b = columns[col].back();
            columns[col].pop_back();
            const NodeId d = columns[col].back();
            columns[col].pop_back();
            const auto [s, carry] = full_add(net, a, b, d);
            columns[col].push_back(s);
            if (columns.size() <= col + 1) columns.emplace_back();
            columns[col + 1].push_back(carry);
        }
        if (columns[col].size() == 2) {
            const NodeId a = columns[col][0];
            const NodeId b = columns[col][1];
            columns[col].clear();
            columns[col].push_back(net.make_xor2(a, b));
            if (columns.size() <= col + 1) columns.emplace_back();
            columns[col + 1].push_back(net.make_and2(a, b));
        }
        ++col;
    }
    std::vector<NodeId> bits;
    for (auto& c : columns) bits.push_back(c[0]);
    return bits;
}

/// value-of-bits == constant comparator.
NodeId equals_const(Network& net, std::span<const NodeId> bits, unsigned value) {
    std::vector<NodeId> lits;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        lits.push_back(((value >> i) & 1) ? bits[i] : net.make_not(bits[i]));
    }
    return and_tree(net, std::move(lits));
}

unsigned scaled(unsigned value, double scale, unsigned lo) {
    return std::max(lo, static_cast<unsigned>(std::lround(value * scale)));
}

}  // namespace

Network make_symmetric9(unsigned lo, unsigned hi) {
    Network net("9symml");
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < 9; ++i) ins.push_back(net.add_input("x" + std::to_string(i)));
    const std::vector<NodeId> count = popcount_bits(net, ins);
    std::vector<NodeId> hits;
    for (unsigned v = lo; v <= hi; ++v) hits.push_back(equals_const(net, count, v));
    net.add_output("f", or_tree(net, std::move(hits)));
    net.sweep();
    return net;
}

Network make_priority_controller(unsigned channels) {
    Network net("c432p");
    std::vector<NodeId> req, mask;
    for (unsigned i = 0; i < channels; ++i) {
        req.push_back(net.add_input("req" + std::to_string(i)));
        mask.push_back(net.add_input("mask" + std::to_string(i)));
    }
    // Enabled request per channel; grant goes to the lowest-index enabled
    // request (priority chain).
    std::vector<NodeId> enabled(channels);
    for (unsigned i = 0; i < channels; ++i) enabled[i] = net.make_and2(req[i], mask[i]);
    std::vector<NodeId> grant(channels);
    NodeId none_above = kNullNode;
    for (unsigned i = 0; i < channels; ++i) {
        if (i == 0) {
            grant[i] = enabled[i];
            none_above = net.make_not(enabled[i]);
        } else {
            grant[i] = net.make_and2(enabled[i], none_above);
            none_above = net.make_and2(none_above, net.make_not(enabled[i]));
        }
        net.add_output("grant" + std::to_string(i), grant[i]);
    }
    // Encoded grant id: OR of grants whose index has bit b set.
    unsigned bits = 0;
    while ((1u << bits) < channels) ++bits;
    for (unsigned b = 0; b < bits; ++b) {
        std::vector<NodeId> parts;
        for (unsigned i = 0; i < channels; ++i) {
            if ((i >> b) & 1) parts.push_back(grant[i]);
        }
        if (!parts.empty()) net.add_output("id" + std::to_string(b), or_tree(net, parts));
    }
    net.add_output("any", net.make_not(none_above));
    net.sweep();
    return net;
}

Network make_ecc_checker(unsigned data_bits, bool dual) {
    Network net(dual ? "c1908e" : "c499e");
    const unsigned blocks = dual ? 2 : 1;
    const unsigned per_block = std::max(4u, data_bits / blocks);
    std::vector<NodeId> cross_parity;
    for (unsigned blk = 0; blk < blocks; ++blk) {
        const std::string suffix = blocks > 1 ? "_" + std::to_string(blk) : "";
        unsigned p = 0;
        while ((1u << p) < per_block + p + 1) ++p;  // Hamming parity count
        std::vector<NodeId> d, par;
        for (unsigned i = 0; i < per_block; ++i) {
            d.push_back(net.add_input("d" + std::to_string(i) + suffix));
        }
        for (unsigned i = 0; i < p; ++i) {
            par.push_back(net.add_input("p" + std::to_string(i) + suffix));
        }
        // Hamming positions: data bit i sits at the i-th non-power-of-two
        // codeword position.
        std::vector<unsigned> position(per_block);
        {
            unsigned pos = 1, placed = 0;
            while (placed < per_block) {
                if ((pos & (pos - 1)) != 0) position[placed++] = pos;
                ++pos;
            }
        }
        // Syndrome bit b: parity over data bits whose position has bit b,
        // xored with received parity b.
        std::vector<NodeId> syndrome(p);
        for (unsigned b = 0; b < p; ++b) {
            std::vector<NodeId> taps{par[b]};
            for (unsigned i = 0; i < per_block; ++i) {
                if ((position[i] >> b) & 1) taps.push_back(d[i]);
            }
            syndrome[b] = xor_tree(net, std::move(taps));
            net.add_output("syn" + std::to_string(b) + suffix, syndrome[b]);
        }
        // Corrected data: flip bit i when the syndrome equals its position.
        for (unsigned i = 0; i < per_block; ++i) {
            const NodeId hit = equals_const(net, syndrome, position[i]);
            net.add_output("c" + std::to_string(i) + suffix, net.make_xor2(d[i], hit));
        }
        cross_parity.push_back(xor_tree(net, d));
    }
    if (blocks > 1) net.add_output("xpar", xor_tree(net, std::move(cross_parity)));
    net.sweep();
    return net;
}

Network make_alu(unsigned width, bool with_status) {
    if (width == 0) throw std::invalid_argument("make_alu: width must be at least 1");
    Network net("alu" + std::to_string(width));
    std::vector<NodeId> a, b;
    for (unsigned i = 0; i < width; ++i) a.push_back(net.add_input("a" + std::to_string(i)));
    for (unsigned i = 0; i < width; ++i) b.push_back(net.add_input("b" + std::to_string(i)));
    const NodeId cin = net.add_input("cin");
    const NodeId op0 = net.add_input("op0");
    const NodeId op1 = net.add_input("op1");

    // Adder/subtractor lane: b xor op0 (subtract when op0), ripple carries.
    std::vector<NodeId> sum(width);
    NodeId carry = net.make_xor2(cin, op0);  // borrow-in for subtract
    NodeId msb_carry_in = carry;
    for (unsigned i = 0; i < width; ++i) {
        const NodeId bi = net.make_xor2(b[i], op0);
        msb_carry_in = carry;
        const auto [s, c] = full_add(net, a[i], bi, carry);
        sum[i] = s;
        carry = c;
    }
    // Logic lanes.
    std::vector<NodeId> lane_and(width), lane_or(width), lane_xor(width);
    for (unsigned i = 0; i < width; ++i) {
        lane_and[i] = net.make_and2(a[i], b[i]);
        lane_or[i] = net.make_or2(a[i], b[i]);
        lane_xor[i] = net.make_xor2(a[i], b[i]);
    }
    // Result select: op1 = 0 -> arithmetic (op0 = 0 add, 1 subtract, both
    // through the shared adder because op0 conditions b and the carry-in);
    // op1 = 1 -> logic (op0 = 0 AND, 1 OR). The XOR lane is exported as an
    // extra output bus, as real ALUs expose flags/derived buses.
    std::vector<NodeId> result(width);
    for (unsigned i = 0; i < width; ++i) {
        const NodeId logic = net.make_mux(op0, lane_and[i], lane_or[i]);
        result[i] = net.make_mux(op1, sum[i], logic);
        net.add_output("r" + std::to_string(i), result[i]);
        net.add_output("x" + std::to_string(i), lane_xor[i]);
    }
    net.add_output("cout", carry);
    if (with_status) {
        std::vector<NodeId> inv;
        for (const NodeId r : result) inv.push_back(net.make_not(r));
        net.add_output("zero", and_tree(net, inv));
        net.add_output("sign", result[width - 1]);
        net.add_output("ovf", net.make_xor2(carry, msb_carry_in));
        net.add_output("parity", xor_tree(net, result));
    }
    net.sweep();
    return net;
}

Network make_control_logic(unsigned n_pi, unsigned n_po, unsigned n_gates, std::uint64_t seed,
                           const std::string& name) {
    Rng rng(seed);
    Network net(name);
    std::vector<NodeId> pool;
    for (unsigned i = 0; i < n_pi; ++i) pool.push_back(net.add_input("pi" + std::to_string(i)));
    for (unsigned i = 0; i < n_gates; ++i) {
        // Locality bias: prefer recent signals, which yields reconvergent
        // clusters like real control logic.
        const auto pick = [&]() -> NodeId {
            const std::size_t window = std::min<std::size_t>(pool.size(), 24);
            if (rng.next_bool(0.7)) {
                return pool[pool.size() - 1 - rng.next_below(window)];
            }
            return pool[rng.next_below(pool.size())];
        };
        std::vector<NodeId> ins;
        const unsigned k = 2 + static_cast<unsigned>(rng.next_below(3));
        for (unsigned j = 0; j < k; ++j) ins.push_back(pick());
        std::sort(ins.begin(), ins.end());
        ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
        NodeId g;
        switch (rng.next_below(6)) {
            case 0: g = net.make_and(ins); break;
            case 1: g = net.make_or(ins); break;
            case 2: g = net.make_nand(ins); break;
            case 3: g = net.make_nor(ins); break;
            case 4: g = net.make_xor(ins); break;
            default:
                g = ins.size() >= 3 ? net.make_mux(ins[0], ins[1], ins[2])
                                    : net.make_xnor(ins);
                break;
        }
        pool.push_back(g);
    }
    for (unsigned i = 0; i < n_po; ++i) {
        net.add_output("po" + std::to_string(i), pool[pool.size() - 1 - (i % n_gates)]);
    }
    net.sweep();
    return net;
}

Network make_pla(unsigned n_pi, unsigned n_po, unsigned terms, std::uint64_t seed,
                 const std::string& name) {
    Rng rng(seed);
    Network net(name);
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < n_pi; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
    std::vector<std::vector<NodeId>> sinks(n_po);
    std::vector<NodeId> product(terms);
    for (unsigned t = 0; t < terms; ++t) {
        std::vector<NodeId> lits;
        for (unsigned i = 0; i < n_pi; ++i) {
            const double r = rng.next_double();
            if (r < 0.12) {
                lits.push_back(ins[i]);
            } else if (r < 0.24) {
                lits.push_back(net.make_not(ins[i]));
            }
        }
        if (lits.empty()) lits.push_back(ins[rng.next_below(n_pi)]);
        product[t] = and_tree(net, std::move(lits));
        // Each term drives 1..3 outputs.
        const unsigned drives = 1 + static_cast<unsigned>(rng.next_below(3));
        for (unsigned d = 0; d < drives; ++d) {
            sinks[rng.next_below(n_po)].push_back(product[t]);
        }
    }
    for (unsigned o = 0; o < n_po; ++o) {
        if (sinks[o].empty()) sinks[o].push_back(product[rng.next_below(terms)]);
        std::sort(sinks[o].begin(), sinks[o].end());
        sinks[o].erase(std::unique(sinks[o].begin(), sinks[o].end()), sinks[o].end());
        net.add_output("o" + std::to_string(o), or_tree(net, sinks[o]));
    }
    net.sweep();
    return net;
}

Network make_multiplier(unsigned width) {
    Network net("mult" + std::to_string(width));
    std::vector<NodeId> a, b;
    for (unsigned i = 0; i < width; ++i) a.push_back(net.add_input("a" + std::to_string(i)));
    for (unsigned i = 0; i < width; ++i) b.push_back(net.add_input("b" + std::to_string(i)));
    // Partial products into carry-save columns, then full-adder reduction
    // (the same popcount machinery, column-wise with weights).
    std::vector<std::vector<NodeId>> column(2 * width);
    for (unsigned i = 0; i < width; ++i) {
        for (unsigned j = 0; j < width; ++j) {
            column[i + j].push_back(net.make_and2(a[i], b[j]));
        }
    }
    for (std::size_t col = 0; col < column.size(); ++col) {
        while (column[col].size() >= 3) {
            const NodeId x = column[col].back();
            column[col].pop_back();
            const NodeId y = column[col].back();
            column[col].pop_back();
            const NodeId z = column[col].back();
            column[col].pop_back();
            const auto [s2, c2] = full_add(net, x, y, z);
            column[col].push_back(s2);
            if (col + 1 < column.size()) column[col + 1].push_back(c2);
        }
        if (column[col].size() == 2) {
            const NodeId x = column[col][0];
            const NodeId y = column[col][1];
            column[col].clear();
            column[col].push_back(net.make_xor2(x, y));
            if (col + 1 < column.size()) column[col + 1].push_back(net.make_and2(x, y));
        }
    }
    for (std::size_t col = 0; col < column.size(); ++col) {
        if (!column[col].empty()) {
            net.add_output("p" + std::to_string(col), column[col][0]);
        }
    }
    net.sweep();
    return net;
}

Network make_pla_flat(unsigned n_pi, unsigned n_po, unsigned terms, std::uint64_t seed,
                      const std::string& name) {
    if (n_pi > 64) throw std::invalid_argument("make_pla_flat: more than 64 inputs");
    // Identical term/output structure to make_pla (same RNG schedule), but
    // each output is a single SOP node over all primary inputs.
    Rng rng(seed);
    Network net(name);
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < n_pi; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
    struct Term {
        Cube cube;  // over the PI vector
    };
    std::vector<Term> term(terms);
    std::vector<std::vector<unsigned>> sinks(n_po);
    for (unsigned t = 0; t < terms; ++t) {
        Cube c;
        for (unsigned i = 0; i < n_pi; ++i) {
            const double r = rng.next_double();
            if (r < 0.12) {
                c.care |= std::uint64_t{1} << i;
                c.polarity |= std::uint64_t{1} << i;
            } else if (r < 0.24) {
                c.care |= std::uint64_t{1} << i;
            }
        }
        if (c.care == 0) {
            const unsigned i = static_cast<unsigned>(rng.next_below(n_pi));
            c.care |= std::uint64_t{1} << i;
            c.polarity |= std::uint64_t{1} << i;
        }
        term[t].cube = c;
        const unsigned drives = 1 + static_cast<unsigned>(rng.next_below(3));
        for (unsigned d2 = 0; d2 < drives; ++d2) {
            sinks[rng.next_below(n_po)].push_back(t);
        }
    }
    for (unsigned o = 0; o < n_po; ++o) {
        if (sinks[o].empty()) sinks[o].push_back(static_cast<unsigned>(rng.next_below(terms)));
        std::sort(sinks[o].begin(), sinks[o].end());
        sinks[o].erase(std::unique(sinks[o].begin(), sinks[o].end()), sinks[o].end());
        Sop sop;
        for (const unsigned t : sinks[o]) sop.cubes.push_back(term[t].cube);
        net.add_output("o" + std::to_string(o),
                       net.add_node("po_node" + std::to_string(o), ins, std::move(sop)));
    }
    net.sweep();
    return net;
}

std::vector<Benchmark> paper_suite(double scale) {
    std::vector<Benchmark> suite;
    suite.push_back({"9symml", make_symmetric9()});
    suite.push_back({"C1908", make_ecc_checker(scaled(32, scale, 8), true)});
    suite.push_back({"C3540", make_alu(scaled(16, scale, 4), true)});
    suite.push_back({"C432", make_priority_controller(scaled(27, scale, 8))});
    suite.push_back({"C499", make_ecc_checker(scaled(32, scale, 8), false)});
    suite.push_back({"C5315", make_alu(scaled(24, scale, 6), true)});
    suite.push_back({"C880", make_alu(scaled(8, scale, 4), false)});
    suite.push_back({"apex6", make_control_logic(scaled(60, scale, 12), scaled(40, scale, 6),
                                                 scaled(450, scale, 40), 0xA6, "apex6")});
    suite.push_back({"apex7", make_control_logic(scaled(49, scale, 10), scaled(37, scale, 5),
                                                 scaled(240, scale, 30), 0xA7, "apex7")});
    suite.push_back({"b9", make_control_logic(scaled(41, scale, 8), scaled(21, scale, 4),
                                              scaled(120, scale, 20), 0xB9, "b9")});
    suite.push_back({"apex3", make_pla(scaled(54, scale, 10), scaled(50, scale, 8),
                                       scaled(280, scale, 24), 0xA3, "apex3")});
    suite.push_back({"duke2", make_pla(scaled(22, scale, 8), scaled(29, scale, 6),
                                       scaled(87, scale, 12), 0xD2, "duke2")});
    suite.push_back({"e64", make_pla(scaled(65, scale, 10), scaled(65, scale, 8),
                                     scaled(65, scale, 10), 0xE6, "e64")});
    suite.push_back({"misex1", make_pla(8, 7, 12, 0x31, "misex1")});
    suite.push_back({"misex3", make_pla(scaled(14, scale, 8), scaled(14, scale, 6),
                                        scaled(150, scale, 16), 0x33, "misex3")});
    return suite;
}

std::vector<std::string> table2_names() {
    return {"9symml", "C1908", "C432", "C499", "C5315", "C880",
            "apex7",  "b9",    "duke2", "e64",  "misex1", "misex3"};
}

}  // namespace lily
