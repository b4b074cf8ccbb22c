#include "netlist/blif.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/text.hpp"

namespace lily {

namespace {

struct NamesEntry {
    std::vector<std::string> signals;  // fanins..., output
    std::vector<std::string> cube_lines;
    std::size_t line_no = 0;
};

Status fail(std::size_t line, const std::string& msg) {
    return Status::parse_error(line, msg, "blif");
}

StatusOr<Sop> cubes_to_sop(const NamesEntry& e, std::size_t n_in) {
    Sop sop;
    int output_value = -1;  // all cube lines must agree (on-set or off-set)
    for (const std::string& line : e.cube_lines) {
        const auto toks = split_ws(line);
        std::string_view pattern;
        std::string_view out_tok;
        if (n_in == 0) {
            if (toks.size() != 1) {
                return fail(e.line_no, "constant table row must be a single 0/1");
            }
            pattern = "";
            out_tok = toks[0];
        } else {
            if (toks.size() != 2) return fail(e.line_no, "cube row must be <pattern> <output>");
            pattern = toks[0];
            out_tok = toks[1];
        }
        if (pattern.size() != n_in) return fail(e.line_no, "cube width does not match input count");
        if (out_tok != "0" && out_tok != "1") return fail(e.line_no, "cube output must be 0 or 1");
        const int v = out_tok == "1" ? 1 : 0;
        if (output_value == -1) output_value = v;
        if (output_value != v) return fail(e.line_no, "mixed on-set/off-set rows in one .names");

        Cube c;
        for (std::size_t i = 0; i < n_in; ++i) {
            switch (pattern[i]) {
                case '1':
                    c.care |= std::uint64_t{1} << i;
                    c.polarity |= std::uint64_t{1} << i;
                    break;
                case '0':
                    c.care |= std::uint64_t{1} << i;
                    break;
                case '-':
                    break;
                default:
                    return fail(e.line_no, "cube characters must be 0, 1 or -");
            }
        }
        sop.cubes.push_back(c);
    }
    if (output_value == 0) sop.complement = true;  // rows describe the off-set
    return sop;
}

}  // namespace

StatusOr<Network> read_blif_checked(std::string_view text) {
    // Pass 1: join continuations, strip comments, tokenize into logical lines.
    std::vector<std::pair<std::size_t, std::string>> lines;
    std::size_t last_line_no = 0;
    {
        std::string pending;
        std::size_t pending_start = 0;
        std::size_t line_no = 0;
        std::istringstream in{std::string(text)};
        std::string raw;
        while (std::getline(in, raw)) {
            ++line_no;
            if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
            std::string_view sv = trim(raw);
            bool continued = false;
            if (!sv.empty() && sv.back() == '\\') {
                continued = true;
                sv.remove_suffix(1);
                sv = trim(sv);
            }
            if (pending.empty()) pending_start = line_no;
            if (!sv.empty()) {
                if (!pending.empty()) pending += ' ';
                pending += sv;
            }
            if (!continued && !pending.empty()) {
                lines.emplace_back(pending_start, std::move(pending));
                pending.clear();
            }
        }
        if (!pending.empty()) lines.emplace_back(pending_start, std::move(pending));
        last_line_no = line_no;
    }

    std::string model_name = "top";
    std::vector<std::string> input_names;
    std::vector<std::pair<std::string, std::size_t>> output_names;  // name, line
    std::vector<NamesEntry> entries;
    bool ended = false;

    for (std::size_t li = 0; li < lines.size(); ++li) {
        const auto& [line_no, line] = lines[li];
        if (ended) return fail(line_no, "content after .end");
        const auto toks = split_ws(line);
        const std::string_view head = toks[0];
        if (head == ".model") {
            if (toks.size() >= 2) model_name = std::string(toks[1]);
        } else if (head == ".inputs") {
            for (std::size_t i = 1; i < toks.size(); ++i) input_names.emplace_back(toks[i]);
        } else if (head == ".outputs") {
            for (std::size_t i = 1; i < toks.size(); ++i) {
                output_names.emplace_back(std::string(toks[i]), line_no);
            }
        } else if (head == ".names") {
            if (toks.size() < 2) return fail(line_no, ".names needs at least an output signal");
            NamesEntry e;
            e.line_no = line_no;
            for (std::size_t i = 1; i < toks.size(); ++i) e.signals.emplace_back(toks[i]);
            // Consume following cube rows (lines not starting with '.').
            while (li + 1 < lines.size() && lines[li + 1].second[0] != '.') {
                e.cube_lines.push_back(lines[++li].second);
            }
            entries.push_back(std::move(e));
        } else if (head == ".end") {
            ended = true;
        } else if (head == ".latch" || head == ".mlatch") {
            // Sequential elements are outside the combinational scope; a
            // latch feeding itself is additionally self-referential, which
            // deserves its own message (it is a common symptom of a netlist
            // written for a different tool's .latch field order).
            if (toks.size() >= 3 && toks[1] == toks[2]) {
                return fail(line_no, "self-referential latch '" + std::string(toks[1]) +
                                         "' (input drives its own output)");
            }
            return fail(line_no,
                        std::string(head) + " is outside the combinational BLIF subset");
        } else if (head == ".subckt" || head == ".gate") {
            return fail(line_no,
                        std::string(head) + " is outside the combinational BLIF subset");
        } else if (head[0] == '.') {
            // Unknown directives (.default_input_arrival etc.) are ignored.
        } else {
            return fail(line_no, "table row outside a .names block");
        }
    }
    if (!ended) {
        return fail(last_line_no, "truncated input: missing .end");
    }

    Network net(model_name);
    for (const std::string& n : input_names) net.add_input(n);

    // Order .names entries so that fanins are defined before use.
    std::map<std::string, std::size_t> producer;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string& out = entries[i].signals.back();
        if (!producer.emplace(out, i).second) {
            return fail(entries[i].line_no,
                        "signal '" + out + "' defined twice (duplicate .names driver)");
        }
        if (net.find_node(out)) {
            return fail(entries[i].line_no, "signal '" + out + "' is an input");
        }
    }
    std::vector<int> state(entries.size(), 0);  // 0 new, 1 visiting, 2 done
    std::vector<std::size_t> order;
    // Iterative DFS for dependency order (recursion depth could be large).
    for (std::size_t root = 0; root < entries.size(); ++root) {
        if (state[root] == 2) continue;
        std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
        state[root] = 1;
        while (!stack.empty()) {
            auto& [e, next] = stack.back();
            const auto& sigs = entries[e].signals;
            bool descended = false;
            while (next + 1 < sigs.size()) {  // all but last are fanins
                const auto it = producer.find(sigs[next]);
                ++next;
                if (it == producer.end()) continue;  // PI or missing (checked later)
                if (state[it->second] == 1) return fail(entries[e].line_no, "combinational cycle");
                if (state[it->second] == 0) {
                    state[it->second] = 1;
                    stack.emplace_back(it->second, 0);
                    descended = true;
                    break;
                }
            }
            if (!descended && next + 1 >= sigs.size()) {
                state[e] = 2;
                order.push_back(e);
                stack.pop_back();
            }
        }
    }

    for (const std::size_t ei : order) {
        const NamesEntry& e = entries[ei];
        std::vector<NodeId> fanins;
        for (std::size_t i = 0; i + 1 < e.signals.size(); ++i) {
            const auto id = net.find_node(e.signals[i]);
            if (!id) return fail(e.line_no, "signal '" + e.signals[i] + "' is never defined");
            fanins.push_back(*id);
        }
        LILY_ASSIGN_OR_RETURN(Sop sop, cubes_to_sop(e, fanins.size()));
        net.add_node(e.signals.back(), std::move(fanins), std::move(sop));
    }

    for (const auto& [po, po_line] : output_names) {
        const auto id = net.find_node(po);
        if (!id) return fail(po_line, "output '" + po + "' is never defined");
        net.add_output(po, *id);
    }
    // check() enforces structural invariants that should hold for anything
    // the parser accepted; a failure here is an internal inconsistency, not
    // a syntax error.
    try {
        net.check();
    } catch (const std::exception& e) {
        return Status(StatusCode::InvariantViolation, std::string("blif: ") + e.what());
    }
    return net;
}

StatusOr<Network> read_blif_file_checked(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status(StatusCode::ParseError, "blif: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    StatusOr<Network> net = read_blif_checked(buf.str());
    if (!net.is_ok()) {
        Status bad = net.status();
        return bad.with_context(path);
    }
    return net;
}

Network read_blif_file(const std::string& path) {
    return read_blif_file_checked(path).take_or_raise();
}

std::string write_blif(const Network& net) {
    std::ostringstream out;
    out << ".model " << net.name() << "\n";
    out << ".inputs";
    for (NodeId pi : net.inputs()) out << ' ' << net.node(pi).name;
    out << "\n.outputs";
    for (const PrimaryOutput& po : net.outputs()) out << ' ' << po.name;
    out << "\n";

    for (NodeId id = 0; id < net.node_count(); ++id) {
        const Node& n = net.node(id);
        if (n.kind != NodeKind::Logic) continue;
        out << ".names";
        for (NodeId f : n.fanins) out << ' ' << net.node(f).name;
        out << ' ' << n.name << "\n";
        const char out_char = n.function.complement ? '0' : '1';
        if (n.function.cubes.empty()) {
            // Constant: OR of nothing is 0. On-set form of constant 1 is a
            // single "1" row; constant 0 is an empty table.
            if (n.function.complement) out << "1\n";
        } else {
            for (const Cube& c : n.function.cubes) {
                for (std::size_t i = 0; i < n.fanins.size(); ++i) {
                    if (!((c.care >> i) & 1)) {
                        out << '-';
                    } else {
                        out << (((c.polarity >> i) & 1) ? '1' : '0');
                    }
                }
                if (!n.fanins.empty()) out << ' ';
                out << out_char << "\n";
            }
        }
    }

    // POs whose name differs from their driver need an explicit buffer.
    for (const PrimaryOutput& po : net.outputs()) {
        if (net.node(po.driver).name != po.name) {
            out << ".names " << net.node(po.driver).name << ' ' << po.name << "\n1 1\n";
        }
    }
    out << ".end\n";
    return out.str();
}

void write_blif_file(const Network& net, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("blif: cannot open " + path + " for writing");
    out << write_blif(net);
}

}  // namespace lily
