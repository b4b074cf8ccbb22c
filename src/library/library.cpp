#include "library/library.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fault.hpp"
#include "util/text.hpp"

namespace lily {

double Gate::typical_input_load() const {
    if (pins.empty()) return 0.0;
    double sum = 0.0;
    for (const PinTiming& p : pins) sum += p.input_load;
    return sum / static_cast<double>(pins.size());
}

std::optional<GateId> Library::find(std::string_view gate_name) const {
    for (GateId i = 0; i < gates_.size(); ++i) {
        if (gates_[i].name == gate_name) return i;
    }
    return std::nullopt;
}

unsigned Library::max_gate_inputs() const {
    unsigned m = 0;
    for (const Gate& g : gates_) m = std::max(m, g.n_inputs());
    return m;
}

StatusOr<GateId> Library::add_gate_checked(std::string name, double area,
                                           const std::string& equation,
                                           std::vector<PinTiming> pin_specs,
                                           std::size_t max_patterns) {
    LILY_ASSIGN_OR_RETURN(ParsedEquation eq, parse_equation_checked(equation));
    Gate g;
    g.name = std::move(name);
    g.area = area;
    g.output_name = eq.output;
    g.expression = eq.expr;
    g.input_names = std::move(eq.input_names);
    const unsigned n = g.n_inputs();
    if (n > 10) {
        // Unsupported (not ParseError): the statement is well-formed, the
        // gate is just beyond the matcher's limits. Callers may skip it and
        // keep loading the library.
        return Status(StatusCode::Unsupported, "library: gate '" + g.name + "' has " +
                                                   std::to_string(n) +
                                                   " inputs (limit 10); gate skipped");
    }

    // Resolve PIN lines: a single "*" pin expands to all inputs; otherwise
    // every input pin must be described.
    if (pin_specs.size() == 1 && pin_specs[0].name == "*") {
        g.pins.assign(n, pin_specs[0]);
        for (unsigned i = 0; i < n; ++i) g.pins[i].name = g.input_names[i];
    } else {
        g.pins.resize(n);
        std::vector<bool> seen(n, false);
        for (PinTiming& spec : pin_specs) {
            bool matched = false;
            for (unsigned i = 0; i < n; ++i) {
                if (g.input_names[i] == spec.name) {
                    g.pins[i] = spec;
                    seen[i] = true;
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                return Status(StatusCode::ParseError, "library: gate '" + g.name +
                                                          "' has PIN '" + spec.name +
                                                          "' not in its equation");
            }
        }
        for (unsigned i = 0; i < n; ++i) {
            if (!seen[i]) {
                return Status(StatusCode::ParseError, "library: gate '" + g.name +
                                                          "' missing PIN for '" +
                                                          g.input_names[i] + "'");
            }
        }
    }

    g.function = expr_truth_table(*g.expression, n);
    try {
        g.patterns = generate_patterns(g.expression, n, max_patterns);
    } catch (const std::invalid_argument& e) {
        // Pattern enumeration refuses blocks wider than 12 children; like
        // the >10-input guard this leaves the gate unusable but harmless.
        return Status(StatusCode::Unsupported,
                      "library: gate '" + g.name + "': " + e.what() + "; gate skipped");
    }

    // Track the canonical base gates by function.
    const GateId id = static_cast<GateId>(gates_.size());
    if (n == 1 && g.function == expr_truth_table(*Expr::make_not(Expr::make_var(0)), 1)) {
        if (inverter_ == kNullGate || g.area < gates_[inverter_].area) inverter_ = id;
    }
    if (n == 2) {
        const auto nand_tt = ~(TruthTable::variable(0, 2) & TruthTable::variable(1, 2));
        if (g.function == nand_tt) {
            if (nand2_ == kNullGate || g.area < gates_[nand2_].area) nand2_ = id;
        }
    }
    gates_.push_back(std::move(g));
    return id;
}

void Library::validate() const {
    if (inverter_ == kNullGate) throw std::logic_error("library: no inverter gate");
    if (nand2_ == kNullGate) throw std::logic_error("library: no 2-input NAND gate");
    for (const Gate& g : gates_) {
        if (g.pins.size() != g.n_inputs()) {
            throw std::logic_error("library: pin/input mismatch in " + g.name);
        }
        if (g.patterns.empty()) {
            throw std::logic_error("library: gate " + g.name + " has no patterns");
        }
        for (const PatternGraph& p : g.patterns) {
            if (p.truth_table() != g.function) {
                throw std::logic_error("library: pattern function mismatch in " + g.name);
            }
        }
    }
}

namespace {

StatusOr<PinPhase> parse_phase(std::string_view tok, std::size_t line_no) {
    if (tok == "INV") return PinPhase::Inv;
    if (tok == "NONINV") return PinPhase::NonInv;
    if (tok == "UNKNOWN") return PinPhase::Unknown;
    return Status::parse_error(line_no, "bad pin phase '" + std::string(tok) + "'", "genlib");
}

/// parse_double throws std::invalid_argument; fold into the Status channel.
StatusOr<double> parse_field(std::string_view tok, std::string_view what,
                             std::size_t line_no) {
    try {
        return parse_double(tok, what);
    } catch (const std::invalid_argument& e) {
        return Status::parse_error(line_no, e.what(), "genlib");
    }
}

}  // namespace

StatusOr<Library> read_genlib_checked(std::string_view text, std::string library_name) {
    Library lib(std::move(library_name));

    // Tokenize into statements: GATE ... ; followed by PIN lines until the
    // next GATE. Comments (#) run to end of line.
    struct RawGate {
        std::string name;
        double area = 0.0;
        std::string equation;
        std::vector<PinTiming> pins;
        std::size_t line_no = 0;
    };
    std::vector<RawGate> raw;

    std::istringstream in{std::string(text)};
    std::string line;
    std::size_t line_no = 0;
    std::string pending_equation;  // GATE statements may span lines until ';'
    std::ptrdiff_t current = -1;  // index into raw (pointers would dangle on growth)

    while (std::getline(in, line)) {
        ++line_no;
        if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
        std::string_view sv = trim(line);
        if (sv.empty()) continue;

        if (!pending_equation.empty()) {
            pending_equation += ' ';
            pending_equation += sv;
            if (const auto semi = pending_equation.find(';'); semi != std::string::npos) {
                raw.back().equation = pending_equation.substr(0, semi);
                pending_equation.clear();
                current = static_cast<std::ptrdiff_t>(raw.size()) - 1;
            }
            continue;
        }

        const auto toks = split_ws(sv);
        if (toks[0] == "GATE") {
            if (toks.size() < 4) {
                return Status::parse_error(line_no, "GATE needs name, area, equation", "genlib");
            }
            RawGate g;
            g.name = std::string(toks[1]);
            LILY_ASSIGN_OR_RETURN(g.area, parse_field(toks[2], "GATE area", line_no));
            g.line_no = line_no;
            // Everything after the area token is the equation (may continue
            // on later lines until ';').
            std::string rest;
            {
                // Reconstruct the tail of the line after the third token.
                std::size_t seen = 0;
                std::size_t pos = 0;
                const std::string s(sv);
                while (seen < 3 && pos < s.size()) {
                    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
                    while (pos < s.size() && !std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
                    ++seen;
                }
                rest = s.substr(pos);
            }
            raw.push_back(std::move(g));
            if (const auto semi = rest.find(';'); semi != std::string::npos) {
                raw.back().equation = std::string(trim(rest.substr(0, semi)));
                current = static_cast<std::ptrdiff_t>(raw.size()) - 1;
            } else {
                pending_equation = std::string(trim(rest));
                if (pending_equation.empty()) pending_equation = " ";
                current = -1;
            }
        } else if (toks[0] == "PIN") {
            if (current < 0) {
                return Status::parse_error(line_no, "PIN outside a GATE", "genlib");
            }
            if (toks.size() != 9) {
                return Status::parse_error(line_no, "PIN needs 8 fields", "genlib");
            }
            PinTiming p;
            p.name = std::string(toks[1]);
            LILY_ASSIGN_OR_RETURN(p.phase, parse_phase(toks[2], line_no));
            LILY_ASSIGN_OR_RETURN(p.input_load, parse_field(toks[3], "PIN input-load", line_no));
            LILY_ASSIGN_OR_RETURN(p.max_load, parse_field(toks[4], "PIN max-load", line_no));
            LILY_ASSIGN_OR_RETURN(p.rise_block, parse_field(toks[5], "PIN rise-block", line_no));
            LILY_ASSIGN_OR_RETURN(p.rise_fanout,
                                  parse_field(toks[6], "PIN rise-fanout", line_no));
            LILY_ASSIGN_OR_RETURN(p.fall_block, parse_field(toks[7], "PIN fall-block", line_no));
            LILY_ASSIGN_OR_RETURN(p.fall_fanout,
                                  parse_field(toks[8], "PIN fall-fanout", line_no));
            raw[static_cast<std::size_t>(current)].pins.push_back(std::move(p));
        } else {
            return Status::parse_error(
                line_no, "expected GATE or PIN, got '" + std::string(toks[0]) + "'", "genlib");
        }
    }
    if (!pending_equation.empty()) {
        return Status(StatusCode::ParseError,
                      "genlib: unterminated GATE equation (missing ';')");
    }

    // Deterministic fault hook: behave as if the widest gate tripped the
    // fanin guard, exercising the skip-with-diagnostic path end to end.
    std::ptrdiff_t injected_skip = -1;
    if (fault_enabled("parser") && !raw.empty()) {
        std::size_t widest = 0;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            if (raw[i].pins.size() > raw[widest].pins.size()) widest = i;
        }
        injected_skip = static_cast<std::ptrdiff_t>(widest);
    }

    for (std::size_t i = 0; i < raw.size(); ++i) {
        RawGate& g = raw[i];
        if (static_cast<std::ptrdiff_t>(i) == injected_skip) {
            lib.note_skipped(g.name, g.line_no,
                             "injected fault parser:skip-gate (treated as over-fanin)");
            continue;
        }
        const std::string gate_name = g.name;  // add_gate_checked consumes g.name
        StatusOr<GateId> added =
            lib.add_gate_checked(std::move(g.name), g.area, g.equation, std::move(g.pins));
        if (added.is_ok()) continue;
        if (added.status().code() == StatusCode::Unsupported) {
            // Over-fanin gate: unusable, but the rest of the library is
            // fine. Skip it with a diagnostic instead of aborting the load.
            lib.note_skipped(gate_name, g.line_no, added.status().message());
            continue;
        }
        Status bad = added.status();
        return bad.with_context("genlib:" + std::to_string(g.line_no));
    }
    return lib;
}

StatusOr<Library> read_genlib_file_checked(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status(StatusCode::ParseError, "genlib: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return read_genlib_checked(buf.str(), path);
}

Library read_genlib_file(const std::string& path) {
    return read_genlib_file_checked(path).take_or_raise();
}

}  // namespace lily
