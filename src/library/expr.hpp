// Boolean expression trees for genlib gate equations. A genlib GATE line
// gives the gate function as a factored expression over its pins, e.g.
//   GATE aoi21 3.0 O=!(a*b+c); ...
// The parser accepts !, ' (postfix complement), *, juxtaposition-free AND,
// +, parentheses and the constants CONST0/CONST1.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/sop.hpp"
#include "util/status.hpp"

namespace lily {

enum class ExprKind : std::uint8_t { Var, Not, And, Or, Const0, Const1 };

/// Immutable expression node. And/Or are n-ary (children flattened).
struct Expr {
    ExprKind kind = ExprKind::Const0;
    unsigned var = 0;                               // for Var
    std::vector<std::shared_ptr<const Expr>> kids;  // for Not/And/Or

    static std::shared_ptr<const Expr> make_var(unsigned v);
    static std::shared_ptr<const Expr> make_const(bool value);
    static std::shared_ptr<const Expr> make_not(std::shared_ptr<const Expr> a);
    static std::shared_ptr<const Expr> make_and(std::vector<std::shared_ptr<const Expr>> kids);
    static std::shared_ptr<const Expr> make_or(std::vector<std::shared_ptr<const Expr>> kids);
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Result of parsing "OUT = expression".
struct ParsedEquation {
    std::string output;
    ExprPtr expr;
    std::vector<std::string> input_names;  // index == Expr var number
};

/// Parse a genlib equation right-hand side. Pin names are assigned variable
/// indices in order of first appearance. Returns StatusCode::ParseError
/// (with the offending offset in the message) on malformed input.
StatusOr<ParsedEquation> parse_equation_checked(std::string_view text);

/// Evaluate under an assignment bit vector (bit i = variable i).
bool eval_expr(const Expr& e, std::uint64_t assignment);

/// Exact truth table of the expression over n_vars variables.
TruthTable expr_truth_table(const Expr& e, unsigned n_vars);

/// Number of distinct variables (max index + 1; 0 for constant expressions).
unsigned expr_var_count(const Expr& e);

/// Human-readable rendering (for diagnostics and library dumps).
std::string expr_to_string(const Expr& e, std::span<const std::string> names);

}  // namespace lily
