// Reference pattern enumerator (tests only); see pattern_oracle.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "library/expr.hpp"
#include "library/pattern.hpp"

namespace lily::oracle {

/// Same contract and output as lily::generate_patterns, by the original
/// exhaustive string-keyed enumeration.
std::vector<PatternGraph> oracle_generate_patterns(const ExprPtr& expr, unsigned n_vars,
                                                   std::size_t max_patterns = 64);

}  // namespace lily::oracle
