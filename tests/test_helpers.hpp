// Shared helpers for the test suites: random CNF generation, brute-force
// SAT/MaxSAT oracles, random fault-formula construction, and the
// redundant-ladder shape classes.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "logic/cnf.hpp"
#include "logic/formula.hpp"
#include "util/rng.hpp"

namespace fta::test {

/// Uniform random k-CNF over `num_vars` variables.
inline logic::Cnf random_cnf(util::Rng& rng, std::uint32_t num_vars,
                             std::size_t num_clauses, std::size_t clause_len) {
  logic::Cnf cnf(num_vars);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    logic::Clause clause;
    for (std::size_t j = 0; j < clause_len; ++j) {
      const auto v = static_cast<logic::Var>(rng.below(num_vars));
      clause.push_back(logic::Lit::make(v, rng.chance(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

/// Exhaustive SAT oracle: returns a model if one exists.
inline std::optional<std::vector<bool>> brute_force_sat(
    const logic::Cnf& cnf) {
  const std::uint32_t n = cnf.num_vars();
  std::vector<bool> assignment(n, false);
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = (mask >> v) & 1;
    if (cnf.eval(assignment)) return assignment;
  }
  return std::nullopt;
}

/// Random monotone formula (fault-tree shaped) over `num_vars` variables.
/// Returns the root; each variable is used at least once.
inline logic::NodeId random_monotone_formula(util::Rng& rng,
                                             logic::FormulaStore& store,
                                             std::uint32_t num_vars,
                                             bool allow_vote = true) {
  std::vector<logic::NodeId> pool;
  pool.reserve(num_vars);
  for (logic::Var v = 0; v < num_vars; ++v) pool.push_back(store.var(v));
  while (pool.size() > 1) {
    // Pick 2-4 operands and combine them with a random gate.
    const std::size_t arity =
        std::min<std::size_t>(pool.size(), 2 + rng.below(3));
    std::vector<logic::NodeId> operands;
    for (std::size_t i = 0; i < arity; ++i) {
      const std::size_t idx = rng.below(pool.size());
      operands.push_back(pool[idx]);
      pool[idx] = pool.back();
      pool.pop_back();
    }
    logic::NodeId combined;
    const std::uint64_t pick = rng.below(allow_vote && arity >= 3 ? 3 : 2);
    if (pick == 0) {
      combined = store.land(operands);
    } else if (pick == 1) {
      combined = store.lor(operands);
    } else {
      const auto k = static_cast<std::uint32_t>(2 + rng.below(arity - 1));
      combined = store.at_least(k, operands);
    }
    pool.push_back(combined);
  }
  return pool[0];
}

/// The 18 redundant-ladder shape classes: top OR / AND / 2-of-n vote x
/// member vote 2-of-3 / 2-of-4 / 3-of-5 x flat / nested members. The
/// caller sets `subsystems`.
inline std::vector<gen::LadderOptions> ladder_classes() {
  std::vector<gen::LadderOptions> out;
  for (const bool nested : {false, true}) {
    for (const auto& [k, n] : {std::pair{2u, 3u}, std::pair{2u, 4u},
                               std::pair{3u, 5u}}) {
      for (const ft::NodeType top :
           {ft::NodeType::Or, ft::NodeType::And, ft::NodeType::Vote}) {
        gen::LadderOptions lo;
        lo.members = n;
        lo.k = k;
        lo.combine = top;
        lo.combine_k = 2;
        lo.nested = nested;
        out.push_back(lo);
      }
    }
  }
  return out;
}

}  // namespace fta::test
