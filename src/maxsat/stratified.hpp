// Structure-aware stratified MaxSAT for repeated-subsystem trees.
//
// The monolithic formulation is weakest exactly where real safety models
// are most regular: on "ladders" (an OR of many equal 2-of-3 subsystems)
// every unsat core spans all subsystems and the equal-weight core
// explosion makes the instance ~50x slower than an equal-size DAG
// (ROADMAP "Ladder-shaped optimization hardness"). Modularisation is the
// classical fix (Kromodimoeljo & Lindsay): a *module* — a gate whose
// descendant events occur nowhere else — can be analysed on its own and
// recombined exactly.
//
// This layer plans that decomposition. When every child of the top gate
// is either a basic event or a module, and the children's event supports
// are pairwise disjoint, the tree splits into independent *strata*, one
// per child, and the global MPMCS recombines from per-stratum optima:
//
//   * OR top      — MPMCS(t) = argmin over strata of the stratum's
//     optimal scaled cost (a minimal cut of a stratum is minimal for the
//     whole tree: no other stratum shares its events).
//   * AND top     — MPMCS(t) = union of every stratum's optimum; the
//     scaled costs add (the product of independent maxima maximises the
//     product).
//   * k-of-n top  — MPMCS(t) = union of the optima of the k cheapest
//     strata: all probabilities are <= 1, so any larger or costlier
//     selection multiplies in additional factors <= the chosen ones.
//
// Exactness against the monolithic formulation: both optimise the same
// scaled-integer objective (Step 3's per-event weights are recomputed
// here with the identical rounding), and the stratum families partition
// the tree's MCS family by construction — every MCS of the tree restricts
// to a choice of at least-k fired strata with a minimal cut in each.
// tests/property_sweep_test.cpp enforces equality of optima and top-k
// cost sequences against the monolithic members, BDD and brute force.
//
// The per-stratum artefacts (instances, preprocessing, incremental SAT
// sessions) are owned by core::PreparedInstance, which attaches one
// recursively-prepared sub-artefact per non-trivial stratum; this header
// only knows the plan shape and the recombination arithmetic.
//
// On a shared-free tree every gate is a module, so the same arithmetic
// applied at every gate is the whole solve: solve_tree() below, the
// default path's answer for such trees (no instance, no SAT call).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/modules.hpp"
#include "ft/cut_set.hpp"
#include "ft/fault_tree.hpp"
#include "maxsat/solver.hpp"

namespace fta::core {
struct PreparedInstance;
}  // namespace fta::core

namespace fta::maxsat {

/// One independent child of the top gate. Trivial strata are single basic
/// events (solved closed-form); the rest carry the extracted module
/// subtree and, once prepare() ran, its own recursively-built
/// core::PreparedInstance (instance + Step 3.5 artefact + SAT session).
struct StratifiedStratum {
  ft::NodeIndex gate = ft::kNoIndex;  ///< Child node in the original tree.
  bool trivial = false;
  ft::EventIndex event = 0;  ///< Trivial only: the original event index.
  analysis::ExtractedModule module;  ///< Non-trivial only.
  /// Filled by MpmcsPipeline::prepare (never by plan_strata); shared_ptr
  /// keeps PreparedInstance an incomplete type here.
  std::shared_ptr<const core::PreparedInstance> prepared;
};

struct StratifiedPlan {
  bool applicable = false;
  ft::NodeType combine = ft::NodeType::Or;  ///< Top gate type.
  /// Strata that must fire: 1 for OR, strata.size() for AND, the gate's
  /// threshold for k-of-n.
  std::uint32_t k = 1;
  std::vector<StratifiedStratum> strata;
};

/// Detects whether `tree` decomposes at its top gate: every (deduplicated)
/// child must be a basic event or a module, with pairwise disjoint event
/// supports. Vote tops additionally reject duplicated children (dropping
/// a duplicate would change the threshold semantics). The returned plan
/// has empty `prepared` slots — preparation is the pipeline's job.
StratifiedPlan plan_strata(const ft::FaultTree& tree);

/// Scaled-integer cost of a cut under the pipeline's Step 3 weighting,
/// recomputed with the identical per-event rounding
/// (llround(-log p * weight_scale)). p == 0 members are tallied apart:
/// the monolithic instance charges them a per-instance "forbidden"
/// weight strictly above every ordinary combination, so ordering by
/// (impossible, ordinary) reproduces the monolithic preference without
/// needing that instance-specific constant.
struct ScaledCutCost {
  Weight ordinary = 0;
  std::uint32_t impossible = 0;

  friend bool operator<(const ScaledCutCost& a,
                        const ScaledCutCost& b) noexcept {
    if (a.impossible != b.impossible) return a.impossible < b.impossible;
    return a.ordinary < b.ordinary;
  }
  friend ScaledCutCost operator+(const ScaledCutCost& a,
                                 const ScaledCutCost& b) noexcept {
    return {a.ordinary + b.ordinary, a.impossible + b.impossible};
  }
};

ScaledCutCost scaled_cut_cost(const ft::FaultTree& tree,
                              std::span<const ft::EventIndex> events,
                              double weight_scale);

/// The monolithic instance's "forbidden" weight for this tree: one more
/// than the summed ordinary weights over every event under the top gate
/// (the strata partition exactly the events the whole-tree instance
/// marks used). Lets the stratified paths report the same scaled_cost as
/// the monolithic formulation when a cut unavoidably contains p == 0
/// members.
Weight forbidden_weight(const ft::FaultTree& tree, const StratifiedPlan& plan,
                        double weight_scale);

/// Per-stratum solve result, already mapped to the original tree's event
/// indices (the module's event_map applied).
struct StratumOutcome {
  MaxSatStatus status = MaxSatStatus::Unknown;
  ft::CutSet cut;
  ScaledCutCost cost;
};

struct Recombined {
  MaxSatStatus status = MaxSatStatus::Unknown;
  ft::CutSet cut;  ///< Union over the chosen strata (Optimal only).
  ScaledCutCost cost;
};

/// Recombines per-stratum optima into the global optimum per the rules
/// above. Conservative on partial information: a stratum the solver could
/// not decide yields Unknown unless the combine rule already forces
/// Unsatisfiable (an AND with a dead stratum, a vote with fewer than k
/// live strata).
Recombined recombine(const StratifiedPlan& plan,
                     std::span<const StratumOutcome> outcomes);

/// The exact optimum of a shared-free tree, found without a solver.
struct TreeOptimum {
  ft::CutSet cut;  ///< A maximum-probability minimal cut set.
  /// Its cost in the monolithic instance's scaled-integer space:
  /// ordinary + impossible x (1 + summed ordinary weights of the events
  /// reachable from the top), the instance's "forbidden" weight.
  Weight scaled_cost = 0;
};

/// Closed-form MPMCS when every node reachable from the top has at most
/// one parent (a child listed twice by one gate counts as two parents);
/// nullopt otherwise. On such a tree every gate is a module, so the
/// recombination rule above applies at every gate, not only the top:
/// one bottom-up pass ranks each gate's children by ScaledCutCost (ties
/// by child order) and one top-down pass collects the chosen events. The
/// cut is minimal by construction (disjoint children, a minimal cut in
/// each chosen one) and its cost equals the monolithic optimum.
/// Iterative in both directions, so depth costs no stack; O(n log n)
/// worst case for n reachable nodes.
std::optional<TreeOptimum> solve_tree(const ft::FaultTree& tree,
                                      double weight_scale);

}  // namespace fta::maxsat
