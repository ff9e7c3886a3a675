#include "maxsat/stratified.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fta::maxsat {

StratifiedPlan plan_strata(const ft::FaultTree& tree) {
  StratifiedPlan plan;
  const ft::Node& top = tree.node(tree.top());
  if (top.type == ft::NodeType::BasicEvent) return plan;

  // Duplicate children: harmless for AND/OR (idempotent), semantics-
  // changing for votes (VOT(2; a, a, b) fires on a alone).
  std::vector<ft::NodeIndex> children;
  for (const ft::NodeIndex c : top.children) {
    if (std::find(children.begin(), children.end(), c) != children.end()) {
      if (top.type == ft::NodeType::Vote) return plan;
      continue;
    }
    children.push_back(c);
  }

  std::vector<bool> module_gate(tree.num_nodes(), false);
  for (const analysis::ModuleInfo& m : analysis::find_modules(tree)) {
    module_gate[m.gate] = true;
  }

  std::vector<bool> claimed(tree.num_events(), false);
  for (const ft::NodeIndex c : children) {
    StratifiedStratum stratum;
    stratum.gate = c;
    const ft::Node& n = tree.node(c);
    if (n.type == ft::NodeType::BasicEvent) {
      stratum.trivial = true;
      stratum.event = n.event_index;
      if (claimed[n.event_index]) return plan;  // shared with a sibling
      claimed[n.event_index] = true;
    } else {
      if (!module_gate[c]) return plan;
      stratum.module = analysis::extract_module(tree, c);
      for (const ft::EventIndex e : stratum.module.event_map) {
        if (claimed[e]) return plan;  // siblings overlap (nested modules)
        claimed[e] = true;
      }
    }
    plan.strata.push_back(std::move(stratum));
  }
  if (plan.strata.empty()) return plan;

  plan.combine = top.type;
  switch (top.type) {
    case ft::NodeType::Or:
      plan.k = 1;
      break;
    case ft::NodeType::And:
      plan.k = static_cast<std::uint32_t>(plan.strata.size());
      break;
    case ft::NodeType::Vote:
      plan.k = top.k;
      if (plan.k > plan.strata.size()) return plan;  // degenerate model
      break;
    case ft::NodeType::BasicEvent:
      return plan;
  }
  plan.applicable = true;
  return plan;
}

namespace {

/// One event's Step 3 cost, with the pipeline's exact rounding.
ScaledCutCost event_cost(const ft::FaultTree& tree, ft::EventIndex e,
                         double weight_scale) {
  const double p = tree.event_probability(e);
  if (p <= 0.0) return {0, 1};
  return {static_cast<Weight>(std::llround(-std::log(p) * weight_scale)), 0};
}

/// Positions of the `k` cheapest entries of `costs` (all of them when k
/// >= costs.size()), ties going to the earlier position, in no particular
/// order. The one combine rule shared by recombine() and solve_tree():
/// OR takes the cheapest, AND all, k-of-n the k cheapest.
std::vector<std::size_t> cheapest(std::span<const ScaledCutCost> costs,
                                  std::size_t k) {
  std::vector<std::size_t> pos(costs.size());
  std::iota(pos.begin(), pos.end(), std::size_t{0});
  if (k >= pos.size()) return pos;
  // (cost, position) is a strict total order, so the selection is
  // deterministic and ties resolve to the earlier position.
  const auto before = [&](std::size_t a, std::size_t b) {
    if (costs[a] < costs[b]) return true;
    if (costs[b] < costs[a]) return false;
    return a < b;
  };
  std::nth_element(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(k),
                   pos.end(), before);
  pos.resize(k);
  return pos;
}

}  // namespace

ScaledCutCost scaled_cut_cost(const ft::FaultTree& tree,
                              std::span<const ft::EventIndex> events,
                              double weight_scale) {
  ScaledCutCost cost;
  for (const ft::EventIndex e : events) {
    cost = cost + event_cost(tree, e, weight_scale);
  }
  return cost;
}

Weight forbidden_weight(const ft::FaultTree& tree,
                        const StratifiedPlan& plan, double weight_scale) {
  Weight total = 0;
  for (const StratifiedStratum& s : plan.strata) {
    if (s.trivial) {
      total += event_cost(tree, s.event, weight_scale).ordinary;
    } else {
      for (const ft::EventIndex e : s.module.event_map) {
        total += event_cost(tree, e, weight_scale).ordinary;
      }
    }
  }
  return total + 1;
}

Recombined recombine(const StratifiedPlan& plan,
                     std::span<const StratumOutcome> outcomes) {
  Recombined out;
  std::vector<std::size_t> live;  // Optimal strata, candidates to fire.
  std::size_t unknown = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    switch (outcomes[i].status) {
      case MaxSatStatus::Optimal:
        live.push_back(i);
        break;
      case MaxSatStatus::Unsatisfiable:
        break;
      case MaxSatStatus::Unknown:
        ++unknown;
        break;
    }
  }

  // Fewer than k strata can possibly fire: unsatisfiable regardless of
  // how the undecided ones resolve (they only help if they CAN fire).
  if (live.size() + unknown < plan.k) {
    out.status = MaxSatStatus::Unsatisfiable;
    return out;
  }
  // An undecided stratum could either beat a chosen one (OR/vote) or kill
  // the conjunction (AND): no exact claim survives it.
  if (unknown > 0) {
    out.status = MaxSatStatus::Unknown;
    return out;
  }

  // Choose the k cheapest strata (all of them for AND, the argmin for
  // OR); ties resolve to the earlier stratum, deterministically.
  std::vector<ScaledCutCost> costs;
  costs.reserve(live.size());
  for (const std::size_t i : live) costs.push_back(outcomes[i].cost);
  std::vector<ft::EventIndex> events;
  for (const std::size_t j : cheapest(costs, plan.k)) {
    const StratumOutcome& o = outcomes[live[j]];
    events.insert(events.end(), o.cut.events().begin(), o.cut.events().end());
    out.cost = out.cost + o.cost;
  }
  out.cut = ft::CutSet(std::move(events));
  out.status = MaxSatStatus::Optimal;
  return out;
}

std::optional<TreeOptimum> solve_tree(const ft::FaultTree& tree,
                                      double weight_scale) {
  // Breadth-first from the top; meeting a node a second time means a
  // second parent (or a duplicated child): not a tree. Parents precede
  // their children in `order`, so walking it backwards costs every child
  // before its parent.
  std::vector<ft::NodeIndex> order{tree.top()};
  std::vector<bool> seen(tree.num_nodes(), false);
  seen[tree.top()] = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const ft::NodeIndex c : tree.node(order[i]).children) {
      if (seen[c]) return std::nullopt;
      seen[c] = true;
      order.push_back(c);
    }
  }

  // The children each gate fires, per the combine rule. Shared by both
  // passes so the cut collected top-down is exactly the one costed
  // bottom-up.
  std::vector<ScaledCutCost> cost(tree.num_nodes());
  std::vector<ScaledCutCost> child_costs;
  const auto chosen = [&](const ft::Node& gate) {
    child_costs.clear();
    for (const ft::NodeIndex c : gate.children) {
      child_costs.push_back(cost[c]);
    }
    std::size_t k = gate.children.size();  // AND
    if (gate.type == ft::NodeType::Or) k = 1;
    if (gate.type == ft::NodeType::Vote) k = gate.k;
    return cheapest(child_costs, k);
  };

  Weight reachable_ordinary = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const ft::Node& n = tree.node(*it);
    if (n.type == ft::NodeType::BasicEvent) {
      cost[*it] = event_cost(tree, n.event_index, weight_scale);
      reachable_ordinary += cost[*it].ordinary;
      continue;
    }
    ScaledCutCost sum;
    for (const std::size_t j : chosen(n)) sum = sum + cost[n.children[j]];
    cost[*it] = sum;
  }

  TreeOptimum out;
  const ScaledCutCost& top = cost[tree.top()];
  out.scaled_cost = top.ordinary + top.impossible * (reachable_ordinary + 1);
  std::vector<ft::EventIndex> events;
  std::vector<ft::NodeIndex> stack{tree.top()};
  while (!stack.empty()) {
    const ft::Node& n = tree.node(stack.back());
    stack.pop_back();
    if (n.type == ft::NodeType::BasicEvent) {
      events.push_back(n.event_index);
      continue;
    }
    for (const std::size_t j : chosen(n)) stack.push_back(n.children[j]);
  }
  out.cut = ft::CutSet(std::move(events));
  return out;
}

}  // namespace fta::maxsat
