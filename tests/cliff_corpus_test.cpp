// The cliff corpus: input shapes that once made the default solve path
// super-linear, each of which must now come back Optimal, with no
// deadline, inside one fixed wall-clock budget.
//
// The shapes are shared-free, so the default path answers them in closed
// form (maxsat::solve_tree): every redundant-ladder class at 200
// subsystems (the monolithic portfolio's equal-weight core cliff), AND/OR
// chains 10k and 100k deep (recursion depth), and 5000-event OR-, AND-
// and vote-heavy random trees. The whole test, generation, solves and
// checks together, must finish inside kBudgetSeconds: 0.3 s in a Release
// build and 2.4-3.0 s in an ASan+UBSan Debug build on a 4-core x86 VM,
// most of it spent generating the corpus. It is a correctness bound, not
// a tuning knob: a regression that blows it is a defect to fix, never a
// number to raise.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ft/cut_set.hpp"
#include "gen/generator.hpp"
#include "test_helpers.hpp"
#include "util/timer.hpp"

namespace fta {
namespace {

/// Wall-clock budget for the whole test.
constexpr double kBudgetSeconds = 6.0;

struct CliffCase {
  std::string label;
  ft::FaultTree tree;
};

std::vector<CliffCase> cliff_corpus() {
  std::vector<CliffCase> out;
  std::uint64_t seed = 0xC11F;
  for (gen::LadderOptions lo : test::ladder_classes()) {
    lo.subsystems = 200;
    out.push_back({"ladder " + std::string(ft::node_type_name(lo.combine)) +
                       " " + std::to_string(lo.k) + "of" +
                       std::to_string(lo.members) +
                       (lo.nested ? " nested" : ""),
                   gen::ladder_tree(lo, seed++)});
  }
  for (const std::uint32_t depth : {10000u, 100000u}) {
    out.push_back({"chain " + std::to_string(depth),
                   gen::chain_tree(depth, seed++)});
  }
  struct Shape {
    const char* name;
    double and_fraction, vote_fraction;
  };
  for (const Shape& s : {Shape{"or", 0.15, 0.0}, Shape{"and", 0.7, 0.0},
                         Shape{"vote", 0.4, 0.3}}) {
    gen::GeneratorOptions g;
    g.num_events = 5000;
    g.and_fraction = s.and_fraction;
    g.vote_fraction = s.vote_fraction;
    out.push_back({std::string(s.name) + "-5000",
                   gen::random_tree(g, seed++)});
  }
  return out;
}

/// The gate's firing threshold: one child for OR, all for AND, k for
/// k-of-n.
std::size_t threshold(const ft::Node& gate) {
  if (gate.type == ft::NodeType::Or) return 1;
  if (gate.type == ft::NodeType::Vote) return gate.k;
  return gate.children.size();
}

/// True iff `cut` fires the top of the shared-free `tree` and dropping any
/// one of its events stops it. In a tree an event reaches the top along
/// one path only, so it is needed iff every gate on that path fires with
/// no child to spare. Linear, so it keeps the 100k-deep chain cheap where
/// ft::is_minimal_cut_set builds the whole formula; it relies on children
/// preceding their gates in node order, as the generators add them.
bool is_minimal_tree_cut(const ft::FaultTree& tree, const ft::CutSet& cut) {
  std::vector<bool> in_cut(tree.num_events(), false);
  for (const ft::EventIndex e : cut.events()) in_cut[e] = true;
  std::vector<std::size_t> firing(tree.num_nodes(), 0);
  std::vector<bool> fires(tree.num_nodes(), false);
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const ft::Node& n = tree.node(i);
    if (n.type == ft::NodeType::BasicEvent) {
      fires[i] = in_cut[n.event_index];
      continue;
    }
    for (const ft::NodeIndex c : n.children) {
      if (c >= i) return false;  // not in generator order
      firing[i] += fires[c] ? 1 : 0;
    }
    fires[i] = firing[i] >= threshold(n);
  }
  if (!fires[tree.top()]) return false;
  std::vector<bool> needed(tree.num_nodes(), false);
  needed[tree.top()] = true;
  for (ft::NodeIndex i = tree.num_nodes(); i-- > 0;) {
    const ft::Node& n = tree.node(i);
    if (!needed[i] || n.type == ft::NodeType::BasicEvent) continue;
    if (firing[i] != threshold(n)) continue;  // a child to spare
    for (const ft::NodeIndex c : n.children) {
      if (fires[c]) needed[c] = true;
    }
  }
  for (const ft::EventIndex e : cut.events()) {
    if (!needed[tree.event_node(e)]) return false;
  }
  return true;
}

TEST(CliffCorpus, DefaultPathSolvesEveryShapeWithinTheBudget) {
  util::Timer whole;
  const core::MpmcsPipeline pipeline;
  std::size_t solved = 0;
  for (const CliffCase& c : cliff_corpus()) {
    const core::MpmcsSolution sol = pipeline.solve(c.tree);
    ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal) << c.label;
    EXPECT_EQ(sol.lineage, "tree") << c.label;
    EXPECT_TRUE(is_minimal_tree_cut(c.tree, sol.cut)) << c.label;
    ++solved;
  }
  EXPECT_EQ(solved, 18u + 2u + 3u);
  EXPECT_LT(whole.seconds(), kBudgetSeconds);
}

TEST(CliffCorpus, TheMinimalityCheckRejectsBrokenCuts) {
  // OR(AND(a, b), 2-of-(c, d, e)) in generator order.
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.1);
  const auto b = t.add_basic_event("b", 0.1);
  const auto c = t.add_basic_event("c", 0.1);
  const auto d = t.add_basic_event("d", 0.1);
  const auto e = t.add_basic_event("e", 0.1);
  const auto both = t.add_gate("AB", ft::NodeType::And, {a, b});
  const auto vote = t.add_vote_gate("CDE", 2, {c, d, e});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {both, vote}));
  EXPECT_TRUE(is_minimal_tree_cut(t, ft::CutSet({0, 1})));
  EXPECT_TRUE(is_minimal_tree_cut(t, ft::CutSet({2, 4})));
  EXPECT_FALSE(is_minimal_tree_cut(t, ft::CutSet({0})));        // no cut
  EXPECT_FALSE(is_minimal_tree_cut(t, ft::CutSet({2, 3, 4})));  // spare
  EXPECT_FALSE(is_minimal_tree_cut(t, ft::CutSet({0, 1, 2})));  // extra
  EXPECT_FALSE(is_minimal_tree_cut(t, ft::CutSet({0, 1, 2, 3})));
}

}  // namespace
}  // namespace fta
