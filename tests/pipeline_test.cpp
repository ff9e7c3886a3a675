#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "maxsat/brute_force.hpp"
#include "maxsat/stratified.hpp"
#include "mocus/mocus.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta::core {
namespace {

using maxsat::MaxSatStatus;

TEST(Pipeline, PaperHeadlineResult) {
  // §II: "the MPMCS is {x1, x2} with a joint probability of 0.02."
  const ft::FaultTree t = ft::fire_protection_system();
  for (const auto choice :
       {SolverChoice::Portfolio, SolverChoice::Oll, SolverChoice::FuMalik,
        SolverChoice::Lsu, SolverChoice::BruteForce}) {
    PipelineOptions opts;
    opts.solver = choice;
    const MpmcsPipeline pipeline(opts);
    const MpmcsSolution sol = pipeline.solve(t);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << solver_choice_name(choice);
    EXPECT_EQ(sol.cut, ft::CutSet({0, 1})) << solver_choice_name(choice);
    EXPECT_NEAR(sol.probability, 0.02, 1e-12) << solver_choice_name(choice);
    EXPECT_NEAR(sol.log_cost, -std::log(0.02), 1e-9);
  }
}

TEST(Pipeline, Table1LogWeights) {
  // Table I of the paper: w_i = -log p(x_i).
  const ft::FaultTree t = ft::fire_protection_system();
  const auto w = MpmcsPipeline::log_weights(t);
  const double expected[] = {1.60944, 2.30259, 6.90776, 6.21461,
                             2.99573, 2.30259, 2.99573};
  ASSERT_EQ(w.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(w[i], expected[i], 5e-6) << "x" << i + 1;
  }
}

TEST(Pipeline, SolutionIsAlwaysMinimalCut) {
  const MpmcsPipeline pipeline;
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 14;
    opts.vote_fraction = 0.2;
    opts.sharing = 0.25;
    const auto tree = gen::random_tree(opts, seed);
    const auto sol = pipeline.solve(tree);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << "seed " << seed;
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut)) << "seed " << seed;
    EXPECT_NEAR(sol.probability, sol.cut.probability(tree), 1e-15);
  }
}

TEST(Pipeline, AgreesWithBddAndMocusBaselines) {
  // The central cross-validation: the MaxSAT pipeline, the BDD/ZBDD
  // argmax and exhaustive MOCUS scoring must report the same maximum
  // probability (sets may differ under exact ties).
  const MpmcsPipeline pipeline;
  for (std::uint64_t seed = 600; seed < 625; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 12;
    opts.vote_fraction = 0.15;
    opts.sharing = 0.2;
    const auto tree = gen::random_tree(opts, seed);

    const auto sat_sol = pipeline.solve(tree);
    ASSERT_EQ(sat_sol.status, MaxSatStatus::Optimal) << "seed " << seed;

    bdd::FaultTreeBdd analysis(tree);
    const auto bdd_sol = analysis.mpmcs();
    ASSERT_TRUE(bdd_sol.has_value()) << "seed " << seed;

    const auto mocus_sol = mocus::mpmcs_exhaustive(tree);
    ASSERT_TRUE(mocus_sol.has_value()) << "seed " << seed;

    // Probabilities agree across all three methods (weight scaling can
    // perturb the argmax only below ~1e-5 relative).
    EXPECT_NEAR(sat_sol.probability, bdd_sol->second,
                1e-5 * bdd_sol->second + 1e-15)
        << "seed " << seed;
    EXPECT_NEAR(bdd_sol->second, mocus_sol->second, 1e-12) << "seed " << seed;
  }
}

TEST(Pipeline, HandlesProbabilityOneEvents) {
  // p = 1 events have weight 0; the shrink pass must still return a
  // genuinely minimal cut.
  ft::FaultTree t;
  const auto a = t.add_basic_event("always", 1.0);
  const auto b = t.add_basic_event("b", 0.3);
  const auto c = t.add_basic_event("c", 0.2);
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {a, b});
  const auto g2 = t.add_gate("G2", ft::NodeType::And, {b, c});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {g1, g2}));
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  // MCSs: {always, b} with p=0.3, {b, c} with p=0.06.
  EXPECT_EQ(sol.cut, ft::CutSet({0, 1}));
  EXPECT_NEAR(sol.probability, 0.3, 1e-12);
  EXPECT_TRUE(ft::is_minimal_cut_set(t, sol.cut));
}

TEST(Pipeline, HandlesProbabilityZeroEvents) {
  // p = 0 events are avoided unless structurally unavoidable.
  ft::FaultTree t;
  const auto never = t.add_basic_event("never", 0.0);
  const auto b = t.add_basic_event("b", 0.5);
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {never, b});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {g1, b}));
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({1}));
  EXPECT_NEAR(sol.probability, 0.5, 1e-12);
}

TEST(Pipeline, UnavoidableZeroProbabilityEvent) {
  ft::FaultTree t;
  t.add_basic_event("never", 0.0);
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {0}));
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({0}));
  EXPECT_EQ(sol.probability, 0.0);
  EXPECT_TRUE(std::isinf(sol.log_cost));
}

TEST(Pipeline, TopKOnPaperExample) {
  const ft::FaultTree t = ft::fire_protection_system();
  const MpmcsPipeline pipeline;
  const auto ranked = pipeline.top_k(t, 10);
  // Exactly the 5 MCSs, in descending probability order:
  // {x1,x2}=0.02, {x5,x6}=0.005, {x5,x7}=0.0025, {x4}=0.002, {x3}=0.001.
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0].cut, ft::CutSet({0, 1}));
  EXPECT_NEAR(ranked[0].probability, 0.02, 1e-12);
  EXPECT_EQ(ranked[1].cut, ft::CutSet({4, 5}));
  EXPECT_NEAR(ranked[1].probability, 0.005, 1e-12);
  EXPECT_EQ(ranked[2].cut, ft::CutSet({4, 6}));
  EXPECT_NEAR(ranked[2].probability, 0.0025, 1e-12);
  EXPECT_EQ(ranked[3].cut, ft::CutSet({3}));
  EXPECT_NEAR(ranked[3].probability, 0.002, 1e-12);
  EXPECT_EQ(ranked[4].cut, ft::CutSet({2}));
  EXPECT_NEAR(ranked[4].probability, 0.001, 1e-12);
}

TEST(Pipeline, TopKMatchesBddRanking) {
  const MpmcsPipeline pipeline;
  for (std::uint64_t seed = 700; seed < 710; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 10;
    const auto tree = gen::random_tree(opts, seed);

    bdd::FaultTreeBdd analysis(tree);
    auto all = analysis.minimal_cut_sets();
    std::vector<double> probs;
    for (const auto& cs : all) probs.push_back(cs.probability(tree));
    std::sort(probs.rbegin(), probs.rend());

    const std::size_t k = std::min<std::size_t>(5, all.size());
    const auto ranked = pipeline.top_k(tree, k);
    ASSERT_EQ(ranked.size(), k) << "seed " << seed;
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(ranked[i].probability, probs[i], 1e-5 * probs[i] + 1e-15)
          << "seed " << seed << " rank " << i;
      // Descending order.
      if (i > 0) {
        EXPECT_LE(ranked[i].probability,
                  ranked[i - 1].probability * (1 + 1e-9));
      }
    }
  }
}

TEST(Pipeline, TopKExhaustsAllCuts) {
  // Asking for more cuts than exist returns exactly the full family.
  ft::FaultTree t;
  t.add_basic_event("a", 0.5);
  t.add_basic_event("b", 0.4);
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {0, 1}));
  const MpmcsPipeline pipeline;
  const auto ranked = pipeline.top_k(t, 100);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].cut, ft::CutSet({0}));
  EXPECT_EQ(ranked[1].cut, ft::CutSet({1}));
}

TEST(Pipeline, BuildInstanceShape) {
  const ft::FaultTree t = ft::fire_protection_system();
  const MpmcsPipeline pipeline;
  const auto inst = pipeline.build_instance(t);
  // One soft clause per event (all probabilities in (0,1)).
  EXPECT_EQ(inst.soft().size(), 7u);
  // All softs are unit negative literals on the event variables.
  for (const auto& s : inst.soft()) {
    ASSERT_EQ(s.lits.size(), 1u);
    EXPECT_TRUE(s.lits[0].negated());
    EXPECT_LT(s.lits[0].var(), 7u);
    EXPECT_GT(s.weight, 0u);
  }
  // Scaled Table-I weights: w1 = round(1e6 * 1.60944) etc.
  EXPECT_EQ(inst.soft()[0].weight, 1609438u);
  EXPECT_EQ(inst.soft()[1].weight, 2302585u);
}

TEST(Pipeline, WeightScaleOptionChangesResolution) {
  const ft::FaultTree t = ft::fire_protection_system();
  PipelineOptions coarse;
  coarse.weight_scale = 10;
  const auto inst = MpmcsPipeline(coarse).build_instance(t);
  EXPECT_EQ(inst.soft()[0].weight, 16u);  // round(10 * 1.60944)
}

TEST(Pipeline, JsonOutputContainsSolution) {
  const ft::FaultTree t = ft::fire_protection_system();
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  const std::string json = MpmcsPipeline::to_json(t, sol);
  EXPECT_NE(json.find("\"mpmcs\""), std::string::npos);
  EXPECT_NE(json.find("\"x1\""), std::string::npos);
  EXPECT_NE(json.find("\"probability\": 0.02"), std::string::npos);
}

TEST(Pipeline, PolarityAwareTseitinGivesSameAnswer) {
  PipelineOptions opts;
  opts.polarity_aware_tseitin = true;
  const MpmcsPipeline pg(opts);
  const MpmcsPipeline full;
  for (std::uint64_t seed = 800; seed < 810; ++seed) {
    gen::GeneratorOptions gopts;
    gopts.num_events = 12;
    const auto tree = gen::random_tree(gopts, seed);
    const auto a = pg.solve(tree);
    const auto b = full.solve(tree);
    ASSERT_EQ(a.status, MaxSatStatus::Optimal);
    ASSERT_EQ(b.status, MaxSatStatus::Optimal);
    EXPECT_EQ(a.scaled_cost, b.scaled_cost) << "seed " << seed;
  }
}

TEST(Pipeline, ChainAndLadderFamilies) {
  const MpmcsPipeline pipeline;
  const auto chain = gen::chain_tree(60, 3);
  const auto chain_sol = pipeline.solve(chain);
  ASSERT_EQ(chain_sol.status, MaxSatStatus::Optimal);
  EXPECT_TRUE(ft::is_minimal_cut_set(chain, chain_sol.cut));

  const auto ladder = gen::ladder_tree(10, 4);
  const auto ladder_sol = pipeline.solve(ladder);
  ASSERT_EQ(ladder_sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(ladder_sol.cut.size(), 2u);  // a 2-of-3 pair
  EXPECT_TRUE(ft::is_minimal_cut_set(ladder, ladder_sol.cut));

  // Cross-check the ladder against the BDD argmax.
  bdd::FaultTreeBdd analysis(ladder);
  EXPECT_NEAR(ladder_sol.probability, analysis.mpmcs()->second,
              1e-5 * ladder_sol.probability);
}

TEST(Pipeline, MediumTreeUnderASecond) {
  // The §IV scalability claim in miniature (full sweep in bench/).
  gen::GeneratorOptions opts;
  opts.num_events = 1000;
  const auto tree = gen::random_tree(opts, 99);
  PipelineOptions popts;
  popts.solver = SolverChoice::Oll;
  const MpmcsPipeline pipeline(popts);
  const auto sol = pipeline.solve(tree);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
  EXPECT_LT(sol.total_seconds, 5.0);
}

// --- the closed form on shared-free trees --------------------------------

struct ClosedFormCase {
  ft::FaultTree tree;
  /// The MaxSAT reference: OLL, except on ladders. On most vote-topped
  /// and many nested 3-of-5 ladders OLL's equal-weight core fragmentation
  /// (a known soft spot) leaves it undecided even at three subsystems;
  /// there the stratified strategy, OLL per module, is the reference.
  /// It shares its top-gate combine rule with the closed form, so every
  /// case is also checked against knapsack_optimum(), which does not.
  SolverChoice reference = SolverChoice::Oll;
};

/// Seeded shared-free trees of every shape the closed form claims:
/// random OR/AND/vote trees (a few tiny enough for brute force), chains,
/// and every ladder class at four sizes.
std::vector<ClosedFormCase> shared_free_corpus() {
  std::vector<ClosedFormCase> out;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    gen::GeneratorOptions g;
    g.num_events = static_cast<std::uint32_t>(
        seed % 4 == 0 ? 3 + seed % 5 : 8 + seed % 53);
    g.and_fraction = 0.1 + 0.2 * static_cast<double>(seed % 4);
    g.vote_fraction = seed % 3 == 0 ? 0.0 : 0.3;
    g.max_children = static_cast<std::uint32_t>(3 + seed % 3);
    out.push_back({gen::random_tree(g, 0xC105ED + seed)});
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    out.push_back({gen::chain_tree(1 + 15 * i, 0xC4A1 + i)});
  }
  std::uint64_t seed = 0x1add;
  for (gen::LadderOptions lo : test::ladder_classes()) {
    for (const std::uint32_t subsystems : {2u, 3u, 6u, 12u}) {
      lo.subsystems = subsystems;
      out.push_back({gen::ladder_tree(lo, seed++), SolverChoice::Stratified});
    }
  }
  return out;
}

/// Gives some events p = 1 and some p = 0 (configured, or disabled), and
/// adds events no gate reaches.
void add_edge_cases(ft::FaultTree& tree, std::uint64_t seed) {
  util::Rng rng(seed);
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    const std::uint64_t roll = rng.below(20);
    if (roll == 0) tree.set_event_probability(e, 1.0);
    if (roll == 1) tree.set_event_probability(e, 0.0);
    if (roll == 2) tree.set_event_enabled(e, false);
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    tree.add_basic_event("unreachable" + std::to_string(i), 0.5);
  }
  tree.validate();
}

/// A cut's cost as the monolithic instance ranks it: first the number of
/// p = 0 members, then the summed -log p of the others.
struct LexCost {
  std::size_t impossible = 0;
  double ordinary = 0.0;
  bool operator<(const LexCost& o) const {
    return impossible != o.impossible ? impossible < o.impossible
                                      : ordinary < o.ordinary;
  }
  LexCost operator+(const LexCost& o) const {
    return {impossible + o.impossible, ordinary + o.ordinary};
  }
};

LexCost event_lex_cost(const ft::FaultTree& tree, ft::EventIndex e) {
  const double p = tree.event_probability(e);
  return p <= 0.0 ? LexCost{1, 0.0} : LexCost{0, -std::log(p)};
}

/// The cheapest cut below `node` on a shared-free tree, computed without
/// maxsat::solve_tree's ranking: each gate runs a knapsack over its
/// children (the best cost of exactly j of the first i), taking j = 1
/// for OR, all for AND and k for k-of-n, in unrounded doubles.
LexCost knapsack_optimum(const ft::FaultTree& tree, ft::NodeIndex node) {
  const ft::Node& n = tree.node(node);
  if (n.type == ft::NodeType::BasicEvent) {
    return event_lex_cost(tree, n.event_index);
  }
  std::size_t k = n.children.size();
  if (n.type == ft::NodeType::Or) k = 1;
  if (n.type == ft::NodeType::Vote) k = n.k;
  std::vector<std::optional<LexCost>> best(k + 1);
  best[0] = LexCost{};
  for (const ft::NodeIndex c : n.children) {
    const LexCost child = knapsack_optimum(tree, c);
    for (std::size_t j = k; j >= 1; --j) {
      if (!best[j - 1]) continue;
      const LexCost with = *best[j - 1] + child;
      if (!best[j] || with < *best[j]) best[j] = with;
    }
  }
  return *best[k];
}

TEST(ClosedForm, MatchesMaxSatAndOraclesOnSharedFreeTrees) {
  const MpmcsPipeline defaults;
  std::vector<ClosedFormCase> corpus = shared_free_corpus();
  ASSERT_GE(corpus.size(), 200u);
  std::size_t oll_checked = 0, bdd_checked = 0, brute_checked = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ft::FaultTree& tree = corpus[i].tree;
    add_edge_cases(tree, 0xED6E + i);
    const std::string label = "tree " + std::to_string(i);

    const MpmcsSolution sol = defaults.solve(tree);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << label;
    EXPECT_EQ(sol.solver_name, "closed-form") << label;
    EXPECT_EQ(sol.lineage, "tree") << label;
    EXPECT_EQ(sol.sat_decisions + sol.sat_propagations + sol.sat_conflicts,
              0u)
        << label;
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut)) << label;
    EXPECT_EQ(sol.probability, sol.cut.probability(tree)) << label;

    // Every case, ladders too large for the BDD or brute force included:
    // the knapsack optimum, up to the weights' rounding (at most 0.5 /
    // weight_scale per event of either cut).
    const LexCost want = knapsack_optimum(tree, tree.top());
    LexCost got;
    for (const ft::EventIndex e : sol.cut.events()) {
      got = got + event_lex_cost(tree, e);
    }
    EXPECT_EQ(got.impossible, want.impossible) << label;
    EXPECT_NEAR(got.ordinary, want.ordinary,
                1e-6 * static_cast<double>(tree.num_events()) +
                    1e-12 * want.ordinary)
        << label;

    // The service path: the same answer over the prepared artefact,
    // which the answer describes.
    const MpmcsSolution prepared =
        defaults.solve_prepared(tree, defaults.prepare(tree));
    EXPECT_EQ(prepared.lineage, "tree") << label;
    EXPECT_EQ(prepared.scaled_cost, sol.scaled_cost) << label;
    EXPECT_EQ(prepared.cut, sol.cut) << label;
    EXPECT_GT(prepared.cnf_vars, 0u) << label;

    PipelineOptions ref_opts;
    ref_opts.solver = corpus[i].reference;
    const MpmcsPipeline ref(ref_opts);
    const MpmcsSolution reference = ref.solve(tree);
    ASSERT_EQ(reference.status, MaxSatStatus::Optimal) << label;
    EXPECT_EQ(sol.scaled_cost, reference.scaled_cost) << label;
    if (ref_opts.solver == SolverChoice::Oll) ++oll_checked;

    if (tree.num_events() <= 40) {
      bdd::FaultTreeBdd analysis(tree);
      const auto best = analysis.mpmcs();
      ASSERT_TRUE(best.has_value()) << label;
      EXPECT_NEAR(sol.probability, best->second,
                  1e-5 * best->second + 1e-300)
          << label;
      ++bdd_checked;
    }
    const maxsat::MaxSatResult brute =
        maxsat::BruteForceSolver(16).solve(ref.build_instance(tree));
    if (brute.status == MaxSatStatus::Optimal) {
      EXPECT_EQ(sol.scaled_cost, brute.cost) << label;
      ++brute_checked;
    }
  }
  EXPECT_GE(oll_checked, 140u);
  EXPECT_GE(bdd_checked, 50u);
  EXPECT_GE(brute_checked, 10u);
}

TEST(ClosedForm, ChargesUnavoidableImpossibleEventsTheForbiddenWeight) {
  // AND(a, never): the only cut holds a p = 0 event, costed as the
  // monolithic instance costs it, one more than the reachable ordinary
  // weights; the unreachable event adds nothing.
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.5);
  const auto never = t.add_basic_event("never", 0.0);
  t.add_basic_event("loose", 0.25);
  t.set_top(t.add_gate("TOP", ft::NodeType::And, {a, never}));
  const auto opt = maxsat::solve_tree(t, 1e6);
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(opt->cut, ft::CutSet({0, 1}));
  const maxsat::Weight wa = std::llround(-std::log(0.5) * 1e6);
  EXPECT_EQ(opt->scaled_cost, wa + (wa + 1));
  PipelineOptions oll_opts;
  oll_opts.solver = SolverChoice::Oll;
  EXPECT_EQ(MpmcsPipeline(oll_opts).solve(t).scaled_cost, opt->scaled_cost);
}

TEST(ClosedForm, TiesGoToTheEarlierChild) {
  // Equal costs leave the choice to child order, so the answer is
  // deterministic: OR(b, a) picks b, 2-of-(c, d, e) picks c and d.
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.5);
  const auto b = t.add_basic_event("b", 0.5);
  const auto c = t.add_basic_event("c", 0.1);
  const auto d = t.add_basic_event("d", 0.1);
  const auto e = t.add_basic_event("e", 0.1);
  const auto or_gate = t.add_gate("OR", ft::NodeType::Or, {b, a});
  const auto vote = t.add_vote_gate("VOTE", 2, {c, d, e});
  t.set_top(t.add_gate("TOP", ft::NodeType::And, {or_gate, vote}));
  const auto opt = maxsat::solve_tree(t, 1e6);
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(opt->cut, ft::CutSet({b, c, d}));
}

TEST(ClosedForm, DagsAndExplicitSolversKeepStepFive) {
  const MpmcsPipeline defaults;
  std::size_t dags = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    gen::GeneratorOptions g;
    g.num_events = 20;
    g.sharing = 0.3;
    g.vote_fraction = 0.2;
    const ft::FaultTree tree = gen::random_tree(g, 0xDA6 + seed);
    if (maxsat::solve_tree(tree, 1e6)) continue;
    ++dags;
    const MpmcsSolution sol = defaults.solve(tree);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << "seed " << seed;
    EXPECT_TRUE(sol.lineage == "raw" || sol.lineage == "pre") << sol.lineage;
    const MpmcsSolution prepared =
        defaults.solve_prepared(tree, defaults.prepare(tree));
    EXPECT_TRUE(prepared.lineage == "raw" || prepared.lineage == "pre")
        << prepared.lineage;
  }
  EXPECT_GE(dags, 10u);

  // A child listed twice counts as a second parent: VOT(2; a, a, b)
  // fires on `a` alone.
  ft::FaultTree dup;
  const auto a = dup.add_basic_event("a", 0.01);
  const auto b = dup.add_basic_event("b", 0.5);
  dup.set_top(dup.add_vote_gate("TOP", 2, {a, a, b}));
  dup.validate();
  EXPECT_FALSE(maxsat::solve_tree(dup, 1e6).has_value());
  const MpmcsSolution dup_sol = defaults.solve(dup);
  ASSERT_EQ(dup_sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(dup_sol.cut, ft::CutSet({0}));
  EXPECT_TRUE(dup_sol.lineage == "raw" || dup_sol.lineage == "pre");

  // Explicit choices and top-k still run MaxSAT on a shared-free tree.
  const ft::FaultTree tree = gen::ladder_tree(4, 7);
  for (const auto choice : {SolverChoice::Oll, SolverChoice::Lsu,
                            SolverChoice::Stratified}) {
    PipelineOptions opts;
    opts.solver = choice;
    const MpmcsSolution sol = MpmcsPipeline(opts).solve(tree);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << solver_choice_name(choice);
    EXPECT_NE(sol.lineage, "tree") << solver_choice_name(choice);
  }
  for (const MpmcsSolution& sol : defaults.top_k(tree, 3)) {
    EXPECT_NE(sol.lineage, "tree");
  }
}

}  // namespace
}  // namespace fta::core
