// E9 — voting gates, now with the cardinality-lowering ablation.
//
// The paper's second future-work item ("extending our approach to include
// additional operators such as voting gates") is first-class here, and
// since the cardinality-native encoding layer there are three ways to
// lower a k-of-n gate to CNF: the recursive AND/OR expansion, the shared
// totalizer counting network, and the size-based auto policy the pipeline
// ships by default. This bench solves ladders, vote-heavy random DAGs and
// wide root votes (the MaxSAT Evaluation 2020 MPMCS corpus shape) under
// every mode, checks the optima agree (and match the exact BDD baseline
// where it fits), and reports encoding sizes and throughput.
//
// usage: voting_gates [scale] [--json PATH]
//   scale 1 (CI perf gate): small fixed corpus, median-of-3 timings
//   scale 2 (default):      the full E9 corpus incl. the 1000-subsystem
//                           ladder and the 2000-event vote-heavy DAG
//
// Gate criteria (exit status + JSON flags): identical optima across all
// modes, and >= 40% median hard-clause reduction (totalizer vs expand)
// on the wide-vote corpus (k >= 5, n >= 10).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bdd/fta_bdd.hpp"
#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "ft/builder.hpp"
#include "ft/cut_set.hpp"
#include "gen/generator.hpp"
#include "util/strings.hpp"

namespace {

using fta::logic::CardinalityLowering;

constexpr CardinalityLowering kModes[] = {CardinalityLowering::Expand,
                                          CardinalityLowering::Totalizer,
                                          CardinalityLowering::Auto};

fta::ft::FaultTree root_vote_tree(std::uint32_t n, std::uint32_t k,
                                  std::uint64_t seed) {
  fta::util::Rng rng(seed);
  fta::ft::FaultTreeBuilder b;
  std::vector<fta::ft::NodeIndex> events;
  events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    events.push_back(
        b.event("e" + std::to_string(i), rng.uniform(0.01, 0.3)));
  }
  b.top(b.vote("TOP", k, std::move(events)));
  return std::move(b).build();
}

struct ModeResult {
  double seconds = 0.0;          ///< Median end-to-end solve wall clock.
  std::size_t raw_clauses = 0;   ///< Hard clauses of the Step 1-4 instance.
  fta::maxsat::Weight cost = 0;  ///< Optimal cost in scaled-integer space.
  double probability = 0.0;
};

struct InstanceReport {
  std::string name;
  std::size_t events = 0;
  bool wide_vote = false;  ///< Member of the k>=5, n>=10 acceptance corpus.
  bool verified = true;
  std::map<CardinalityLowering, ModeResult> modes;
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fta;
  const bench::Args args = bench::parse_args(argc, argv);
  const int scale =
      args.positional.empty() ? 2 : std::atoi(args.positional[0]);
  const int repeats = scale <= 1 ? 3 : 1;

  bench::banner("E9: voting gates — cardinality-lowering ablation");
  bench::print_row({"instance", "events", "mode", "clauses", "solve",
                    "P(mpmcs)", "verified"},
                   {18, 8, 11, 9, 11, 12, 9});

  struct Spec {
    std::string name;
    ft::FaultTree tree;
    bool wide_vote = false;
  };
  std::vector<Spec> corpus;
  for (const std::uint32_t subsystems :
       scale <= 1 ? std::vector<std::uint32_t>{10, 60}
                  : std::vector<std::uint32_t>{10, 100, 1000}) {
    corpus.push_back({"ladder-" + std::to_string(subsystems),
                      gen::ladder_tree(subsystems, subsystems), false});
  }
  for (const std::uint32_t n :
       scale <= 1 ? std::vector<std::uint32_t>{100, 300}
                  : std::vector<std::uint32_t>{100, 500, 2000}) {
    gen::GeneratorOptions gopts;
    gopts.num_events = n;
    gopts.min_children = 3;
    gopts.max_children = 5;
    gopts.vote_fraction = 0.4;
    corpus.push_back({"vote-heavy-" + std::to_string(n),
                      gen::random_tree(gopts, n + 13), false});
  }
  {
    // The wide corpus stops at shapes the *expand* mode can still prove
    // optimal (the ablation needs all three modes to finish): beyond
    // ~16 inputs with distinct weights, the expanded network defeats
    // every portfolio member — the regression the totalizer lowering
    // removes — so wider shapes would stall the comparison itself.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> wide = {
        {10, 5}, {12, 7}, {16, 5}, {15, 8}};
    for (const auto& [n, k] : wide) {
      corpus.push_back({"vote-" + std::to_string(k) + "of" +
                            std::to_string(n),
                        root_vote_tree(n, k, 1234 + n * 31 + k), true});
    }
  }

  int failures = 0;
  std::vector<InstanceReport> reports;
  for (const Spec& spec : corpus) {
    InstanceReport report;
    report.name = spec.name;
    report.events = spec.tree.num_events();
    report.wide_vote = spec.wide_vote;

    // Exact baseline, where the BDD fits its node budget.
    std::optional<double> bdd_probability;
    try {
      bdd::FaultTreeBdd analysis(spec.tree);
      if (const auto best = analysis.mpmcs()) {
        bdd_probability = best->second;
      }
    } catch (const std::exception&) {
      // Node/cache budget exceeded: MaxSAT keeps going where the
      // baseline cannot; minimality+agreement checks still apply.
    }

    for (const CardinalityLowering mode : kModes) {
      core::PipelineOptions popts;
      popts.card_lowering = mode;
      const core::MpmcsPipeline pipeline(popts);
      ModeResult mr;
      mr.raw_clauses = pipeline.build_instance(spec.tree).hard().size();
      // Steps 1-5 from the bare Step 1-4 instance: this corpus shares no
      // events, so solve() would answer it in closed form, which lowers
      // no vote and leaves nothing to compare.
      core::MpmcsSolution sol;
      mr.seconds = bench::time_median(repeats, [&] {
        sol = pipeline.solve_prepared(spec.tree,
                                      pipeline.build_instance(spec.tree));
      });
      bool ok = sol.status == maxsat::MaxSatStatus::Optimal &&
                ft::is_minimal_cut_set(spec.tree, sol.cut);
      if (bdd_probability) {
        ok = ok && std::abs(*bdd_probability - sol.probability) <=
                       1e-5 * *bdd_probability + 1e-15;
      }
      mr.cost = sol.scaled_cost;
      mr.probability = sol.probability;
      // All three modes must land on the same optimum, bit-exactly in
      // scaled-integer space.
      if (mode != CardinalityLowering::Expand &&
          mr.cost != report.modes[CardinalityLowering::Expand].cost) {
        ok = false;
      }
      if (!ok) {
        report.verified = false;
        ++failures;
      }
      report.modes[mode] = mr;
      bench::print_row(
          {spec.name, std::to_string(report.events),
           logic::cardinality_lowering_name(mode),
           std::to_string(mr.raw_clauses),
           bench::fmt(mr.seconds * 1e3) + "ms", bench::fmt(mr.probability),
           ok ? "yes" : "NO"},
          {18, 8, 11, 9, 11, 12, 9});
      std::fflush(stdout);  // rows double as progress on the big corpus
    }
    reports.push_back(std::move(report));
  }

  // Aggregates: clause reduction on the wide-vote acceptance corpus and
  // speedups/throughput across the whole corpus.
  std::vector<double> wide_reductions;
  std::vector<double> totalizer_speedups;
  std::vector<double> auto_speedups;
  double auto_seconds = 0.0;
  for (const InstanceReport& r : reports) {
    const ModeResult& expand = r.modes.at(CardinalityLowering::Expand);
    const ModeResult& totalizer = r.modes.at(CardinalityLowering::Totalizer);
    const ModeResult& auto_mode = r.modes.at(CardinalityLowering::Auto);
    if (r.wide_vote && expand.raw_clauses > 0) {
      wide_reductions.push_back(
          1.0 - static_cast<double>(totalizer.raw_clauses) /
                    static_cast<double>(expand.raw_clauses));
    }
    if (totalizer.seconds > 0.0) {
      totalizer_speedups.push_back(expand.seconds / totalizer.seconds);
    }
    if (auto_mode.seconds > 0.0) {
      auto_speedups.push_back(expand.seconds / auto_mode.seconds);
    }
    auto_seconds += auto_mode.seconds;
  }
  const double wide_reduction_median = median(wide_reductions);
  const double totalizer_speedup_median = median(totalizer_speedups);
  const double auto_speedup_median = median(auto_speedups);
  const double auto_tps =
      auto_seconds > 0.0 ? reports.size() / auto_seconds : 0.0;
  const bool results_match = failures == 0;
  const bool wide_reduction_ok = wide_reduction_median >= 0.40;

  std::printf(
      "\nwide-vote clause reduction (median): %.0f%%  [bar: >= 40%%: %s]\n",
      wide_reduction_median * 100.0, wide_reduction_ok ? "ok" : "FAIL");
  std::printf("totalizer vs expand median speedup : %.2fx\n",
              totalizer_speedup_median);
  std::printf("auto      vs expand median speedup : %.2fx\n",
              auto_speedup_median);
  std::printf("auto-mode throughput               : %.1f trees/s\n", auto_tps);
  std::printf("%s\n", results_match
                          ? "every voting-gate instance verified across modes"
                          : "VERIFICATION FAILURES PRESENT");

  if (!args.json_path.empty()) {
    std::string json = "{\n  \"bench\": \"voting_gates\",\n";
    json += "  \"scale\": " + std::to_string(scale) + ",\n";
    json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
    json += "  \"resultsMatch\": " +
            std::string(results_match ? "true" : "false") + ",\n";
    json += "  \"wideReductionOk\": " +
            std::string(wide_reduction_ok ? "true" : "false") + ",\n";
    json += "  \"wideClauseReductionMedian\": " +
            util::format_double(wide_reduction_median) + ",\n";
    json += "  \"totalizerMedianSpeedup\": " +
            util::format_double(totalizer_speedup_median) + ",\n";
    json += "  \"autoMedianSpeedup\": " +
            util::format_double(auto_speedup_median) + ",\n";
    json += "  \"autoSolvesPerSecond\": " + util::format_double(auto_tps) +
            ",\n  \"instances\": [";
    bool sep = false;
    for (const InstanceReport& r : reports) {
      json += sep ? ",\n    {" : "\n    {";
      sep = true;
      json += "\"name\": \"" + r.name + "\", ";
      json += "\"events\": " + std::to_string(r.events) + ", ";
      json += std::string("\"wideVote\": ") +
              (r.wide_vote ? "true" : "false") + ", ";
      json += std::string("\"verified\": ") +
              (r.verified ? "true" : "false");
      for (const CardinalityLowering mode : kModes) {
        const ModeResult& mr = r.modes.at(mode);
        const std::string key = logic::cardinality_lowering_name(mode);
        json += std::string(", \"") + key + "\": {\"hardClauses\": " +
                std::to_string(mr.raw_clauses) +
                ", \"seconds\": " + util::format_double(mr.seconds) +
                ", \"cost\": " + std::to_string(mr.cost) + "}";
      }
      json += "}";
    }
    json += "\n  ]\n}\n";
    bench::write_json(args.json_path, json);
  }
  return results_match && wide_reduction_ok ? 0 : 1;
}
