// Answer checking. The reference optimum is the BDD's maximum-probability
// minimal cut set (bdd::FaultTreeBdd), compared in log space. Where the
// BDD cannot be built in the run budget, tree-shaped inputs fall back to
// an exact bottom-up optimum and shared DAGs to a validity check only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>

#include "bdd/fta_bdd.hpp"
#include "bench.hpp"
#include "ft/cut_set.hpp"
#include "util/json.hpp"

namespace bench {

namespace {

namespace bdd = fta::bdd;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The BDD is attempted on tree-shaped inputs up to this many events and
/// this depth, and on any input this small. Measured at seed on a 4-core
/// VM: shared-event DAGs from 500 events exhaust the BDD's node limit
/// after ~8 s each, and chains take 1.2 s at depth 2000.
constexpr std::size_t kBddTreeEvents = 2000;
constexpr std::size_t kBddTreeDepth = 600;
constexpr std::size_t kBddAnyEvents = 64;

double weight(double p) { return p > 0.0 ? -std::log(p) : kInf; }

struct Shape {
  bool tree_shaped = true;  ///< No reachable node has two parents.
  std::size_t events = 0;   ///< Reachable basic events.
  std::size_t depth = 0;
};

Shape shape_of(const ft::FaultTree& t) {
  Shape s;
  std::vector<std::uint32_t> parents(t.num_nodes(), 0);
  std::vector<std::size_t> depth(t.num_nodes(), 0);
  std::vector<ft::NodeIndex> stack{t.top()};
  std::vector<bool> seen(t.num_nodes(), false);
  seen[t.top()] = true;
  while (!stack.empty()) {
    const ft::NodeIndex n = stack.back();
    stack.pop_back();
    s.depth = std::max(s.depth, depth[n]);
    const ft::Node& node = t.node(n);
    if (node.type == ft::NodeType::BasicEvent) ++s.events;
    for (ft::NodeIndex c : node.children) {
      if (++parents[c] > 1) s.tree_shaped = false;
      if (!seen[c]) {
        seen[c] = true;
        depth[c] = depth[n] + 1;
        stack.push_back(c);
      }
    }
  }
  return s;
}

/// Exact optimum of a tree-shaped input: subtrees share no events, so
/// OR takes its cheapest child, AND the sum, k-of-n the k cheapest.
double tree_dp(const ft::FaultTree& t, ft::NodeIndex n) {
  const ft::Node& node = t.node(n);
  if (node.type == ft::NodeType::BasicEvent) {
    return weight(t.event_probability(node.event_index));
  }
  std::vector<double> c;
  c.reserve(node.children.size());
  for (ft::NodeIndex ch : node.children) c.push_back(tree_dp(t, ch));
  std::sort(c.begin(), c.end());
  const std::size_t take = node.type == ft::NodeType::Or    ? 1
                           : node.type == ft::NodeType::And ? c.size()
                                                            : node.k;
  double sum = 0.0;
  for (std::size_t i = 0; i < take && i < c.size(); ++i) sum += c[i];
  return sum;
}

/// BDD optimum in log space. mpmcs_with compares products of
/// probabilities, which underflow to 0 on AND-heavy trees; raising every
/// probability to a power alpha < 1 keeps the argmax (x -> x^alpha is
/// monotone) while every cut's product stays above the double range.
double bdd_optimum(bdd::FaultTreeBdd& b, const ft::FaultTree& t) {
  double total = 0.0;
  for (ft::EventIndex e = 0; e < t.num_events(); ++e) {
    const double w = weight(t.event_probability(e));
    if (std::isfinite(w)) total += w;
  }
  const double alpha = total > 600.0 ? 600.0 / total : 1.0;
  std::vector<double> probs(t.num_events());
  for (ft::EventIndex e = 0; e < t.num_events(); ++e) {
    const double p = t.event_probability(e);
    probs[e] = p > 0.0 ? std::pow(p, alpha) : 0.0;
  }
  const auto best = b.mpmcs_with(probs);
  if (!best) return kInf;
  double lc = 0.0;
  for (ft::EventIndex e : best->first.events()) {
    lc += weight(t.event_probability(e));
  }
  return lc;
}

struct Reference {
  double log_cost = kInf;
  enum class Kind { None, Bdd, Dp } kind = Kind::None;
};

/// Builds the reference for `t`. With `cache`, a BDD of `structure` (a
/// long-lived tree with t's structure) is built once and kept there for
/// later calls on the same structure (edit-mix weight edits).
Reference reference_for(const ft::FaultTree& t,
                        std::unique_ptr<bdd::FaultTreeBdd>* cache,
                        const ft::FaultTree* structure,
                        std::vector<std::string>* errors) {
  Reference r;
  const Shape s = shape_of(t);
  const bool try_bdd =
      s.events <= kBddAnyEvents ||
      (s.tree_shaped && s.events <= kBddTreeEvents && s.depth <= kBddTreeDepth);
  double dp = kInf;
  if (s.tree_shaped) {
    dp = tree_dp(t, t.top());
    r = {dp, Reference::Kind::Dp};
  }
  if (try_bdd) {
    try {
      std::unique_ptr<bdd::FaultTreeBdd> local;
      bdd::FaultTreeBdd* b = cache ? cache->get() : nullptr;
      if (b == nullptr) {
        local = std::make_unique<bdd::FaultTreeBdd>(structure ? *structure : t);
        b = local.get();
      }
      const double lc = bdd_optimum(*b, t);
      if (s.tree_shaped && std::abs(lc - dp) > 1e-9 * std::max(1.0, lc)) {
        errors->push_back("oracle self-check: BDD optimum " +
                          std::to_string(lc) + " != tree optimum " +
                          std::to_string(dp));
      }
      r = {lc, Reference::Kind::Bdd};
      if (cache && !*cache) *cache = std::move(local);
    } catch (const std::runtime_error&) {
      // Node/cache limit: fall back to the DP or the validity check.
    }
  }
  return r;
}

struct Verdict {
  bool wrong = false;
  std::string why;
};

/// Checks one solution object against the tree it answered.
Verdict check_solution(const ft::FaultTree& t, const fta::util::JsonValue& sol,
                       bool approximate, const Reference& ref,
                       double* log_cost_out) {
  Verdict v;
  const fta::util::JsonValue* names = sol.find("mpmcs");
  if (names == nullptr || !names->is_array()) return {true, "no mpmcs array"};
  std::vector<ft::EventIndex> events;
  for (const auto& n : names->items()) {
    const ft::NodeIndex node = t.find(n.as_string());
    if (node == ft::kNoIndex ||
        t.node(node).type != ft::NodeType::BasicEvent) {
      return {true, "unknown event " + n.as_string()};
    }
    events.push_back(t.node(node).event_index);
  }
  const ft::CutSet cut(events);
  if (!ft::is_minimal_cut_set(t, cut)) {
    return {true, "answer is not a minimal cut set"};
  }
  double lc = 0.0;
  for (ft::EventIndex e : cut.events()) lc += weight(t.event_probability(e));
  *log_cost_out = lc;
  const double reported = sol.get_number("logCost", lc);
  if (std::abs(reported - lc) > 1e-6 * std::max(1.0, std::abs(lc))) {
    return {true, "reported logCost " + std::to_string(reported) +
                      " != cut cost " + std::to_string(lc)};
  }
  if (ref.kind == Reference::Kind::None || !std::isfinite(ref.log_cost)) {
    return v;
  }
  // Step 3 rounds every weight to 1e-6; a scaled optimum may differ
  // from the real one by half a unit per event on either cut.
  const double tol = 1e-6 * static_cast<double>(2 * cut.size() + 16) +
                     1e-9 * std::abs(ref.log_cost);
  if (lc < ref.log_cost - tol) {
    return {true, "cut cost " + std::to_string(lc) +
                      " beats the reference optimum " +
                      std::to_string(ref.log_cost)};
  }
  if (!approximate && lc > ref.log_cost + tol) {
    return {true, "certified optimum " + std::to_string(lc) +
                      " != reference " + std::to_string(ref.log_cost)};
  }
  return v;
}

struct Tally {
  std::mutex mutex;
  OracleReport report;
  void add(const Reference& ref, const Verdict& v, const Sample& s) {
    std::lock_guard<std::mutex> lock(mutex);
    ++report.answers;
    switch (ref.kind) {
      case Reference::Kind::Bdd: ++report.checked_bdd; break;
      case Reference::Kind::Dp: ++report.checked_dp; break;
      case Reference::Kind::None: ++report.validity_only; break;
    }
    if (v.wrong) {
      ++report.wrong;
      if (report.errors.size() < 8) {
        report.errors.push_back(s.req.shape + " rid " +
                                std::to_string(s.rid) + ": " + v.why);
      }
    }
  }
  void oracle_error(std::vector<std::string>& errs) {
    if (errs.empty()) return;
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& e : errs) {
      ++report.wrong;
      if (report.errors.size() < 8) report.errors.push_back(e);
    }
    errs.clear();
  }
};

/// Checks one answer body (solve, top-k or PATCH) for tree `t`.
void check_body(const ft::FaultTree& t, const Reference& ref, const Sample& s,
                Tally& tally) {
  Verdict v;
  fta::util::JsonValue doc;
  try {
    doc = fta::util::JsonValue::parse(s.body);
  } catch (const std::exception&) {
    // The client could not read the answer: a failed request. Seen at
    // seed when every cut has probability 0 (a toggle disabled a single
    // point of failure) and the service prints "logCost": inf.
    std::lock_guard<std::mutex> lock(tally.mutex);
    tally.report.malformed.push_back(s.rid);
    return;
  }
  try {
    const bool approx = doc.get_string("status", "optimal") == "approximate";
    if (s.req.kind == ReqKind::TopK) {
      const fta::util::JsonValue* top = doc.find("top");
      if (top == nullptr || !top->is_array() || top->items().empty()) {
        v = {true, "no top-k list"};
      } else {
        double prev = -kInf;
        Reference none;
        for (std::size_t i = 0; i < top->items().size() && !v.wrong; ++i) {
          double lc = 0.0;
          v = check_solution(t, top->items()[i], approx, i == 0 ? ref : none,
                             &lc);
          if (!v.wrong && lc < prev - 1e-6 * 64) {
            v = {true, "top-k costs out of order"};
          }
          prev = lc;
        }
      }
    } else {
      const fta::util::JsonValue* sol = doc.find("solution");
      if (sol == nullptr) {
        v = {true, "no solution"};
      } else {
        double lc = 0.0;
        v = check_solution(t, *sol, approx, ref, &lc);
      }
    }
  } catch (const std::exception& e) {
    v = {true, std::string("unexpected answer shape: ") + e.what()};
  }
  tally.add(ref, v, s);
}

bool answered(const Sample& s) { return s.status >= 200 && s.status < 300; }

/// Runs `job(i)` for i in [0, n) on `threads` threads.
template <typename Job>
void parallel_for(std::size_t n, int threads, Job job) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) job(i);
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

OracleReport check_answers(const Workload& w, const std::vector<Sample>& samples,
                           int threads) {
  Tally tally;
  if (w.name() != "edit-mix") {
    std::vector<const Sample*> todo;
    for (const Sample& s : samples) {
      if (answered(s)) todo.push_back(&s);
    }
    parallel_for(todo.size(), threads, [&](std::size_t i) {
      const Sample& s = *todo[i];
      const ft::FaultTree t = build_tree(w.specs()[s.req.spec]);
      std::vector<std::string> errs;
      const Reference ref = reference_for(t, nullptr, nullptr, &errs);
      tally.oracle_error(errs);
      check_body(t, ref, s, tally);
    });
    return tally.report;
  }

  // Edit-mix: one job per model, walking its samples in send order so
  // PATCH answers are checked against the edited tree they answered.
  std::vector<std::vector<const Sample*>> by_model(w.models().size());
  for (const Sample& s : samples) by_model[s.req.model].push_back(&s);
  parallel_for(by_model.size(), threads, [&](std::size_t m) {
    auto& list = by_model[m];
    std::sort(list.begin(), list.end(), [](const Sample* a, const Sample* b) {
      return a->start < b->start;
    });
    const ft::FaultTree& base = w.models()[m].tree;
    std::unique_ptr<bdd::FaultTreeBdd> base_bdd;
    std::unique_ptr<bdd::FaultTreeBdd> state_bdd;
    ft::FaultTree state = base;
    std::vector<std::string> errs;
    for (const Sample* s : list) {
      if (s->req.kind == ReqKind::Patch) {
        // An edit can land even when its solve then fails.
        if (!s->delta_landed) continue;
        if (!s->req.delta.weight_only()) state_bdd.reset();
        state = ft::apply_delta(state, s->req.delta);
        if (!answered(*s)) continue;
        const Reference ref = reference_for(state, &state_bdd, &state, &errs);
        tally.oracle_error(errs);
        check_body(state, ref, *s, tally);
        continue;
      }
      if (!answered(*s)) continue;
      ft::FaultTree t = base;
      if (s->req.nudge) {
        t.set_event_probability(s->req.nudge->first, s->req.nudge->second);
      }
      const Reference ref = reference_for(t, &base_bdd, &base, &errs);
      tally.oracle_error(errs);
      check_body(t, ref, *s, tally);
    }
  });
  return tally.report;
}

}  // namespace bench
