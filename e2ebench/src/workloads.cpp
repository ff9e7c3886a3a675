// Deterministic input generation for the three workloads. Everything a
// run sends is a pure function of (workload, seed, client, position in
// the stream); the stream-hash test relies on it.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ft/cut_set.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bench {

namespace {

double log_uniform(fta::util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Random-generator shapes shared by cold-mixed and the edit-mix models.
gen::GeneratorOptions shape_options(const std::string& shape,
                                    std::uint32_t events) {
  gen::GeneratorOptions g;
  g.num_events = events;
  if (shape == "or") {
    g.and_fraction = 0.15;
  } else if (shape == "and") {
    g.and_fraction = 0.7;
  } else if (shape == "vote") {
    g.and_fraction = 0.35;
    g.vote_fraction = 0.3;
  } else if (shape == "shared") {
    g.and_fraction = 0.4;
    g.vote_fraction = 0.1;
    g.sharing = 0.3;
  } else {
    throw std::invalid_argument("unknown shape " + shape);
  }
  return g;
}

const char* const kColdShapes[] = {"or", "and", "vote", "shared", "chain"};
const format::TreeFormat kColdFormats[] = {format::TreeFormat::Galileo,
                                           format::TreeFormat::OpenPsa,
                                           format::TreeFormat::Json};
const char* const kModelShapes[] = {"vote", "shared", "or", "and"};
constexpr int kModelsPerClient = 4;
constexpr std::uint64_t kBlock = 50;  ///< Edit-mix requests per shuffled block.
constexpr std::uint64_t kFleetReadsPerVersion = 8;

/// Redundant-ladder shape classes: top combinator x member vote x
/// nesting. Vote tops and OR-of-3-of-5 tops are the default portfolio's
/// cliff at seed; they stay in the cycle.
struct LadderClass {
  fta::ft::NodeType top;
  std::uint32_t k, n;
  bool nested;
};
std::vector<LadderClass> ladder_classes() {
  std::vector<LadderClass> out;
  for (bool nested : {false, true}) {
    for (auto kn : {std::pair{2u, 3u}, std::pair{2u, 4u}, std::pair{3u, 5u}}) {
      for (auto top : {fta::ft::NodeType::Or, fta::ft::NodeType::And,
                       fta::ft::NodeType::Vote}) {
        out.push_back({top, kn.first, kn.second, nested});
      }
    }
  }
  return out;
}

/// An event the plant can still fail without: the set of every other
/// event is a cut set. Taking an event in every minimal cut set out of
/// service leaves no failure with non-zero probability, and the service
/// answers that with `"logCost": inf`, which is not JSON (a defect the
/// benchmark probes once per edit-mix run instead, see main.cpp).
ft::EventIndex spare_event(const ft::FaultTree& t, fta::util::Rng& rng) {
  for (std::uint32_t tries = 0; tries < t.num_events(); ++tries) {
    const auto e = static_cast<ft::EventIndex>(rng.below(t.num_events()));
    std::vector<ft::EventIndex> rest;
    rest.reserve(t.num_events());
    for (ft::EventIndex i = 0; i < t.num_events(); ++i) {
      if (i != e) rest.push_back(i);
    }
    if (ft::is_cut_set(t, ft::CutSet(std::move(rest)))) return e;
  }
  throw std::logic_error("model has no event it can fail without");
}

/// Tenant of edit-mix client `c`.
std::string tenant(int c) { return "c" + std::to_string(c); }

}  // namespace

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ft::FaultTree build_tree(const TreeSpec& spec) {
  switch (spec.family) {
    case TreeSpec::Family::Random:
      return gen::random_tree(spec.random, spec.seed);
    case TreeSpec::Family::Chain:
      return gen::chain_tree(spec.chain_depth, spec.seed);
    case TreeSpec::Family::Ladder:
      return gen::ladder_tree(spec.ladder, spec.seed);
    case TreeSpec::Family::Corpus: {
      format::ParseOptions popts;
      popts.format = spec.format;
      return format::parse_tree(spec.corpus_text, popts);
    }
  }
  throw std::logic_error("unknown tree family");
}

std::string tree_text(const TreeSpec& spec, const ft::FaultTree& tree) {
  if (spec.family == TreeSpec::Family::Corpus) return spec.corpus_text;
  return format::serialize_tree(tree, spec.format);
}

std::string solve_body(const std::string& text, format::TreeFormat fmt,
                       double deadline_ms, std::size_t top_k) {
  std::string body = "{\"tenant\": \"bench\", ";
  body += std::string("\"format\": \"") + format::format_name(fmt) + "\", ";
  if (deadline_ms > 0.0) {
    body += "\"deadline_ms\": " + fta::util::format_double(deadline_ms) + ", ";
  }
  if (top_k > 0) body += "\"k\": " + std::to_string(top_k) + ", ";
  body += "\"tree\": \"" + fta::util::json_escape(text) + "\"}";
  return body;
}

Model make_model(ft::FaultTree tree, int owner, double deadline_ms) {
  Model m;
  const std::string text = format::to_galileo(tree);
  m.solve_body = solve_body(text, format::TreeFormat::Galileo, deadline_ms);
  if (owner >= 0) {
    // Owned models read under their owner's tenant.
    m.solve_body.replace(m.solve_body.find("bench"), 5, tenant(owner));
  }
  // Galileo lists events in index order as `"name" prob=<literal>;`;
  // inside the JSON string the quotes are escaped.
  std::size_t from = 0;
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    const std::string needle =
        "\\\"" + fta::util::json_escape(tree.event(e).name) + "\\\" prob=";
    std::size_t at = m.solve_body.find(needle, from);
    if (at == std::string::npos) at = m.solve_body.find(needle);
    if (at == std::string::npos) {
      throw std::runtime_error("probability literal of " +
                               tree.event(e).name + " not found");
    }
    const std::size_t lit = at + needle.size();
    const std::size_t end = m.solve_body.find(';', lit);
    m.prob_at.push_back(lit);
    m.prob_len.push_back(end - lit);
    from = end;
  }
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const ft::Node& n = tree.node(i);
    if (n.type == ft::NodeType::BasicEvent || i == tree.top()) continue;
    const bool leaf = std::all_of(
        n.children.begin(), n.children.end(), [&](ft::NodeIndex c) {
          return tree.node(c).type == ft::NodeType::BasicEvent;
        });
    if (leaf) m.leaf_gates.push_back(n.name);
  }
  m.tree = std::move(tree);
  m.owner = owner;
  return m;
}

std::string nudged_body(const Model& m, ft::EventIndex e, double p) {
  std::string body = m.solve_body;
  body.replace(m.prob_at[e], m.prob_len[e], format::format_probability(p));
  return body;
}

Workload::Workload(std::string name, std::uint64_t seed,
                   const std::string& corpus_dir)
    : name_(std::move(name)), seed_(seed), clients_(1) {
  if (name_ != "edit-mix") {
    // The same tree for every seed, so setup_s varies only with the
    // machine. cold-mixed draws 64-bit generator seeds, so none of its
    // trees repeats this one (a repeat would be a cache hit).
    const ft::FaultTree tree =
        gen::random_tree(shape_options("or", 2000), 0x9817e);
    priming_body_ = solve_body(format::to_json(tree), format::TreeFormat::Json,
                               0.0);
  }
  if (name_ == "cold-mixed") {
    // Each vendored instance once, in name order. Of a cross-format twin
    // pair only the first is sent: the twin is the same tree, so it
    // would be a cache (and memo) hit — not a never-sent tree.
    std::vector<std::string> files;
    if (!corpus_dir.empty()) {
      for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
        const std::string ext = entry.path().extension().string();
        if (ext == ".dft" || ext == ".xml") files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    std::vector<std::string> stems;
    for (const std::string& f : files) {
      const std::string stem = std::filesystem::path(f).stem().string();
      if (std::find(stems.begin(), stems.end(), stem) != stems.end()) continue;
      stems.push_back(stem);
      corpus_.push_back(f);
    }
    // An analyst's interactive deadline: a rare cliff tree (a vote-rich
    // generator tree at seed 2 ran ~80 s until the watchdog cut it) then
    // costs about a second and counts as failed instead of stalling the run.
    deadline_ms_ = 1000.0;
  } else if (name_ == "redundant-ladders") {
    deadline_ms_ = 200.0;
  } else if (name_ == "edit-mix") {
    clients_ = std::min(2, hardware_threads());
    // Every read and write carries the analyst deadline too, so that a
    // solve that finds no optimum costs a second and counts as failed
    // instead of stalling every client coalesced onto it.
    deadline_ms_ = 1000.0;
    // A fleet monitors fixed plants: four owned models per client, one of
    // each shape, at fixed log-spaced sizes from 1000 to 5000 events, plus
    // one 2000-event fleet model every client reads verbatim. The models
    // are the same for every seed (slot i uses generator seed i, and the
    // probabilities come from one fixed stream), so set-up does the same
    // work on every seed; the run seed draws all traffic. Seed-drawn
    // structures made the per-seed spread of throughput exceed 25%.
    fta::util::Rng rng(0xed17);
    const int owned = kModelsPerClient * clients_;
    for (int i = 0; i <= owned; ++i) {
      const bool fleet = i == owned;
      const std::string shape =
          fleet ? "vote" : kModelShapes[(i / clients_) % 4];
      const auto events = static_cast<std::uint32_t>(
          fleet ? 2000.0
                : 1000.0 * std::pow(5.0, static_cast<double>(i) /
                                             std::max(1, owned - 1)));
      ft::FaultTree tree = gen::random_tree(shape_options(shape, events),
                                            static_cast<std::uint64_t>(i));
      for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
        tree.set_event_probability(e, log_uniform(rng, 1e-4, 0.2));
      }
      models_.push_back(
          make_model(tree, fleet ? -1 : i % clients_, deadline_ms_));
    }
    fleet_ = owned;
    client_state_.resize(clients_);
    for (int c = 0; c < clients_; ++c) {
      client_state_[c].rng_state = mix(seed_, 0xc11e000 + c);
    }
  } else {
    throw std::invalid_argument("unknown workload " + name_);
  }
}

Request Workload::spec_request(TreeSpec spec, double deadline_ms) {
  const ft::FaultTree tree = build_tree(spec);
  Request r;
  r.kind = ReqKind::Solve;
  r.path = "/v1/solve";
  r.body = solve_body(tree_text(spec, tree), spec.format, deadline_ms);
  r.shape = spec.shape;
  r.deadline_ms = deadline_ms;
  r.spec = static_cast<int>(specs_.size());
  specs_.push_back(std::move(spec));
  return r;
}

Request Workload::next() {
  if (name_ == "cold-mixed") return next_cold();
  if (name_ == "redundant-ladders") return next_ladder();
  throw std::logic_error("next() is for single-client workloads");
}

Request Workload::next_cold() {
  if (!corpus_.empty()) {
    TreeSpec spec;
    spec.family = TreeSpec::Family::Corpus;
    const std::string path = corpus_.front();
    corpus_.erase(corpus_.begin());
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    spec.corpus_text = ss.str();
    spec.format = format::detect_format(path, spec.corpus_text);
    spec.shape = "corpus";
    return spec_request(std::move(spec), deadline_ms_);
  }
  const std::uint64_t g = counter_++;
  fta::util::Rng rng(mix(seed_, g));
  TreeSpec spec;
  spec.shape = kColdShapes[g % 5];
  spec.format = kColdFormats[(g / 5) % 3];
  // Sizes follow a golden-ratio sequence (seeded offset) over a log scale,
  // so every run covers 500-5000 events evenly instead of by chance.
  const double u = std::fmod(
      static_cast<double>(mix(seed_, 0x517e) % 1000) / 1000.0 +
          static_cast<double>(g) * 0.6180339887498949,
      1.0);
  const auto events = static_cast<std::uint32_t>(500.0 * std::pow(10.0, u));
  spec.seed = rng.next();
  if (spec.shape == "chain") {
    spec.family = TreeSpec::Family::Chain;
    spec.chain_depth = events;
  } else {
    spec.family = TreeSpec::Family::Random;
    spec.random = shape_options(spec.shape, events);
  }
  return spec_request(std::move(spec), deadline_ms_);
}

Request Workload::next_ladder() {
  static const std::vector<LadderClass> classes = ladder_classes();
  // Every 90 requests cover each shape class at each size once; the
  // seed draws the probabilities.
  static const std::uint32_t kSizes[] = {10, 20, 50, 100, 200};
  const std::uint64_t g = counter_++;
  const LadderClass& c = classes[g % classes.size()];
  fta::util::Rng rng(mix(seed_, g));
  TreeSpec spec;
  spec.family = TreeSpec::Family::Ladder;
  spec.ladder.subsystems = kSizes[(g + g / classes.size()) % 5];
  spec.ladder.members = c.n;
  spec.ladder.k = c.k;
  spec.ladder.combine = c.top;
  spec.ladder.combine_k = 2;
  spec.ladder.nested = c.nested;
  spec.seed = rng.next();
  spec.shape = std::string(c.top == fta::ft::NodeType::Or    ? "or"
                           : c.top == fta::ft::NodeType::And ? "and"
                                                             : "vote") +
               "-" + std::to_string(c.k) + "of" + std::to_string(c.n) +
               (c.nested ? "-nested" : "");
  return spec_request(std::move(spec), deadline_ms_);
}

Request Workload::next_for(int client) {
  ClientState& st = client_state_.at(client);
  const std::uint64_t n = st.counter++;
  fta::util::Rng rng(mix(st.rng_state, n));
  if (n % kBlock == 0) {
    // The shares are bench/loadgen's documented run (--mutate-fraction
    // 0.1): 10% writes, 10% perturbed (what-if) reads, 80% verbatim warm
    // reads of which 20% ask for the top-k. Each block of kBlock requests
    // holds them exactly, in an order the seed shuffles, so every run has
    // the same mix and seeds differ only in what they send.
    st.block.assign(5, Slot::Patch);
    st.block.insert(st.block.end(), 5, Slot::WhatIf);
    st.block.insert(st.block.end(), 32, Slot::Fleet);
    st.block.insert(st.block.end(), 8, Slot::FleetTopK);
    fta::util::Rng brng(mix(st.rng_state ^ 0xb10c, n / kBlock));
    for (std::size_t i = st.block.size() - 1; i > 0; --i) {
      std::swap(st.block[i], st.block[brng.below(i + 1)]);
    }
  }
  const Slot slot = st.block[n % kBlock];
  Request r;
  r.deadline_ms = deadline_ms_;
  if (slot == Slot::Patch) {
    // Etag-chained edit of an owned model, round robin over the client's
    // models. The write ops are this benchmark's own: mostly weights on
    // 1-3 events, some toggles, a few leaf-gate splices.
    const int own = client + clients_ * static_cast<int>(st.patches++ %
                                                         kModelsPerClient);
    const Model& m = models_[own];
    r.kind = ReqKind::Patch;
    r.model = own;
    r.shape = "patch";
    const double op = rng.uniform();
    const auto down = st.disabled.find(own);
    if (down != st.disabled.end()) {
      // A maintenance window lasts one edit: the disabled component is
      // restored by the model's next PATCH.
      r.delta.ops.push_back(
          ft::TreeDelta::toggle(m.tree.event(down->second).name, true));
      st.disabled.erase(down);
      r.shape = "patch-toggle";
    } else if (op < 0.03 && !m.leaf_gates.empty()) {
      const std::string& gate = m.leaf_gates[rng.below(m.leaf_gates.size())];
      const std::string p =
          "c" + std::to_string(client) + "s" + std::to_string(st.splices++);
      std::string sub = "toplevel " + p + "r;\n" + p + "r " +
                        (rng.chance(0.5) ? "or" : "and") + " " + p + "a " +
                        p + "b;\n";
      sub += p + "a prob=" + format::format_probability(
                                 log_uniform(rng, 1e-3, 0.2)) + ";\n";
      sub += p + "b prob=" + format::format_probability(
                                 log_uniform(rng, 1e-3, 0.2)) + ";\n";
      r.delta.ops.push_back(ft::TreeDelta::replace(gate, sub));
      r.shape = "patch-splice";
    } else if (op < 0.07) {
      const ft::EventIndex e = spare_event(m.tree, rng);
      st.disabled[own] = e;
      r.delta.ops.push_back(ft::TreeDelta::toggle(m.tree.event(e).name, false));
      r.shape = "patch-toggle";
    } else {
      const std::size_t ops = 1 + rng.below(3);
      for (std::size_t i = 0; i < ops; ++i) {
        const auto e =
            static_cast<ft::EventIndex>(rng.below(m.tree.num_events()));
        r.delta.ops.push_back(ft::TreeDelta::weight(
            m.tree.event(e).name, log_uniform(rng, 1e-4, 0.2)));
      }
      r.shape = "patch-weight";
    }
    r.body = "{\"tenant\": \"" + tenant(client) + "\", \"deadline_ms\": " +
             fta::util::format_double(deadline_ms_) + ", \"delta\": [";
    for (std::size_t i = 0; i < r.delta.ops.size(); ++i) {
      const ft::DeltaOp& o = r.delta.ops[i];
      if (i > 0) r.body += ", ";
      switch (o.kind) {
        case ft::DeltaOpKind::WeightUpdate:
          r.body += "{\"op\": \"weight\", \"event\": \"" +
                    fta::util::json_escape(o.target) + "\", \"probability\": " +
                    format::format_probability(o.probability) + "}";
          break;
        case ft::DeltaOpKind::EventToggle:
          r.body += "{\"op\": \"toggle\", \"event\": \"" +
                    fta::util::json_escape(o.target) + "\", \"enabled\": " +
                    (o.enabled ? "true" : "false") + "}";
          break;
        case ft::DeltaOpKind::SubtreeReplace:
          r.body += "{\"op\": \"replace\", \"gate\": \"" +
                    fta::util::json_escape(o.target) + "\", \"subtree\": \"" +
                    fta::util::json_escape(o.subtree) + "\"}";
          break;
      }
    }
    r.body += "]}";
    return r;
  }
  r.kind = ReqKind::Solve;
  r.path = "/v1/solve";
  if (slot == Slot::WhatIf) {
    // What-if: an owned model's registered text (round robin over the
    // client's models), one probability nudged.
    const int own = client + clients_ * static_cast<int>(st.what_ifs++ %
                                                         kModelsPerClient);
    const Model& m = models_[own];
    const auto e = static_cast<ft::EventIndex>(rng.below(m.tree.num_events()));
    const double p =
        std::min(0.9, m.tree.event(e).probability * rng.uniform(0.5, 2.0));
    r.model = own;
    r.nudge = std::make_pair(e, p);
    r.body = nudged_body(m, e, p);
    r.shape = "what-if";
    return r;
  }
  // Fleet read: every client walks the same version sequence, so clients
  // that reach a version together share (coalesce) its solve, and later
  // ones hit the memo. loadgen's warm tree never changes and so coalesces
  // only once; here the version advances every kFleetReadsPerVersion
  // reads of each client.
  const Model& f = models_[fleet_];
  const std::uint64_t version = st.fleet_reads++ / kFleetReadsPerVersion;
  fta::util::Rng vrng(mix(seed_ ^ 0xf1ee7, version));
  const auto e = static_cast<ft::EventIndex>(vrng.below(f.tree.num_events()));
  const double p =
      std::min(0.9, f.tree.event(e).probability * vrng.uniform(0.5, 2.0));
  r.model = fleet_;
  r.nudge = std::make_pair(e, p);
  r.body = nudged_body(f, e, p);
  if (slot == Slot::Fleet) {
    r.shape = "fleet-solve";
  } else {
    r.kind = ReqKind::TopK;
    r.path = "/v1/topk";
    r.body.insert(1, "\"k\": 3, ");
    r.shape = "fleet-topk";
  }
  return r;
}

}  // namespace bench
