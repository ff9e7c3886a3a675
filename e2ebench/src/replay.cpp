// The traced run's layer replay: the inputs of the traced HTTP phase, fed
// one at a time through the public call of each layer below the service,
// with one span per call. Nothing inside the library is instrumented.
//
// A sub-step's span comes from calling that sub-step's own public
// function on the same input just before its parent call (for example
// build_instance and preprocess before prepare). It is linked to the
// parent as a child, so the parent's self time is its duration minus
// what those calls took.
#include <algorithm>
#include <map>
#include <memory>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/tree_cache.hpp"
#include "preprocess/preprocess.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace bench {

namespace {

namespace core = fta::core;
namespace engine = fta::engine;

struct Sums {
  std::map<std::string, double> sum;
  std::map<std::string, double> count;
  void add(const std::string& k, double v) {
    sum[k] += v;
    count[k] += 1.0;
  }
  double mean(const std::string& k) const {
    const auto c = count.find(k);
    return c == count.end() || c->second == 0.0 ? 0.0 : sum.at(k) / c->second;
  }
};

class Recorder {
 public:
  explicit Recorder(std::uint64_t first_id) : next_(first_id) {}
  std::uint64_t add(std::uint64_t parent, std::uint64_t rid,
                    const std::string& name, double start, double end) {
    spans.push_back({next_, parent, rid, name, start, end});
    return next_++;
  }
  std::vector<Span> spans;

 private:
  std::uint64_t next_;
};

fta::util::CancelTokenPtr deadline_token(double deadline_ms) {
  if (deadline_ms <= 0.0) return nullptr;
  auto token = std::make_shared<fta::util::CancelToken>();
  token->set_deadline_after(deadline_ms / 1e3);
  return token;
}

std::uint64_t sat_propagations() {
  return fta::sat::Solver::global_counters().propagations;
}

}  // namespace

ReplayReport replay(const Workload& w, const std::vector<Sample>& samples,
                    double budget_s, std::uint64_t first_span_id) {
  ReplayReport out;
  Recorder rec(first_span_id);
  Sums s;

  // The service's own configuration: default pipeline and engine sizing.
  const core::PipelineOptions popts;
  const core::MpmcsPipeline pipeline(popts);
  engine::EngineOptions eopts;
  eopts.cache_capacity = 512;
  eopts.session_memory_cap_bytes = std::size_t{2} << 30;
  engine::AnalysisEngine eng(eopts);

  // Edit-mix: the replay engine owns its own copies of the registered
  // models, and the lower-layer replay its own prepared artefacts.
  std::vector<std::string> ids(w.models().size());
  std::vector<ft::FaultTree> state;
  std::vector<core::PreparedInstance> prepared;
  for (std::size_t m = 0; m < w.models().size(); ++m) {
    const Model& model = w.models()[m];
    state.push_back(model.tree);
    prepared.push_back(model.owner >= 0 ? pipeline.prepare(model.tree)
                                        : core::PreparedInstance{});
    if (model.owner >= 0) ids[m] = eng.create_tree(model.tree, popts);
  }
  // Lower-layer artefacts of trees seen before, for the replay of
  // engine cache hits (keyed like the engine's own cache).
  std::map<std::string, std::shared_ptr<core::PreparedInstance>> lower_cache;

  std::vector<const Sample*> order;
  for (const Sample& x : samples) {
    if (x.status != 0) order.push_back(&x);
  }
  std::sort(order.begin(), order.end(), [](const Sample* a, const Sample* b) {
    return a->start < b->start;
  });

  const double t_begin = now_s();
  std::uint64_t useful = 0, spent = 0;
  for (const Sample* sp : order) {
    if (now_s() - t_begin > budget_s) break;
    const Sample& x = *sp;
    const Request& req = x.req;
    const std::uint64_t rid = x.rid;

    if (req.kind == ReqKind::Patch) {
      const int m = req.model;
      const ft::FaultTree next = ft::apply_delta(state[m], req.delta);
      engine::AnalysisRequest areq;
      areq.tree_id = ids[m];
      areq.delta = req.delta;
      areq.pipeline = popts;
      const std::uint64_t pc0 = core::MpmcsPipeline::prepare_calls();
      double t0 = now_s();
      const engine::AnalysisResult res = eng.analyze(std::move(areq)).result.get();
      double t1 = now_s();
      const std::uint64_t engine_prepares =
          core::MpmcsPipeline::prepare_calls() - pc0;
      const std::uint64_t a = rec.add(0, rid, "engine.analyze", t0, t1);
      s.add("engine.analyze_ms", (t1 - t0) * 1e3);
      s.add("engine.queue_wait_ms", (t1 - t0 - res.seconds) * 1e3);
      s.add("core.prepare_calls", static_cast<double>(engine_prepares));

      const std::uint64_t pc1 = core::MpmcsPipeline::prepare_calls();
      t0 = now_s();
      const core::DeltaApplication da =
          pipeline.apply_delta(next, req.delta, prepared[m]);
      t1 = now_s();
      const std::uint64_t lower_prepares =
          core::MpmcsPipeline::prepare_calls() - pc1;
      rec.add(a, rid, "core.apply_delta", t0, t1);
      s.add("core.apply_delta_ms", (t1 - t0) * 1e3);
      if (req.delta.weight_only() &&
          (engine_prepares != 0 || lower_prepares != 0 || !da.weight_only ||
           !da.session_rebased)) {
        out.violations.push_back(
            "weight-only PATCH rid " + std::to_string(rid) + " added " +
            std::to_string(engine_prepares + lower_prepares) +
            " prepare_calls (weight_only=" + std::to_string(da.weight_only) +
            ", session_rebased=" + std::to_string(da.session_rebased) + ")");
      }
      state[m] = next;
      const std::uint64_t p0 = sat_propagations();
      t0 = now_s();
      const core::MpmcsSolution sol = pipeline.solve_prepared(next, prepared[m]);
      t1 = now_s();
      const std::uint64_t sp_id = rec.add(a, rid, "core.solve_prepared", t0, t1);
      rec.add(sp_id, rid, "maxsat.solve", t1 - sol.solve_seconds, t1);
      s.add("core.solve_prepared_ms", (t1 - t0) * 1e3);
      s.add("maxsat.solve_ms", sol.solve_seconds * 1e3);
      s.add("maxsat.unknown_frac",
            sol.status == fta::maxsat::MaxSatStatus::Unknown ? 1.0 : 0.0);
      useful += sol.sat_propagations;
      spent += sat_propagations() - p0;
      continue;
    }

    // Reads: parse, then the engine, then the engine's lower calls for
    // whatever the replay engine did not serve from cache or memo.
    const auto doc = fta::util::JsonValue::parse(x.req.body);
    fta::format::ParseOptions fopts;
    fta::format::parse_format_name(doc.get_string("format", "auto"),
                                   &fopts.format);
    const std::string text = doc.get_string("tree", "");
    double t0 = now_s();
    const ft::FaultTree tree = fta::format::parse_tree(text, fopts);
    double t1 = now_s();
    rec.add(0, rid, "format.parse", t0, t1);
    s.add("format.parse_ms", (t1 - t0) * 1e3);
    const double parse_ms = (t1 - t0) * 1e3;

    const bool topk = req.kind == ReqKind::TopK;
    engine::AnalysisRequest areq;
    areq.tree = tree;
    areq.kind = topk ? engine::AnalysisKind::TopK : engine::AnalysisKind::Mpmcs;
    areq.top_k = 3;
    areq.pipeline = popts;
    areq.timeout_seconds = req.deadline_ms / 1e3;
    const std::uint64_t pc0 = core::MpmcsPipeline::prepare_calls();
    t0 = now_s();
    const engine::AnalysisResult res = eng.analyze(std::move(areq)).result.get();
    t1 = now_s();
    const std::uint64_t a = rec.add(0, rid, "engine.analyze", t0, t1);
    s.add("engine.analyze_ms", (t1 - t0) * 1e3);
    s.add("engine.queue_wait_ms", (t1 - t0 - res.seconds) * 1e3);
    s.add("core.prepare_calls",
          static_cast<double>(core::MpmcsPipeline::prepare_calls() - pc0));
    if (res.memoized) continue;

    // One deadline for the lower calls together, as the engine gives the
    // whole request one token.
    const fta::util::CancelTokenPtr token = deadline_token(req.deadline_ms);
    const std::string key = engine::structural_key(tree, popts);
    std::shared_ptr<core::PreparedInstance> prep;
    const auto hit = lower_cache.find(key);
    double encode_ms = 0.0;
    if (res.cache_hit && hit != lower_cache.end()) {
      prep = hit->second;
    } else {
      t0 = now_s();
      const fta::maxsat::WcnfInstance inst = pipeline.build_instance(tree);
      t1 = now_s();
      const double enc0 = t0, enc1 = t1;
      encode_ms = (t1 - t0) * 1e3;
      t0 = now_s();
      const fta::preprocess::PreprocessResult pre =
          fta::preprocess::preprocess(inst, {}, popts.preprocess_opts);
      t1 = now_s();
      const double pre0 = t0, pre1 = t1;
      const auto& st = pre.stats;
      t0 = now_s();
      prep = std::make_shared<core::PreparedInstance>(
          pipeline.prepare(tree, token));
      t1 = now_s();
      const std::uint64_t p = rec.add(a, rid, "core.prepare", t0, t1);
      rec.add(p, rid, "logic.encode", enc0, enc1);
      rec.add(p, rid, "preprocess", pre0, pre1);
      s.add("logic.encode_ms", encode_ms);
      s.add("logic.hard_clauses", static_cast<double>(inst.hard().size()));
      s.add("preprocess.ms", (pre1 - pre0) * 1e3);
      s.add("preprocess.removed_vars_frac",
            inst.num_vars() == 0
                ? 0.0
                : static_cast<double>(st.fixed_vars + st.substituted_vars +
                                      st.eliminated_vars) /
                      inst.num_vars());
      s.add("core.prepare_ms", (t1 - t0) * 1e3);
      s.add("core.prepare_self_ms",
            (t1 - t0 - (enc1 - enc0) - (pre1 - pre0)) * 1e3);
      if (lower_cache.size() >= 64) lower_cache.clear();
      lower_cache[key] = prep;
    }
    s.add("front_end_ms", parse_ms + encode_ms);

    const std::uint64_t p0 = sat_propagations();
    t0 = now_s();
    core::MpmcsSolution sol;
    if (topk) {
      const auto top = pipeline.top_k_prepared(tree, *prep, 3, token);
      if (!top.empty()) sol = top.front();
    } else {
      sol = pipeline.solve_prepared(tree, *prep, token);
    }
    t1 = now_s();
    const std::uint64_t sp_id = rec.add(
        a, rid, topk ? "core.top_k_prepared" : "core.solve_prepared", t0, t1);
    if (!topk) {
      rec.add(sp_id, rid, "maxsat.solve", t1 - sol.solve_seconds, t1);
      s.add("maxsat.solve_ms", sol.solve_seconds * 1e3);
      s.add("core.solve_prepared_ms", (t1 - t0) * 1e3);
      s.add("maxsat.unknown_frac",
            sol.status == fta::maxsat::MaxSatStatus::Unknown ? 1.0 : 0.0);
      useful += sol.sat_propagations;
      spent += sat_propagations() - p0;
    }

    // Workloads without PATCH traffic still measure the delta layer: one
    // weight-only probe edit per cold artefact (first event, p x 1.5).
    if (w.name() != "edit-mix" && !res.cache_hit) {
      ft::TreeDelta probe;
      probe.ops.push_back(ft::TreeDelta::weight(
          tree.event(0).name,
          std::min(0.9, tree.event(0).probability * 1.5)));
      const ft::FaultTree edited = ft::apply_delta(tree, probe);
      const std::uint64_t pc1 = core::MpmcsPipeline::prepare_calls();
      t0 = now_s();
      const core::DeltaApplication da =
          pipeline.apply_delta(edited, probe, *prep);
      t1 = now_s();
      rec.add(0, rid, "probe.apply_delta", t0, t1);
      s.add("core.apply_delta_ms", (t1 - t0) * 1e3);
      if (core::MpmcsPipeline::prepare_calls() != pc1 || !da.weight_only ||
          !da.session_rebased) {
        out.violations.push_back("weight-only probe edit on rid " +
                                 std::to_string(rid) +
                                 " re-prepared or lost its session");
      }
      lower_cache.erase(key);
    }
  }

  for (const char* k :
       {"format.parse_ms", "logic.encode_ms", "logic.hard_clauses",
        "preprocess.ms", "preprocess.removed_vars_frac", "core.prepare_ms",
        "core.prepare_self_ms", "core.solve_prepared_ms",
        "core.apply_delta_ms", "core.prepare_calls", "maxsat.solve_ms",
        "maxsat.unknown_frac", "engine.analyze_ms", "engine.queue_wait_ms",
        "front_end_ms"}) {
    out.metrics[k] = s.mean(k);
  }
  out.metrics["maxsat.useful_work_frac"] =
      spent == 0 ? 0.0 : static_cast<double>(useful) / static_cast<double>(spent);
  out.spans = std::move(rec.spans);
  return out;
}

}  // namespace bench
