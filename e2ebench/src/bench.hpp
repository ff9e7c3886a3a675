// Shared types of the end-to-end benchmark: the request model the
// workload generators produce, the per-request samples the HTTP client loop
// records, and the interfaces of the oracle and the layer replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "format/format.hpp"
#include "ft/fault_tree.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"

namespace bench {

namespace ft = fta::ft;
namespace gen = fta::gen;
namespace format = fta::format;

using Clock = std::chrono::steady_clock;

/// Seconds since the first call (one process-wide epoch, so spans of the
/// HTTP phase and the replay share a time axis).
double now_s();

/// std::thread::hardware_concurrency(), at least 1.
int hardware_threads();

// --- inputs -----------------------------------------------------------------

/// A tree the single-client workloads send once. The tree is rebuilt
/// from this recipe for the oracle after the timed window, so a run never
/// holds hundreds of generated trees in memory at once.
struct TreeSpec {
  enum class Family : std::uint8_t { Random, Chain, Ladder, Corpus };
  Family family = Family::Random;
  std::string shape;  ///< Label for per-shape reporting ("or", "vote-2of3"...).
  gen::GeneratorOptions random;
  gen::LadderOptions ladder;
  std::uint32_t chain_depth = 0;
  std::uint64_t seed = 0;
  format::TreeFormat format = format::TreeFormat::Galileo;
  std::string corpus_text;  ///< Corpus only: the file as read.
};

ft::FaultTree build_tree(const TreeSpec& spec);
/// The request's tree text in its format (corpus: the file verbatim).
std::string tree_text(const TreeSpec& spec, const ft::FaultTree& tree);

enum class ReqKind : std::uint8_t { Solve, TopK, Patch };

/// One request as the client sends it. Edit-mix PATCH bodies get the
/// etag spliced in at send time (it comes from the previous answer).
struct Request {
  ReqKind kind = ReqKind::Solve;
  std::string path;
  std::string body;
  std::string shape;
  int spec = -1;   ///< Single-client workloads: index into the spec table.
  int model = -1;  ///< Edit-mix: the model the request reads or writes.
  /// Edit-mix reads: the probability override applied to the model's
  /// registered text (event index, new probability); none = verbatim.
  std::optional<std::pair<ft::EventIndex, double>> nudge;
  ft::TreeDelta delta;       ///< PATCH only.
  double deadline_ms = 0.0;  ///< 0 = none.
};

/// An edit-mix plant model, registered through POST /v1/trees in set-up.
struct Model {
  ft::FaultTree tree;
  std::string solve_body;  ///< {"tenant", "tree"} for POST /v1/solve.
  /// Offset and length of each event's probability literal inside
  /// solve_body, so a what-if read costs one string splice.
  std::vector<std::size_t> prob_at, prob_len;
  std::vector<std::string> leaf_gates;  ///< Gates over basic events only.
  int owner = -1;                       ///< Client index; -1 = fleet model.
};

std::string solve_body(const std::string& text, format::TreeFormat fmt,
                       double deadline_ms, std::size_t top_k = 0);
Model make_model(ft::FaultTree tree, int owner, double deadline_ms);
/// The model's solve body with one probability literal replaced.
std::string nudged_body(const Model& m, ft::EventIndex e, double p);

/// Deterministic request stream of one workload and seed. Single-client
/// workloads draw from next(); edit-mix clients draw from next_for().
class Workload {
 public:
  /// Edit-mix runs min(2, hardware_threads()) clients; the others one.
  Workload(std::string name, std::uint64_t seed, const std::string& corpus_dir);
  const std::string& name() const { return name_; }
  int clients() const { return clients_; }

  Request next();                // cold-mixed, redundant-ladders
  Request next_for(int client);  // edit-mix

  /// Set-up's priming request of the single-client workloads: one
  /// POST /v1/solve of a fixed tree that no run sends again. Empty on
  /// edit-mix, which primes by registering its models.
  const std::string& priming_body() const { return priming_body_; }

  const std::vector<TreeSpec>& specs() const { return specs_; }
  const std::vector<Model>& models() const { return models_; }

 private:
  Request next_cold();
  Request next_ladder();
  Request spec_request(TreeSpec spec, double deadline_ms);

  std::string name_;
  std::uint64_t seed_;
  int clients_;
  std::uint64_t counter_ = 0;
  std::vector<TreeSpec> specs_;
  std::vector<std::string> corpus_;  ///< Paths still to send (cold-mixed).
  double deadline_ms_ = 0.0;
  std::string priming_body_;

  // edit-mix state
  std::vector<Model> models_;
  int fleet_ = -1;
  enum class Slot : std::uint8_t { Patch, WhatIf, Fleet, FleetTopK };
  struct ClientState {
    std::uint64_t rng_state = 0;
    std::uint64_t counter = 0;
    std::vector<Slot> block;  ///< Request kinds of the current block.
    std::uint64_t patches = 0;
    std::uint64_t what_ifs = 0;
    std::uint64_t fleet_reads = 0;
    std::uint64_t splices = 0;
    /// Per model: the event disabled for maintenance, restored by the
    /// model's next edit.
    std::map<int, ft::EventIndex> disabled;
  };
  std::vector<ClientState> client_state_;
};

// --- samples ----------------------------------------------------------------

struct Sample {
  Request req;
  std::uint64_t rid = 0;
  double start = 0.0;  ///< now_s() at send.
  double end = 0.0;    ///< now_s() when the full answer was read.
  int status = 0;      ///< 0 = transport failure.
  std::string body;    ///< Answer body (checked after the timed window).
  bool approximate = false;
  bool missed_deadline = false;
  bool malformed = false;  ///< 2xx whose body is not valid JSON.
  bool delta_landed = false;  ///< PATCH: the edit bumped the resource.
  double seconds() const { return end - start; }
  /// A failure in failed_frac: no 2xx, invalid JSON, an approximate answer
  /// or a missed deadline.
  bool failed() const {
    return status < 200 || status >= 300 || approximate || missed_deadline ||
           malformed;
  }
};

// --- oracle -----------------------------------------------------------------

struct OracleReport {
  std::size_t answers = 0;        ///< Answers inspected.
  std::size_t checked_bdd = 0;    ///< Compared with the BDD optimum.
  std::size_t checked_dp = 0;     ///< Compared with the tree-DP optimum only.
  std::size_t validity_only = 0;  ///< Cut checked valid+minimal only.
  std::size_t wrong = 0;          ///< Certified answers that disagree.
  /// 2xx answers that are not valid JSON: failed requests, not wrong ones.
  std::vector<std::uint64_t> malformed;
  std::vector<std::string> errors;  ///< First few disagreements.
};

/// Checks every 2xx answer in `samples` against the reference optimum of
/// the tree it answered. Runs on `threads` worker threads.
OracleReport check_answers(const Workload& w, const std::vector<Sample>& samples,
                           int threads);

// --- trace ------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t rid = 0;     ///< Request the span belongs to.
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

/// Per-layer numbers of the replay, merged into the trace-mode metrics.
struct ReplayReport {
  std::vector<Span> spans;
  std::map<std::string, double> metrics;  ///< per_layer metric name -> value
  std::vector<std::string> violations;  ///< Broken workload predictions.
};

/// Replays the inputs of `samples` (in send order) through the lower
/// public calls, recording one span per call, until `budget_s` of replay
/// wall time is spent.
ReplayReport replay(const Workload& w, const std::vector<Sample>& samples,
                    double budget_s, std::uint64_t first_span_id);

}  // namespace bench
