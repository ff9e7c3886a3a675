// Analysis-as-a-service: the resident multi-tenant solve front-end.
//
// The batch engine (engine/AnalysisEngine) already owns the heavy
// machinery — prepared-instance LRU, solution memoization, incremental
// sessions, cancel/deadline tokens, a work-stealing pool. This layer
// turns it into a long-running server back-end:
//
//   * Request coalescing — concurrent requests whose structural key
//     matches (same tree shape/probabilities, same solver configuration,
//     same analysis kind) share ONE in-flight engine solve and fan the
//     result out; each requester renders the answer with its own event
//     names. A monitoring fleet hammering the same plant model costs one
//     solve, not N.
//   * Per-tenant admission control — bounded per-tenant and global
//     outstanding-work queues. A flooding tenant exhausts its own quota
//     (429) long before it can starve the global queue (503); shed
//     requests cost a JSON parse, not a solve.
//   * Deadline-aware scheduling — requests carry `deadline_ms`; ones the
//     queue cannot meet (estimated wait from queue depth x an EWMA of
//     recent solve times) are rejected up front with 503 instead of
//     being solved late, and admitted ones run under a cancel-token
//     deadline so an expired request frees its worker at the next poll.
//     An idle queue is refused only on the configured floor, never on
//     the EWMA, which would otherwise stop learning and latch shut.
//   * Session-pool memory bound — the engine evicts prepared-tree LRU
//     entries (and with them their incremental SAT sessions) once the
//     pool's total session footprint passes the configured cap.
//
//   * Stateful tree resources — POST /v1/trees registers a mutable tree
//     (eagerly prepared by the engine); PATCH applies a TreeDelta and
//     re-solves against the patched artefact (sessions rebased, only
//     dirty strata re-prepared) instead of re-preparing from scratch.
//     Edits are etag-guarded ("<id>-v<version>"; stale etag = 409), trees
//     are tenant-owned (a foreign id answers 404, indistinguishable from
//     absent), per-tenant creation is quota-bounded (429) and the global
//     pool is LRU-evicted at capacity.
//
// Endpoints (JSON in/out, schema shared with the batch CLI):
//   POST /v1/solve        {"tenant", "tree", "solver"?, "deadline_ms"?}
//   POST /v1/topk         {..., "k"}
//   POST /v1/trees        {"tenant", "tree", "solver"?} -> {id, etag}
//   GET  /v1/trees        {"tenant"?} -> owned resources
//   GET  /v1/trees/{id}   {"tenant"?} -> metadata + tree text
//   PATCH /v1/trees/{id}  {"tenant"?, "etag"?, "delta": [...],
//                          "deadline_ms"?} -> re-solved MPMCS + lineage
//   DELETE /v1/trees/{id} {"tenant"?}
//   GET  /v1/healthz
//   GET  /v1/statsz  counters + p50/p99 latency, global and per tenant
//
// The transport (service/http_server) carries no headers, so the etag
// and tenant ride in the JSON body on every tree-resource request.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/analysis_engine.hpp"
#include "service/http_server.hpp"
#include "service/journal.hpp"
#include "service/stats.hpp"

namespace fta::service {

struct ServiceOptions {
  /// Engine worker threads; 0 = hardware concurrency.
  std::size_t engine_threads = 0;
  /// Prepared-tree LRU entries.
  std::size_t cache_capacity = 512;
  /// Reuse whole solutions for repeated (structure, config) pairs.
  bool memoize_results = true;
  /// Total incremental-session memory across all cached trees; above it
  /// the engine evicts LRU entries until back under. 0 = unbounded.
  std::size_t session_memory_cap_bytes = std::size_t{2} << 30;
  /// Max outstanding (queued + running) requests per tenant; beyond it
  /// requests are shed with 429.
  std::size_t tenant_queue_limit = 64;
  /// Max outstanding requests across all tenants; beyond it 503.
  std::size_t global_queue_limit = 512;
  /// Applied when a request carries no deadline_ms; 0 = no deadline.
  double default_deadline_seconds = 0.0;
  /// Upper bound on client deadlines (longer ones are clamped).
  double max_deadline_seconds = 300.0;
  /// Floor for the per-solve service-time estimate used by the
  /// deadline-aware admission check (the EWMA starts cold).
  double min_service_estimate_seconds = 0.002;
  /// Cap on top-k enumeration length per request.
  std::size_t max_top_k = 64;
  /// Max registered tree resources per tenant; POST /v1/trees beyond it
  /// is shed with 429.
  std::size_t tenant_tree_limit = 16;
  /// Global cap on registered tree resources; creating past it evicts
  /// the least-recently-used resource (engine use tick). 0 = unbounded.
  std::size_t max_trees = 64;
  /// Fault injection forwarded to the engine (see
  /// EngineOptions::debug_solve_delay_seconds); test-only.
  double debug_solve_delay_seconds = 0.0;
  /// Crash-safe /v1/trees persistence: directory for the append-only
  /// journal + snapshot (see service/journal). Empty = in-memory only.
  std::string journal_dir;
  /// fsync the journal before acknowledging each tree mutation.
  bool journal_fsync = true;
  std::size_t journal_compact_threshold_bytes = 4u << 20;
  /// Solver watchdog (EngineOptions::watchdog_*): scan interval for
  /// in-flight solves; a solve with no SAT-level progress across
  /// `watchdog_stall_intervals` scans is cancelled and its resource
  /// quarantined for a cold reset. 0 = off.
  double watchdog_interval_seconds = 1.0;
  std::size_t watchdog_stall_intervals = 5;
  /// Warm-session self-reset multiple (EngineOptions::warm_reset_multiple).
  double warm_reset_multiple = 8.0;
  /// Base pipeline configuration; requests may override the solver.
  core::PipelineOptions pipeline;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions opts = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Routes one HTTP request. Never throws: every failure path is a
  /// structured JSON error response.
  HttpResponse handle(const HttpRequest& request);

  /// Flips healthz to "draining" and sheds new solves with 503; requests
  /// already admitted keep running (the HTTP layer drains them).
  void begin_shutdown();

  engine::AnalysisEngine& engine() noexcept { return engine_; }
  ServiceStats& stats() noexcept { return stats_; }
  std::size_t queue_depth() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }
  const ServiceOptions& options() const noexcept { return opts_; }

  /// The /v1/statsz document (exposed for the CLI's final report).
  std::string statsz_json();

  /// The per-solve admission estimate: an EWMA of recent engine-run
  /// times (memo hits excluded), never below
  /// ServiceOptions::min_service_estimate_seconds.
  double service_estimate() const;
  /// Feeds one engine-run time into the estimate (every successful
  /// engine run does).
  void observe_service_time(double seconds);

 private:
  struct Flight {
    std::shared_future<engine::AnalysisResult> future;
  };
  using FlightPtr = std::shared_ptr<Flight>;

  HttpResponse handle_routed(const HttpRequest& request);
  HttpResponse handle_solve(const HttpRequest& request,
                            engine::AnalysisKind kind);
  HttpResponse handle_healthz();
  HttpResponse handle_readyz();
  /// Test-only fault-injection control plane (/v1/failz); answers 501
  /// unless the build compiled the failpoint registry in.
  HttpResponse handle_failz(const HttpRequest& request);
  /// Journal replay on boot: re-registers every recovered resource under
  /// its original id/version (identical etags) and owner.
  void replay_journal();

  // --- the /v1/trees resource API --------------------------------------
  HttpResponse handle_tree_create(const HttpRequest& request);
  HttpResponse handle_tree_list(const HttpRequest& request);
  HttpResponse handle_tree_get(const HttpRequest& request,
                               const std::string& id);
  HttpResponse handle_tree_patch(const HttpRequest& request,
                                 const std::string& id);
  HttpResponse handle_tree_delete(const HttpRequest& request,
                                  const std::string& id);
  /// The resource's owning tenant, or nullopt when unknown. Ownership is
  /// the visibility boundary: a wrong-tenant probe is answered exactly
  /// like a missing id.
  std::optional<std::string> tree_owner(const std::string& id) const;

  /// The admission check's expected wait for a request arriving with
  /// `global_depth` requests outstanding.
  double estimate_wait(std::size_t global_depth) const;

  ServiceOptions opts_;
  ServiceStats stats_;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> outstanding_{0};

  std::mutex flights_mutex_;
  std::unordered_map<std::string, FlightPtr> flights_;

  /// Tree-resource ownership (id -> tenant). The engine's registry is
  /// tenant-blind; this map is what scopes ids, enforces the per-tenant
  /// creation quota and drives LRU eviction bookkeeping.
  mutable std::mutex trees_mutex_;
  std::unordered_map<std::string, std::string> tree_owners_;
  std::atomic<std::uint64_t> trees_created_{0};
  std::atomic<std::uint64_t> trees_evicted_{0};
  std::atomic<std::uint64_t> etag_conflicts_{0};

  mutable std::mutex estimate_mutex_;
  double ewma_seconds_ = 0.0;
  bool ewma_primed_ = false;

  /// Durable tree-resource store; declared before engine_ so recovered
  /// state outlives every in-flight engine request on shutdown.
  TreeJournal journal_;
  std::atomic<bool> ready_{false};
  std::uint64_t restored_trees_ = 0;  ///< Written once in the constructor.

  /// Declared last so its destructor (which joins the pool) runs first.
  engine::AnalysisEngine engine_;
};

}  // namespace fta::service
