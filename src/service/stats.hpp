// Serving metrics: lock-free latency histograms and per-tenant counters.
//
// Every later speedup must be visible as serving throughput, so /v1/statsz
// exposes the full funnel per tenant: admitted vs rejected, coalesced vs
// solved, memo/cache hits, queue depth, and latency quantiles. Recording
// sits on the request hot path (target: 10k+ req/s), so counters are
// relaxed atomics and the histogram uses fixed log2 buckets — quantiles
// are read rarely, writes must be a couple of atomic increments.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace fta::service {

/// Log2-bucketed latency histogram over microseconds: bucket i holds
/// samples in [2^(i-1), 2^i) µs, bucket 0 holds sub-microsecond samples.
/// Quantile reads return the bucket's upper bound — at most 2x off, which
/// is plenty for a p99 regression gate.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;  ///< up to ~2^39 µs ≈ 6 days

  void record_seconds(double seconds) noexcept {
    double us = seconds * 1e6;
    if (us < 0.0) us = 0.0;
    const auto v = static_cast<std::uint64_t>(us);
    std::size_t bucket = std::bit_width(v);  // 0 for v == 0
    if (bucket >= kBuckets) bucket = kBuckets - 1;
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Upper bound (seconds) of the bucket holding the q-quantile sample;
  /// 0 when empty. q in [0, 1].
  double quantile_seconds(double q) const noexcept {
    std::uint64_t total = 0;
    std::uint64_t counts[kBuckets];
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) {
        return static_cast<double>(std::uint64_t{1} << i) * 1e-6;
      }
    }
    return static_cast<double>(std::uint64_t{1} << (kBuckets - 1)) * 1e-6;
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
};

/// One tenant's funnel. All counters relaxed; read skew is acceptable.
struct TenantCounters {
  std::atomic<std::uint64_t> requests{0};       ///< Admission attempts.
  std::atomic<std::uint64_t> ok{0};             ///< 2xx responses.
  std::atomic<std::uint64_t> coalesced{0};      ///< Joined an in-flight solve.
  std::atomic<std::uint64_t> memo_hits{0};      ///< Whole-solution reuse.
  std::atomic<std::uint64_t> cache_hits{0};     ///< Prepared-artefact reuse.
  std::atomic<std::uint64_t> engine_solves{0};  ///< Actual engine runs.
  /// Engine runs split by what answered them; the two sum to
  /// engine_solves. Closed form: shared-free trees on the default path,
  /// no Step 5. MaxSAT: everything else, top-k included.
  std::atomic<std::uint64_t> closed_form_solves{0};
  std::atomic<std::uint64_t> maxsat_solves{0};
  std::atomic<std::uint64_t> rejected_quota{0};     ///< 429: tenant queue full.
  std::atomic<std::uint64_t> rejected_capacity{0};  ///< 503: global queue full.
  std::atomic<std::uint64_t> rejected_deadline{0};  ///< 503: unmeetable.
  std::atomic<std::uint64_t> deadline_exceeded{0};  ///< 504: expired in flight.
  std::atomic<std::uint64_t> degraded{0};  ///< 200-approximate: incumbent
                                           ///< returned after deadline expiry.
  std::atomic<std::uint64_t> bad_requests{0};       ///< 4xx parse/validation.
  std::atomic<std::uint64_t> errors{0};             ///< 5xx analysis failures.
  std::atomic<std::int64_t> outstanding{0};  ///< Admitted, not yet answered.
  LatencyHistogram latency;  ///< Admitted requests, arrival to response.
};

/// Tenant registry. Tenants are created on first sight and never removed
/// (the tenant set is operator-controlled, not attacker-controlled — the
/// admission layer rejects unknown tenants when a quota map is present).
class ServiceStats {
 public:
  TenantCounters& tenant(const std::string& name) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = tenants_.find(name);
      if (it != tenants_.end()) return *it->second;
      return *tenants_.emplace(name, std::make_unique<TenantCounters>())
                  .first->second;
    }
  }

  /// Stable snapshot of tenant names for reporting.
  std::vector<std::string> tenant_names() const {
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(mutex_);
    names.reserve(tenants_.size());
    for (const auto& [name, _] : tenants_) names.push_back(name);
    return names;
  }

  /// Null when the tenant has never been seen.
  const TenantCounters* find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
  }

  TenantCounters& global() noexcept { return global_; }
  const TenantCounters& global() const noexcept { return global_; }

 private:
  TenantCounters global_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<TenantCounters>> tenants_;
};

}  // namespace fta::service
