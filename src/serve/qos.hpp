// everest/serve/qos.hpp
//
// Per-tenant QoS primitives of the serving layer: token-bucket admission
// rate limits, and a bounded, weighted-fair admission queue (stride
// scheduling across tenants, priority order within a tenant). Everything is
// clock-explicit — callers pass `now_us` — so the policies are exactly
// testable; the queue itself is not synchronized and is owned by the
// Server's lock.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "serve/request.hpp"
#include "support/expected.hpp"

namespace everest::serve {

/// Deterministic token bucket: refills `rate_per_s` tokens per second of the
/// caller's clock up to `burst`; each admitted request takes one token. A
/// non-positive rate disables limiting entirely.
class TokenBucket {
public:
  TokenBucket() = default;
  TokenBucket(double rate_per_s, double burst)
      : rate_per_s_(rate_per_s), burst_(burst < 1.0 ? 1.0 : burst),
        tokens_(burst_) {}

  /// Takes one token at clock time `now_us`; false means the caller should
  /// shed the request.
  bool try_take(double now_us);

  /// Tokens available at `now_us` (after refill), for introspection.
  [[nodiscard]] double available(double now_us);

private:
  void refill(double now_us);

  double rate_per_s_ = 0.0;
  double burst_ = 1.0;
  double tokens_ = 1.0;
  double last_us_ = 0.0;
};

/// A request admitted into the server, waiting for (or riding in) a batch.
struct PendingRequest {
  std::uint64_t id = 0;
  Request request;
  double admit_us = 0.0;
  std::promise<Response> promise;
};

/// Why an admission was shed (both surface as ErrorCode::Unavailable).
enum class ShedReason { None, QueueBound, RateLimit };

/// Bounded multi-tenant queue with weighted-fair dequeue.
///
/// Fairness is stride scheduling: each tenant carries a virtual time that
/// advances by 1/weight per dequeued request, and pop() always serves the
/// backlogged tenant with the smallest virtual time (ties break on the
/// tenant name, so the order is fully deterministic). A tenant becoming
/// backlogged resumes at the current global virtual time, so idling never
/// banks credit. Within a tenant, higher `priority` dequeues first and
/// equal priorities stay FIFO.
class AdmissionQueue {
public:
  explicit AdmissionQueue(std::size_t default_bound = 1024)
      : default_bound_(default_bound) {}

  /// Installs (or replaces) a tenant's QoS configuration. Unknown tenants
  /// are lazily created with defaults on first admit.
  void configure_tenant(const std::string &name, const TenantConfig &config);

  /// Admits `pending` at clock time `now_us`. On success the request is
  /// moved into the queue; on shedding (queue bound, rate limit) the status
  /// carries ErrorCode::Unavailable, `pending` is left untouched, and
  /// `reason` (when non-null) says which policy fired.
  support::Status admit(PendingRequest &pending, double now_us,
                        ShedReason *reason = nullptr);

  /// Weighted-fair pop; nullopt when empty.
  std::optional<PendingRequest> pop(double now_us);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Earliest admit_us over all queued requests (0 when empty). The batcher
  /// ages batches off this. O(log n): admit/pop maintain a running multiset
  /// of admit times, so the dispatcher's wait loop never scans the queues.
  [[nodiscard]] double oldest_admit_us() const;
  /// Earliest absolute deadline over all queued requests that carry one
  /// (-1 when none). The dispatcher caps its batch-fill wait at this time so
  /// an expired request is shed eagerly instead of aging in the queue.
  [[nodiscard]] double earliest_deadline_us() const;
  /// Mean gap (us) between successive admissions: an EWMA with weight
  /// kAdmitGapWeight on the newest gap, seeded with the first gap. +inf
  /// until two admissions have been seen, so a lone first request is never
  /// held for a batch that nothing predicts will fill.
  [[nodiscard]] double mean_admit_gap_us() const { return mean_gap_us_; }
  [[nodiscard]] std::size_t tenant_depth(const std::string &name) const;

private:
  struct Tenant {
    TenantConfig config;
    TokenBucket bucket;
    std::deque<PendingRequest> waiting;
    double vtime = 0.0;
  };

  Tenant &tenant(const std::string &name);

  std::size_t default_bound_;
  std::size_t size_ = 0;
  double global_vtime_ = 0.0;
  std::map<std::string, Tenant> tenants_;
  /// Running minima maintained by admit()/pop(): admit times of every queued
  /// request, and the absolute deadlines of the queued requests that have
  /// one. Keeps oldest_admit_us()/earliest_deadline_us() off the O(queue)
  /// scan the dispatcher wait loop would otherwise repeat per iteration.
  std::multiset<double> admit_times_;
  std::multiset<double> deadlines_;
  /// Arrival-rate estimate behind mean_admit_gap_us(); last_admit_us_ < 0
  /// until the first admission.
  static constexpr double kAdmitGapWeight = 1.0 / 8.0;
  double last_admit_us_ = -1.0;
  double mean_gap_us_ = std::numeric_limits<double>::infinity();
};

}  // namespace everest::serve
