#include "serve/qos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace everest::serve {

void TokenBucket::refill(double now_us) {
  if (now_us > last_us_) {
    tokens_ = std::min(burst_, tokens_ + rate_per_s_ * (now_us - last_us_) / 1e6);
    last_us_ = now_us;
  }
}

bool TokenBucket::try_take(double now_us) {
  if (rate_per_s_ <= 0.0) return true;
  refill(now_us);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

double TokenBucket::available(double now_us) {
  if (rate_per_s_ <= 0.0) return std::numeric_limits<double>::infinity();
  refill(now_us);
  return tokens_;
}

AdmissionQueue::Tenant &AdmissionQueue::tenant(const std::string &name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant t;
    t.vtime = global_vtime_;
    it = tenants_.emplace(name, std::move(t)).first;
  }
  return it->second;
}

void AdmissionQueue::configure_tenant(const std::string &name,
                                      const TenantConfig &config) {
  Tenant &t = tenant(name);
  t.config = config;
  if (t.config.weight <= 0.0) t.config.weight = 1.0;
  // A bucket whose burst is below one token could never accumulate the one
  // token an admission costs, so a rate-limited tenant with burst < 1 would
  // shed every request forever. Clamp at the QoS layer so the effective
  // config is what introspection reports.
  if (t.config.burst < 1.0) t.config.burst = 1.0;
  t.bucket = TokenBucket(t.config.rate_per_s, t.config.burst);
}

support::Status AdmissionQueue::admit(PendingRequest &pending, double now_us,
                                      ShedReason *reason) {
  if (reason != nullptr) *reason = ShedReason::None;
  Tenant &t = tenant(pending.request.tenant);
  std::size_t bound = t.config.queue_bound > 0 ? t.config.queue_bound
                                               : default_bound_;
  if (t.waiting.size() >= bound) {
    if (reason != nullptr) *reason = ShedReason::QueueBound;
    return support::Status(support::Error::unavailable(
        "tenant '" + pending.request.tenant + "' queue bound (" +
        std::to_string(bound) + ") exceeded"));
  }
  if (!t.bucket.try_take(now_us)) {
    if (reason != nullptr) *reason = ShedReason::RateLimit;
    return support::Status(support::Error::unavailable(
        "tenant '" + pending.request.tenant + "' over its admission rate"));
  }
  // A tenant going idle->backlogged resumes at the global virtual time, so
  // it cannot bank credit while idle and then starve everyone else.
  if (t.waiting.empty()) t.vtime = std::max(t.vtime, global_vtime_);
  // Priority-ordered, stable within equal priority.
  auto pos = std::find_if(t.waiting.begin(), t.waiting.end(),
                          [&](const PendingRequest &q) {
                            return q.request.priority < pending.request.priority;
                          });
  admit_times_.insert(pending.admit_us);
  if (pending.request.deadline_us >= 0.0) {
    deadlines_.insert(pending.request.deadline_us);
  }
  t.waiting.insert(pos, std::move(pending));
  ++size_;
  if (last_admit_us_ >= 0.0) {
    double gap = std::max(0.0, now_us - last_admit_us_);
    mean_gap_us_ = std::isinf(mean_gap_us_)
                       ? gap
                       : mean_gap_us_ + kAdmitGapWeight * (gap - mean_gap_us_);
  }
  last_admit_us_ = now_us;
  return support::Status::ok();
}

std::optional<PendingRequest> AdmissionQueue::pop(double /*now_us*/) {
  if (size_ == 0) return std::nullopt;
  Tenant *best = nullptr;
  for (auto &[name, t] : tenants_) {
    if (t.waiting.empty()) continue;
    if (best == nullptr || t.vtime < best->vtime) best = &t;
    // std::map iterates names in order, so "first seen wins" on equal vtime
    // is the lexicographic tie-break.
  }
  if (best == nullptr) return std::nullopt;
  PendingRequest out = std::move(best->waiting.front());
  best->waiting.pop_front();
  --size_;
  global_vtime_ = best->vtime;
  best->vtime += 1.0 / best->config.weight;
  auto admit_it = admit_times_.find(out.admit_us);
  if (admit_it != admit_times_.end()) admit_times_.erase(admit_it);
  if (out.request.deadline_us >= 0.0) {
    auto deadline_it = deadlines_.find(out.request.deadline_us);
    if (deadline_it != deadlines_.end()) deadlines_.erase(deadline_it);
  }
  return out;
}

double AdmissionQueue::oldest_admit_us() const {
  return admit_times_.empty() ? 0.0 : *admit_times_.begin();
}

double AdmissionQueue::earliest_deadline_us() const {
  return deadlines_.empty() ? -1.0 : *deadlines_.begin();
}

std::size_t AdmissionQueue::tenant_depth(const std::string &name) const {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? 0 : it->second.waiting.size();
}

}  // namespace everest::serve
