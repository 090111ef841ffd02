// everest/serve/batcher.hpp
//
// Dynamic-batching policy: pure decision functions over (queue depth, age of
// the oldest queued request, now, measured arrival gap). Kept free of
// threads and clocks so the policy is unit-testable on its own; the Server
// supplies the lock, the condition-variable waits, the wall clock, and the
// arrival-gap estimate (AdmissionQueue::mean_admit_gap_us()).
//
// The policy is work-conserving: a free dispatcher cuts whatever is queued
// unless the measured arrival rate predicts the batch fills before its wait
// budget runs out, and it stops holding once that prediction fails. Under a
// backlog batches fill from the queue itself (depth reaches max_batch); the
// prediction decides when a submitter streams requests only a little slower
// than the dispatchers drain them.
#pragma once

#include <algorithm>
#include <cstddef>

namespace everest::serve {

/// Dispatch a batch when `max_batch` requests are queued, or when the server
/// is draining, or when holding it cannot pay off: a partial batch is held
/// only while the mean arrival gap predicts `max_batch` fills within the
/// remaining wait budget, and never longer than `max_wait_us` of wall time
/// for the oldest queued request (0 = never hold, i.e. batches only form
/// from requests already queued).
struct BatcherOptions {
  std::size_t max_batch = 8;
  double max_wait_us = 0.0;
};

class DynamicBatcher {
public:
  DynamicBatcher() = default;
  explicit DynamicBatcher(BatcherOptions options) : options_(options) {
    if (options_.max_batch == 0) options_.max_batch = 1;
    if (options_.max_wait_us < 0.0) options_.max_wait_us = 0.0;
  }

  [[nodiscard]] const BatcherOptions &options() const { return options_; }
  [[nodiscard]] std::size_t max_batch() const { return options_.max_batch; }

  /// Whether a dispatcher holding the queue lock should cut a batch now.
  /// `earliest_deadline_us` is the soonest absolute deadline pending in the
  /// queue (< 0 when none): once it has passed, the dispatcher must cut
  /// immediately so the expired request is shed eagerly instead of sitting
  /// in the queue until the wait budget of `max_wait_us` runs out.
  /// `expected_gap_us` is the mean gap between admissions: the batch is held
  /// only while `hold_us` is not negative, i.e. while the missing requests
  /// are predicted to arrive within the wait budget. 0 means back-to-back
  /// arrivals (always hold until the budget runs out); +inf means no arrival
  /// is expected (dispatch now).
  [[nodiscard]] bool should_dispatch(std::size_t depth, double oldest_admit_us,
                                     double now_us, bool draining,
                                     double earliest_deadline_us = -1.0,
                                     double expected_gap_us = 0.0) const {
    if (depth == 0) return false;
    if (depth >= options_.max_batch) return true;
    if (draining) return true;
    if (earliest_deadline_us >= 0.0 && now_us >= earliest_deadline_us) {
      return true;
    }
    if (now_us - oldest_admit_us >= options_.max_wait_us) return true;
    return hold_us(depth, oldest_admit_us, now_us, earliest_deadline_us,
                   expected_gap_us) < 0.0;
  }

  /// How much longer (us) a partial batch of `depth` may be held before its
  /// predicted fill stops fitting: the wait budget minus the time the
  /// `max_batch - depth` missing requests take at `expected_gap_us` each.
  /// Negative means dispatch now. While no request arrives the slack shrinks
  /// with the budget, so a dispatcher that waits this long and sees nothing
  /// cuts the batch then rather than at the end of `max_wait_us`.
  [[nodiscard]] double hold_us(std::size_t depth, double oldest_admit_us,
                               double now_us, double earliest_deadline_us,
                               double expected_gap_us) const {
    double budget =
        wait_budget_us(oldest_admit_us, now_us, earliest_deadline_us);
    if (depth >= options_.max_batch) return budget;
    // Multiplied out so a zero gap leaves the whole budget and an infinite
    // one leaves none, without dividing by either.
    return budget -
           expected_gap_us * static_cast<double>(options_.max_batch - depth);
  }

  /// How long (us) the dispatcher may keep waiting for the batch to fill
  /// before the oldest request's wait budget runs out — capped at the
  /// earliest pending deadline, so a request never outlives its deadline
  /// inside the queue just because `max_wait_us` is large.
  [[nodiscard]] double wait_budget_us(double oldest_admit_us, double now_us,
                                      double earliest_deadline_us = -1.0) const {
    double budget =
        std::max(0.0, options_.max_wait_us - (now_us - oldest_admit_us));
    if (earliest_deadline_us >= 0.0) {
      budget = std::min(budget, std::max(0.0, earliest_deadline_us - now_us));
    }
    return budget;
  }

private:
  BatcherOptions options_;
};

}  // namespace everest::serve
