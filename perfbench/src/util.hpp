// Shared plumbing of the seeded benchmark: clocks, sample statistics, the
// result record every workload fills, and the in-memory span tracer used by
// traced runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ clocks

/// Monotonic wall clock in microseconds since the first call in the process.
double wall_us();
/// Process CPU time (all threads) in microseconds.
double cpu_us();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

// -------------------------------------------------------------- host steal

/// Share of the machine's CPU time the hypervisor took away from this
/// virtual machine (the "steal" column of /proc/stat) since construction;
/// 0 where the kernel does not report it. Runs print it: on a shared VM,
/// steal comes in bursts that slow every measurement.
class StealMeter {
public:
  StealMeter();
  [[nodiscard]] double share() const;

private:
  std::uint64_t steal_ = 0, total_ = 0;
};

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);
double mean(const std::vector<double> &xs);
/// Geometric mean of positive values; 0 for an empty sample.
double geomean(const std::vector<double> &xs);

// ------------------------------------------------------------------ seeds

/// Derives an independent 64-bit seed for one consumer of randomness
/// (`stream` names it) from the run's single --seed.
std::uint64_t derive_seed(std::uint64_t seed, const std::string &stream);

// ----------------------------------------------------------------- result

/// One named metric with its unit and the clock it was taken on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;  // wall | cpu | sim | count
};

/// What one workload run reports. `metrics` holds the gated metrics (the
/// end-to-end set, or the per-layer set of a traced run); `report` holds
/// every further figure the run prints for people (issue-level metric
/// names, diagnostics), which the final JSON line does not carry.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, Metric>> report;

  void set(const std::string &name, double value, const std::string &unit,
           const std::string &clock) {
    metrics[name] = Metric{value, unit, clock};
  }
  void note(const std::string &name, double value, const std::string &unit,
            const std::string &clock) {
    report.emplace_back(name, Metric{value, unit, clock});
  }
  /// Records a failed output check (counts as a failed operation).
  void mismatch(const std::string &what);
};

/// Arguments every workload receives.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace_event JSON written by traced runs
};

/// Repeats `setup` (one complete set-up of the workload) `times` times and
/// returns the median wall seconds; the instance built by the last call is
/// the one the run measures. `teardown`, when given, releases the previous
/// instance before each repeat, outside the timed region.
double median_setup_s(int times, const std::function<void()> &setup,
                      const std::function<void()> &teardown = {});

// ----------------------------------------------------------------- tracer

/// One recorded span. Spans of one request share `request` (> 0); `parent`
/// is the id of the enclosing span (0 for a root).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::string track;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Thread-safe in-memory span store. Spans are only written out when the
/// run ends (write_chrome), so recording costs one locked push.
class Tracer {
public:
  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, std::string track, double start_us,
                    double end_us, std::uint64_t parent = 0,
                    std::uint64_t request = 0);
  /// Reserves an id for a span whose children are recorded before it.
  std::uint64_t reserve_id();
  void add_with_id(std::uint64_t id, std::string name, std::string track,
                   double start_us, double end_us, std::uint64_t parent = 0,
                   std::uint64_t request = 0);

  [[nodiscard]] std::size_t size() const;

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its children, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_time_us() const;

  /// Writes a Chrome trace_event JSON file (loads in Perfetto): request
  /// spans become async slices keyed by the request id, so one request's
  /// layers nest on one row; other spans become complete events per track.
  /// The self-time table travels in "otherData".
  bool write_chrome(const std::string &path) const;

private:
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Prints the self-time table of a tracer to stdout.
void print_self_times(const Tracer &tracer);

}  // namespace perfbench
