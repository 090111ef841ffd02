// perfbench: one seeded benchmark for the SDK's build, serve and device
// paths.
//
//   perfbench --workload build|serve_steady|serve_burst --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints every metric by name with its unit and clock, then, as the last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// (measured in a separate traced run) with --trace 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;
using perfbench::RunConfig;

[[noreturn]] void usage(const char *why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "build|serve_steady|serve_burst --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Result run_one(const RunConfig &config) {
  if (config.workload == "build") return perfbench::run_build(config);
  if (config.workload == "serve_steady")
    return perfbench::run_serve_steady(config);
  if (config.workload == "serve_burst")
    return perfbench::run_serve_burst(config);
  usage(("unknown workload '" + config.workload + "'").c_str());
}

/// Name, unit and clock of one gated metric; the lists below match
/// BENCHMARK.json.
struct MetricSpec {
  const char *name;
  const char *unit;
  const char *clock;
};

/// The end-to-end metrics every untraced run reports, whatever the workload.
const std::vector<MetricSpec> &end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "wall"},
      {"rss_mb", "MB", "wall"},
      {"throughput_per_s", "1/s", "wall"},
      {"cpu_us_per_op", "us", "cpu"},
      {"p50_ms", "ms", "wall"},
      {"p90_ms", "ms", "wall"},
  };
  return specs;
}

/// The per-layer metrics every traced run reports; a layer the workload
/// does not exercise reads 0.
const std::vector<MetricSpec> &per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"trace.overhead_pct", "%", "cpu"},
      {"frontend.parse_ms", "ms", "wall"},
      {"transforms.lower_ms", "ms", "wall"},
      {"transforms.canonicalize_ms", "ms", "wall"},
      {"transforms.esn_ms", "ms", "wall"},
      {"transforms.loops_ms", "ms", "wall"},
      {"hls.schedule_ms", "ms", "wall"},
      {"olympus.generate_ms", "ms", "wall"},
      {"ir.rewrite.ops_visited", "count", "count"},
      {"olympus.rejected", "count", "count"},
      {"sdk.cache.hit_ratio", "ratio", "count"},
      {"sdk.cache.store_ms", "ms", "wall"},
      {"sdk.cache.entries", "count", "count"},
      {"support.pool.speedup_cold", "ratio", "wall"},
      {"support.pool.speedup_warm", "ratio", "wall"},
      {"platform.dma_sim_us", "us", "sim"},
      {"platform.kernel_sim_us", "us", "sim"},
      {"serve.submit_us.p50", "us", "wall"},
      {"serve.submit_us.p99", "us", "wall"},
      {"serve.queue_wait_us.p50", "us", "wall"},
      {"serve.queue_wait_us.p90", "us", "wall"},
      {"serve.batch_size", "count", "count"},
      {"serve.backend_us", "us", "wall"},
      {"serve.cluster.forwarded_frac", "ratio", "count"},
      {"serve.cluster.busy_max_share", "ratio", "sim"},
      {"runtime.run_us_per_req", "us", "wall"},
      {"platform.launch_sim_us", "us", "sim"},
      {"resil.failover_frac", "ratio", "count"},
      {"resil.degraded_frac", "ratio", "count"},
      {"obs.events", "count", "count"},
      {"loadgen.late_p99_us", "us", "wall"},
      {"loadgen.late_max_us", "us", "wall"},
  };
  return specs;
}

/// Fills every gated metric the run did not set (per-layer metrics of
/// layers the workload does not exercise) with 0, and checks that every
/// end-to-end metric was measured and that the run set no metric, or unit,
/// the lists do not name.
bool complete(Result &result, bool trace) {
  const auto &specs = trace ? per_layer_metrics() : end_to_end_metrics();
  bool ok = true;
  for (const auto &[name, metric] : result.metrics) {
    const bool listed = std::any_of(specs.begin(), specs.end(), [&](const MetricSpec &s) {
      return name == s.name && metric.unit == s.unit;
    });
    if (!listed) {
      std::fprintf(stderr, "perfbench: metric %s [%s] is not in the list\n",
                   name.c_str(), metric.unit.c_str());
      ok = false;
    }
  }
  for (const auto &spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (!trace) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     spec.name);
        ok = false;
      }
      result.set(spec.name, 0.0, spec.unit, spec.clock);
    } else if (!std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", spec.name);
      ok = false;
    }
  }
  return ok;
}

void print_metric(const std::string &workload, const std::string &name,
                  const Metric &m) {
  std::printf("metric %s.%-32s %16.6f %-8s [%s]\n", workload.c_str(),
              name.c_str(), m.value, m.unit.c_str(), m.clock.c_str());
}

void print_json(const Result &r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  bool first = true;
  for (const auto &[name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char **argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char *end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("env: nproc=%u build_type=%s compiler=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);

  if (config.trace_out.empty())
    config.trace_out = "perfbench-trace-" + config.workload + ".json";
  Result r;
  const perfbench::StealMeter steal;
  try {
    r = run_one(config);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  r.note("host_steal_pct", 100.0 * steal.share(), "%", "wall");
  const bool ok = complete(r, config.trace);
  for (const auto &[name, m] : r.report) print_metric(config.workload, name, m);
  for (const auto &[name, m] : r.metrics) print_metric(config.workload, name, m);
  std::printf("ops: %s attempted=%lld failed=%lld (%.3f%%) correct=%s\n",
              config.workload.c_str(), static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              r.attempted > 0 ? 100.0 * static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              r.correct ? "true" : "false");
  if (!ok) return 1;
  print_json(r);
  return 0;
}
