// The benchmark's three seeded workloads. Each builds its inputs from the
// run seed, measures the SDK through its public API for the configured
// number of seconds, checks every output outside the timed regions, and
// fills a Result: the end-to-end metrics for an untraced run, or the
// per-layer metrics (plus the tracing overhead) for a traced run.
#pragma once

#include "util.hpp"

namespace perfbench {

Result run_build(const RunConfig &config);
Result run_serve_steady(const RunConfig &config);
Result run_serve_burst(const RunConfig &config);

}  // namespace perfbench
