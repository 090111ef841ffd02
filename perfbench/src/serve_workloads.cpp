// The serving workloads.
//
// `serve_steady`: live map matching (the Fig. 4 ConDRust graph, which has a
// fold, so the host backend runs it per request) at two fixed open-loop
// Poisson rates on one serve::Server with 2 dispatchers and max_batch 16.
// The backend chain is the one Basecamp::make_server builds — a
// DeviceBackend on a simulated alveo-u55c, then the host dfg backend — with
// a launch watchdog, so the seeded 1% kernel-timeout plan fails batches
// over to the host.
//
// `serve_burst`: bulk replay plus one live tenant on serve::Cluster (2 nodes
// x 1 dispatcher, ElasticDeviceBackend) over the CLI's stateless serve_pipe
// graph. Three replay tenants submit a 5x10^4-request backlog before
// Cluster::start(); a live tenant then arrives open-loop until the backlog
// has drained.
//
// Every request is timed from the moment it was due, and every response is
// byte-compared with an unbatched runtime::execute_dfg of the same request
// after the timed region.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "frontend/condrust_parser.hpp"
#include "obs/trace.hpp"
#include "platform/device.hpp"
#include "platform/fault_injector.hpp"
#include "platform/xrt.hpp"
#include "serve/cluster.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "usecases/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace es = everest::serve;
namespace er = everest::runtime;
namespace tr = everest::usecases::traffic;

constexpr int kSetupRepeats = 21;
/// Latency recorded for a shed or failed request: it misses every limit.
constexpr double kFailedLatencyMs = 1e9;

double exp_interval_us(everest::support::Pcg32 &rng, double rate_per_s) {
  return -std::log(1.0 - rng.uniform()) / rate_per_s * 1e6;
}

/// Open-loop arrival schedule: Poisson due times (us from the phase start).
std::vector<double> poisson_schedule(everest::support::Pcg32 &rng,
                                     double rate_per_s, double seconds) {
  std::vector<double> due;
  for (double t = exp_interval_us(rng, rate_per_s); t < seconds * 1e6;
       t += exp_interval_us(rng, rate_per_s)) {
    due.push_back(t);
  }
  return due;
}

void sleep_until_us(double target_us) {
  const double wait = target_us - wall_us();
  if (wait > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(wait));
}

bool same_bytes(const er::Record &a, const er::Record &b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// One open-loop request: when it was due, when submit() was called and
/// returned (bench clock, us), and its response.
struct Sent {
  std::optional<std::future<es::Response>> future;
  double due = 0.0, s0 = 0.0, s1 = 0.0;
  er::Record record;  // the input record, kept for the output check
};

/// A completed response waiting for its output check.
struct PendingCheck {
  er::Record record;  // the request's input record
  std::map<std::string, er::Record> outputs;
};

/// Byte-compares one response with an unbatched execution of its request;
/// returns an empty string when they agree.
std::string check_response(const PendingCheck &check, const std::string &input,
                           const everest::ir::Module &graph,
                           const er::NodeRegistry &registry) {
  std::map<std::string, er::Stream> single{{input, er::Stream{check.record}}};
  auto direct = er::execute_dfg(graph, registry, single, 1);
  if (!direct) return "unbatched execution failed: " + direct.error().message;
  for (const auto &[name, stream] : *direct) {
    auto it = check.outputs.find(name);
    if (stream.size() != 1 || it == check.outputs.end() ||
        !same_bytes(stream[0], it->second)) {
      return "output '" + name + "' differs from the unbatched run";
    }
  }
  return {};
}

/// Checks every pending response on a few threads, outside the timed
/// regions; each mismatch counts as a failed operation.
void run_checks(const std::vector<PendingCheck> &checks, const std::string &input,
                const everest::ir::Module &graph, const er::NodeRegistry &registry,
                Result &result) {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::string> why(checks.size());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < checks.size(); i += threads)
        why[i] = check_response(checks[i], input, graph, registry);
    });
  }
  for (auto &th : pool) th.join();
  for (std::size_t i = 0; i < checks.size(); ++i)
    if (!why[i].empty()) result.mismatch("response " + std::to_string(i) + ": " + why[i]);
  std::printf("checks: %zu responses compared with unbatched runs\n", checks.size());
}

/// Latency quantile over every attempted request, failed ones reading
/// kFailedLatencyMs.
double latency_quantile(const std::vector<double> &ms, std::int64_t failed,
                        double q) {
  std::vector<double> all = ms;
  all.insert(all.end(), static_cast<std::size_t>(failed), kFailedLatencyMs);
  return quantile(std::move(all), q);
}

// ======================================================== serve_steady

constexpr double kLoRate = 2'000.0;
constexpr double kHiRate = 8'000.0;
constexpr int kSteadyTenants = 4;
constexpr int kGridN = 40;
constexpr std::size_t kPointPool = 4'096;
constexpr double kLaunchDeadlineUs = 20.0;
/// Traced runs keep the spans of every kTraceEvery-th request (all requests
/// still feed the per-layer metrics), which bounds the trace file.
constexpr std::size_t kTraceEvery = 8;
constexpr double kWindowUs = 1e6;  // latency quantiles are taken per 1 s window

/// Inputs and the serving graph of the steady workload.
struct SteadyEnv {
  tr::RoadNetwork net;
  std::vector<tr::GpsPoint> points;  // request i uses points[i % pool]
  std::shared_ptr<const everest::ir::Module> graph;
  std::shared_ptr<er::NodeRegistry> registry;
};

/// The seeded inputs: the road network and a pool of noisy GPS points.
SteadyEnv make_steady_inputs(std::uint64_t seed) {
  SteadyEnv env;
  env.net = tr::make_grid_network(kGridN, 1.0, derive_seed(seed, "gps/network"));
  std::uint64_t trace_seed = derive_seed(seed, "gps/points");
  while (env.points.size() < kPointPool) {
    auto trace = tr::make_trace(env.net, 256, 0.04, trace_seed++);
    env.points.insert(env.points.end(), trace.points.begin(), trace.points.end());
  }
  env.points.resize(kPointPool);
  return env;
}

/// The serving side's set-up: the Fig. 4 graph and its operators.
void load_steady_graph(SteadyEnv &env) {
  auto graph = everest::frontend::parse_condrust(tr::mapmatch_condrust_source());
  if (!graph) throw std::runtime_error("map-match graph: " + graph.error().message);
  env.graph = *graph;
  env.registry = std::make_shared<er::NodeRegistry>();
  tr::register_mapmatch_operators(*env.registry, env.net);
}

/// The request record: a GPS point {x, y, t}; t carries the request index,
/// which lets a traced backend attribute batch time to requests.
er::Record steady_record(const SteadyEnv &env, std::size_t index) {
  const auto &p = env.points[index % env.points.size()];
  return {p.x, p.y, static_cast<double>(index)};
}

/// Per-request attribution state of a traced run.
struct SteadyTrace {
  Tracer tracer;
  std::vector<std::uint64_t> root;      // request index -> root span id
  std::vector<double> backend_start;    // first backend call start (bench clock)
  std::mutex mu;
  std::vector<double> batch_us;         // every backend call
};

/// serve::Backend wrapper that times every call into the wrapped backend
/// and attributes it to the requests of the batch.
class TimedBackend final : public es::Backend {
public:
  TimedBackend(std::unique_ptr<es::Backend> inner, SteadyTrace *trace)
      : inner_(std::move(inner)), trace_(trace),
        span_name_("backend:" + inner_->name()) {}

  const std::string &name() const override { return inner_->name(); }
  const std::vector<std::string> &input_names() const override {
    return inner_->input_names();
  }

  everest::support::Expected<std::map<std::string, er::Stream>> run_batch(
      const std::map<std::string, er::Stream> &inputs) override {
    const double t0 = wall_us();
    auto out = inner_->run_batch(inputs);
    const double t1 = wall_us();
    {
      std::lock_guard<std::mutex> lock(trace_->mu);
      trace_->batch_us.push_back(t1 - t0);
    }
    for (const auto &record : inputs.at("points")) {
      const auto i = static_cast<std::size_t>(record.at(2));
      if (i >= trace_->root.size()) continue;
      if (trace_->backend_start[i] < 0.0) trace_->backend_start[i] = t0;
      if (trace_->root[i] != 0)
        trace_->tracer.add(span_name_, "", t0, t1, trace_->root[i], i + 1);
    }
    return out;
  }

private:
  std::unique_ptr<es::Backend> inner_;
  SteadyTrace *trace_;
  std::string span_name_;
};

/// One running server with the device it launches on.
struct SteadyServer {
  everest::obs::TraceRecorder recorder;
  std::unique_ptr<everest::platform::Device> device;
  std::unique_ptr<everest::platform::FaultInjector> faults;
  std::unique_ptr<es::Server> server;

  ~SteadyServer() {
    if (server) server->stop();
  }
};

std::unique_ptr<SteadyServer> make_steady_server(const SteadyEnv &env,
                                                 std::uint64_t seed,
                                                 SteadyTrace *trace) {
  auto s = std::make_unique<SteadyServer>();
  s->device = std::make_unique<everest::platform::Device>(
      everest::platform::alveo_u55c());
  everest::hls::KernelReport kernel;
  kernel.name = "map_match";
  kernel.area = {20'000, 20'000, 16, 16};
  kernel.total_cycles = 3'000;
  kernel.dataflow_cycles = 2'000;
  if (auto st = s->device->load_kernel("map_match", kernel); !st.is_ok())
    throw std::runtime_error("load_kernel: " + st.message());
  everest::platform::FaultPlan plan;
  plan.kernel_timeout_rate = 0.01;
  s->faults = std::make_unique<everest::platform::FaultInjector>(
      derive_seed(seed, "faults/serve"), plan);
  s->device->attach_fault_injector(s->faults.get());

  auto compute = es::DfgBackend::create(env.graph, env.registry, {}, &s->recorder);
  if (!compute) throw std::runtime_error(compute.error().message);
  auto fpga = es::DeviceBackend::create(s->device.get(), "map_match",
                                        std::move(*compute), kLaunchDeadlineUs);
  if (!fpga) throw std::runtime_error(fpga.error().message);
  auto host = es::DfgBackend::create(env.graph, env.registry, {}, &s->recorder);
  if (!host) throw std::runtime_error(host.error().message);
  std::vector<std::unique_ptr<es::Backend>> backends;
  backends.push_back(std::move(*fpga));
  backends.push_back(std::move(*host));
  if (trace) {
    for (auto &b : backends) b = std::make_unique<TimedBackend>(std::move(b), trace);
  }

  es::ServerOptions options;
  options.dispatchers = 2;
  options.batch.max_batch = 16;
  options.batch.max_wait_us = 200.0;
  options.queue_bound = 4'096;
  options.retry.max_attempts = 1;  // a hung launch fails over to the host
  for (int t = 0; t < kSteadyTenants; ++t)
    options.tenants["tenant-" + std::to_string(t)] = es::TenantConfig{};
  auto server = es::Server::create(std::move(backends), options, &s->recorder);
  if (!server) throw std::runtime_error(server.error().message);
  s->server = std::move(*server);
  s->server->start();
  return s;
}

struct PhaseOut {
  /// Every request's latency from its due time (kFailedLatencyMs if failed),
  /// and the per-window quantiles the gated figures are medians of.
  std::vector<double> latency_ms, window_p50, window_p90;
  std::vector<double> late_us;     // generator lateness per request
  std::vector<double> submit_us;   // Server::submit call time
  std::vector<double> queue_wait_us;
  std::int64_t attempted = 0, failed = 0, completed = 0, degraded = 0;
  double cpu_us = 0.0, wall_us = 0.0;
};

/// Drives one open-loop phase for `seconds`. Latency quantiles are taken
/// per one-second window of due times and the phase reports their median,
/// so a burst of host noise within the run moves it little. Returns the
/// next free request index.
std::size_t steady_phase(const SteadyEnv &env, SteadyServer &s, double rate,
                         double seconds, everest::support::Pcg32 &rng,
                         std::size_t first_index, SteadyTrace *trace,
                         PhaseOut &out, std::vector<PendingCheck> &checks) {
  const std::vector<double> due = poisson_schedule(rng, rate, seconds);
  std::vector<std::uint32_t> tenant(due.size());
  for (auto &t : tenant) t = rng.next() % kSteadyTenants;
  std::vector<Sent> sent(due.size());
  if (trace) {
    const std::size_t need = first_index + due.size();
    trace->root.resize(need, 0);
    trace->backend_start.resize(need, -1.0);
    for (std::size_t k = 0; k < due.size(); ++k)
      if ((first_index + k) % kTraceEvery == 0)
        trace->root[first_index + k] = trace->tracer.reserve_id();
  }

  // Requests are built before the phase, so the generator thread only
  // sleeps and submits.
  std::vector<es::Request> requests(due.size());
  for (std::size_t k = 0; k < due.size(); ++k) {
    requests[k].tenant = "tenant-" + std::to_string(tenant[k]);
    requests[k].inputs["points"] = steady_record(env, first_index + k);
  }

  // Server clock -> bench clock.
  const double a = wall_us();
  const double server_now = s.server->now_us();
  const double offset = (a + wall_us()) / 2.0 - server_now;

  const double start = wall_us() + 2'000.0;
  const double c0 = cpu_us();
  for (std::size_t k = 0; k < due.size(); ++k) {
    Sent &q = sent[k];
    q.due = start + due[k];
    sleep_until_us(q.due);
    q.s0 = wall_us();
    auto submitted = s.server->submit(std::move(requests[k]));
    q.s1 = wall_us();
    if (submitted) q.future = std::move(*submitted);
  }
  s.server->drain();
  out.cpu_us += cpu_us() - c0;
  out.wall_us += wall_us() - start;

  std::vector<std::vector<double>> window_ms(
      static_cast<std::size_t>(std::ceil(seconds * 1e6 / kWindowUs)));
  for (std::size_t k = 0; k < due.size(); ++k) {
    Sent &q = sent[k];
    const std::size_t index = first_index + k;
    auto &window = window_ms[std::min(window_ms.size() - 1,
                                      static_cast<std::size_t>(due[k] / kWindowUs))];
    ++out.attempted;
    out.late_us.push_back(q.s0 - q.due);
    out.submit_us.push_back(q.s1 - q.s0);
    es::Response response;
    if (q.future) response = q.future->get();
    if (!q.future || !response.status.is_ok()) {
      ++out.failed;
      window.push_back(kFailedLatencyMs);
      out.latency_ms.push_back(kFailedLatencyMs);
      continue;
    }
    ++out.completed;
    if (response.degraded) ++out.degraded;
    const double finish = response.finish_us + offset;
    window.push_back((finish - q.due) / 1000.0);
    out.latency_ms.push_back((finish - q.due) / 1000.0);
    checks.push_back({steady_record(env, index), std::move(response.outputs)});
    if (trace) {
      const double admit = response.admit_us + offset;
      const double backend0 = trace->backend_start[index];
      const std::uint64_t root = trace->root[index];
      const std::uint64_t rid = index + 1;
      if (backend0 >= 0.0) out.queue_wait_us.push_back(backend0 - admit);
      if (root != 0) {
        trace->tracer.add_with_id(root, "request", "", q.due, finish, 0, rid);
        trace->tracer.add("submit", "", q.s0, q.s1, root, rid);
        if (backend0 >= 0.0) trace->tracer.add("queue", "", admit, backend0, root, rid);
      }
    }
  }
  for (const auto &w : window_ms) {
    if (w.empty()) continue;
    out.window_p50.push_back(quantile(w, 0.5));
    out.window_p90.push_back(quantile(w, 0.9));
  }
  return first_index + due.size();
}

}  // namespace

Result run_serve_steady(const RunConfig &config) {
  Result result;
  // Set-up is the serving system's: graph, operators, device and server.
  // The network and GPS points are inputs, generated outside it.
  auto env = std::make_unique<SteadyEnv>(make_steady_inputs(config.seed));
  std::unique_ptr<SteadyServer> server;
  const double setup_s = median_setup_s(
      kSetupRepeats,
      [&] {
        load_steady_graph(*env);
        server = make_steady_server(*env, config.seed, nullptr);
      },
      [&] { server.reset(); });
  everest::support::Pcg32 arrivals(derive_seed(config.seed, "arrivals"));

  const double half = config.trace ? config.seconds / 4 : config.seconds / 2;
  PhaseOut lo, hi;
  std::vector<PendingCheck> checks;
  std::size_t next = steady_phase(*env, *server, kLoRate, half, arrivals, 0,
                                  nullptr, lo, checks);
  next = steady_phase(*env, *server, kHiRate, half, arrivals, next, nullptr, hi,
                      checks);
  const double rss = peak_rss_mb();
  server.reset();
  run_checks(checks, "points", *env->graph, *env->registry, result);
  checks.clear();

  for (const PhaseOut *p : {&lo, &hi}) {
    result.attempted += p->attempted;
    result.failed += p->failed;
  }
  const double completed = static_cast<double>(lo.completed + hi.completed);
  const double cpu_per_req = (lo.cpu_us + hi.cpu_us) / std::max(1.0, completed);

  if (!config.trace) {
    result.set("setup_s", setup_s, "s", "wall");
    result.set("rss_mb", rss, "MB", "wall");
    result.set("throughput_per_s", completed / ((lo.wall_us + hi.wall_us) / 1e6),
               "1/s", "wall");
    result.set("cpu_us_per_op", cpu_per_req, "us", "cpu");
    result.set("p50_ms", median(hi.window_p50), "ms", "wall");
    result.set("p90_ms", median(hi.window_p90), "ms", "wall");
    for (const auto &[name, p] : {std::pair{"lo", &lo}, std::pair{"hi", &hi}}) {
      const std::string n = name;
      result.note(n + "_p50_ms", median(p->window_p50), "ms", "wall");
      result.note(n + "_p90_ms", median(p->window_p90), "ms", "wall");
      result.note(n + "_p99_ms_pooled", quantile(p->latency_ms, 0.99), "ms", "wall");
      result.note(n + "_p99_samples_beyond",
                  std::floor(0.01 * static_cast<double>(p->latency_ms.size())),
                  "count", "count");
      result.note(n + "_requests", static_cast<double>(p->attempted), "count",
                  "count");
      result.note(n + "_loadgen_late_p99_us", quantile(p->late_us, 0.99), "us",
                  "wall");
      result.note(n + "_loadgen_late_max_us", quantile(p->late_us, 1.0), "us",
                  "wall");
    }
    result.note("cpu_us_per_req", cpu_per_req, "us", "cpu");
    result.note("degraded_responses", static_cast<double>(lo.degraded + hi.degraded),
                "count", "count");
    return result;
  }

  // Traced run: the same two phases again with the timed backend wrapper and
  // per-request spans, on a fresh server.
  SteadyTrace trace;
  auto traced = make_steady_server(*env, config.seed, &trace);
  PhaseOut tlo, thi;
  std::size_t tnext = steady_phase(*env, *traced, kLoRate, half, arrivals, next,
                                   &trace, tlo, checks);
  steady_phase(*env, *traced, kHiRate, half, arrivals, tnext, &trace, thi, checks);
  const auto tstats = traced->server->stats();
  const auto tdev = traced->device->stats();
  const auto tevents = traced->recorder.event_count();
  traced.reset();
  run_checks(checks, "points", *env->graph, *env->registry, result);
  for (const PhaseOut *p : {&tlo, &thi}) {
    result.attempted += p->attempted;
    result.failed += p->failed;
  }
  const double tcompleted = static_cast<double>(tlo.completed + thi.completed);
  const double tcpu_per_req = (tlo.cpu_us + thi.cpu_us) / std::max(1.0, tcompleted);

  std::vector<double> submit = tlo.submit_us, wait = tlo.queue_wait_us,
                      late = tlo.late_us;
  submit.insert(submit.end(), thi.submit_us.begin(), thi.submit_us.end());
  wait.insert(wait.end(), thi.queue_wait_us.begin(), thi.queue_wait_us.end());
  late.insert(late.end(), thi.late_us.begin(), thi.late_us.end());
  result.set("trace.overhead_pct", 100.0 * (tcpu_per_req - cpu_per_req) / cpu_per_req,
             "%", "cpu");
  result.set("serve.submit_us.p50", quantile(submit, 0.5), "us", "wall");
  result.set("serve.submit_us.p99", quantile(submit, 0.99), "us", "wall");
  result.set("serve.queue_wait_us.p50", quantile(wait, 0.5), "us", "wall");
  result.set("serve.queue_wait_us.p90", quantile(wait, 0.9), "us", "wall");
  result.set("serve.batch_size", tstats.batch_size.mean(), "count", "count");
  result.set("serve.backend_us", median(trace.batch_us), "us", "wall");
  result.set("platform.launch_sim_us",
             tdev.kernel_launches > 0
                 ? tdev.compute_us / static_cast<double>(tdev.kernel_launches)
                 : 0.0,
             "us", "sim");
  result.set("resil.failover_frac",
             tstats.batches > 0 ? static_cast<double>(tstats.failovers) /
                                      static_cast<double>(tstats.batches)
                                : 0.0,
             "ratio", "count");
  result.set("resil.degraded_frac",
             static_cast<double>(tlo.degraded + thi.degraded) / std::max(1.0, tcompleted),
             "ratio", "count");
  result.set("obs.events", static_cast<double>(tevents), "count", "count");
  result.set("loadgen.late_p99_us", quantile(late, 0.99), "us", "wall");
  result.set("loadgen.late_max_us", quantile(late, 1.0), "us", "wall");

  // The runtime layer alone: unbatched execute_dfg per request.
  {
    std::vector<double> run_us;
    for (std::size_t i = 0; i < 2'000; ++i) {
      std::map<std::string, er::Stream> single{
          {"points", er::Stream{steady_record(*env, i)}}};
      const double t0 = wall_us();
      auto direct = er::execute_dfg(*env->graph, *env->registry, single, 1);
      run_us.push_back(wall_us() - t0);
      if (!direct) result.mismatch("unbatched execution failed");
    }
    result.set("runtime.run_us_per_req", median(run_us), "us", "wall");
  }

  print_self_times(trace.tracer);
  if (!trace.tracer.write_chrome(config.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_out.c_str());
    result.correct = false;
  } else {
    std::printf("trace: %zu spans written to %s\n", trace.tracer.size(),
                config.trace_out.c_str());
  }
  return result;
}

// ========================================================= serve_burst

namespace {

constexpr std::size_t kBacklog = 50'000;
constexpr int kReplayTenants = 3;
constexpr double kLiveRate = 2'000.0;
/// Live requests prepared per episode: 8 s of arrivals, far beyond a drain.
constexpr std::size_t kLiveCapacity = 16'384;
constexpr std::size_t kBulkTraceEvery = 64;  // bulk requests whose spans are kept

constexpr const char *kServePipe = R"(
fn serve_pipe(xs: Stream<f64>) -> Stream<f64> {
    let scaled = mul2(xs);
    let biased = add1(scaled);
    return biased;
}
)";

struct BurstEnv {
  std::shared_ptr<const everest::ir::Module> graph;
  std::shared_ptr<er::NodeRegistry> registry;
  std::vector<er::Record> backlog;          // request records
  std::vector<std::uint32_t> backlog_tenant;
};

/// The seeded inputs: the backlog records and their tenants.
BurstEnv make_burst_inputs(std::uint64_t seed) {
  BurstEnv env;
  everest::support::Pcg32 rng(derive_seed(seed, "tenant-mix"));
  env.backlog.reserve(kBacklog);
  for (std::size_t i = 0; i < kBacklog; ++i) {
    env.backlog.push_back({static_cast<double>(i), rng.uniform(-1.0, 1.0)});
    env.backlog_tenant.push_back(rng.next() % kReplayTenants);
  }
  return env;
}

/// The serving side's set-up: the CLI's serve_pipe graph and its operators.
void load_burst_graph(BurstEnv &env) {
  auto graph = everest::frontend::parse_condrust(kServePipe);
  if (!graph) throw std::runtime_error("serve_pipe: " + graph.error().message);
  env.graph = *graph;
  env.registry = std::make_shared<er::NodeRegistry>();
  env.registry->register_node("mul2", [](const std::vector<const er::Record *> &in) {
    er::Record out = *in.at(0);
    for (double &v : out) v *= 2.0;
    return out;
  });
  env.registry->register_node("add1", [](const std::vector<const er::Record *> &in) {
    er::Record out = *in.at(0);
    for (double &v : out) v += 1.0;
    return out;
  });
}

es::ClusterOptions burst_options() {
  es::ClusterOptions options;
  options.nodes = 2;
  options.replicas = 2;
  options.server.dispatchers = 1;
  options.server.batch.max_batch = 16;
  options.server.batch.max_wait_us = 200.0;
  options.server.queue_bound = kBacklog + 1'000;
  return options;
}

std::unique_ptr<es::Cluster> make_cluster(const BurstEnv &env) {
  auto cluster = es::Cluster::create(env.graph, env.registry, burst_options());
  if (!cluster) throw std::runtime_error(cluster.error().message);
  return std::move(*cluster);
}

struct EpisodeOut {
  double burst_rps = 0.0;
  double cpu_us_per_req = 0.0;
  std::vector<double> live_ms, live_late_us, submit_us, queue_wait_us;
  std::int64_t attempted = 0, failed = 0, completed = 0, degraded = 0;
  std::int64_t live_failed = 0;
  double batch_size_sum = 0.0, batches = 0.0, failovers = 0.0;
  double busy_sum = 0.0, busy_max = 0.0, forwarded = 0.0, admitted = 0.0;
  double events = 0.0;
};

/// One burst: backlog before start(), live tenant until it drains.
void burst_episode(const BurstEnv &env, std::uint64_t live_seed, Tracer *tracer,
                   std::uint64_t &next_rid, EpisodeOut &out,
                   std::vector<PendingCheck> &checks) {
  auto cluster = make_cluster(env);
  // Every request is built before the clock starts, so the client threads
  // only submit; a large allocation on the generator mid-run can stall it
  // for milliseconds (the allocator consolidates what the dispatchers
  // freed), which would read as generator lateness.
  std::vector<Sent> bulk(env.backlog.size());
  std::vector<es::Request> bulk_requests(env.backlog.size());
  for (std::size_t i = 0; i < env.backlog.size(); ++i) {
    bulk_requests[i].tenant = "replay-" + std::to_string(env.backlog_tenant[i]);
    bulk_requests[i].inputs["xs"] = env.backlog[i];
  }
  everest::support::Pcg32 rng(live_seed);
  std::vector<Sent> live(kLiveCapacity);
  std::vector<es::Request> live_requests(kLiveCapacity);
  for (std::size_t i = 0; i < kLiveCapacity; ++i) {
    live[i].record = {static_cast<double>(kBacklog + i), rng.uniform(-1.0, 1.0)};
    live_requests[i].tenant = "live";
    live_requests[i].inputs["xs"] = live[i].record;
  }
  std::vector<es::Response> bulk_responses(bulk.size());

  const double t_first = wall_us();
  const double c0 = cpu_us();
  for (std::size_t i = 0; i < env.backlog.size(); ++i) {
    bulk[i].due = t_first;
    bulk[i].s0 = wall_us();
    auto submitted = cluster->submit(std::move(bulk_requests[i]));
    bulk[i].s1 = wall_us();
    if (submitted) bulk[i].future = std::move(*submitted);
  }
  cluster->start();
  const double t_start = wall_us();

  // Between arrivals the live generator only polls which bulk responses
  // are ready (no copies on this thread while the nodes drain) and stops
  // once all of them are: the backlog has drained.
  std::size_t drained = 0;
  auto poll_drain = [&](double deadline_us) {
    while (drained < bulk.size() && wall_us() < deadline_us) {
      auto &f = bulk[drained].future;
      if (f && f->wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        break;
      ++drained;
    }
  };

  double due = t_start;
  std::size_t live_count = 0;
  while (drained < bulk.size() && live_count < kLiveCapacity) {
    due += exp_interval_us(rng, kLiveRate);
    poll_drain(due - 50.0);
    if (drained == bulk.size()) break;
    sleep_until_us(due);
    Sent &q = live[live_count];
    q.due = due;
    q.s0 = wall_us();
    auto submitted = cluster->submit(std::move(live_requests[live_count]));
    q.s1 = wall_us();
    if (submitted) q.future = std::move(*submitted);
    ++live_count;
  }
  live.resize(live_count);
  cluster->drain();  // also waits out a drain longer than the live requests
  const double c1 = cpu_us();
  for (std::size_t i = 0; i < bulk.size(); ++i)
    if (bulk[i].future) bulk_responses[i] = bulk[i].future->get();

  // Batch durations per (node, batch id), from each node's batch spans.
  std::map<std::pair<std::string, std::uint64_t>, double> batch_us;
  for (int n = 0; n < cluster->nodes(); ++n) {
    const std::string backend = "node-" + std::to_string(n) + "-fpga";
    for (const auto &event : cluster->node_recorder(n).events()) {
      if (event.category != "serve.batch" || event.name.rfind("batch-", 0) != 0)
        continue;
      batch_us[{backend, std::stoull(event.name.substr(6))}] = event.duration_us;
    }
    out.events += static_cast<double>(cluster->node_recorder(n).event_count());
  }
  const auto stats = cluster->stats();
  cluster->stop();

  std::int64_t completed = 0;
  std::size_t traced_bulk = 0;
  double last_finish = t_first;
  auto account = [&](const Sent &q, const es::Response &r, bool is_live) {
    ++out.attempted;
    if (!q.future || !r.status.is_ok()) {
      ++out.failed;
      if (is_live) ++out.live_failed;
      return;
    }
    ++completed;
    if (r.degraded) ++out.degraded;
    // Admission happened inside submit(): the response's admit -> finish
    // latency on the node clock starts no later than submit() returned.
    const double finish = q.s1 + r.latency_us;
    out.submit_us.push_back(q.s1 - q.s0);
    auto it = batch_us.find({r.backend, r.batch_id});
    const double batch = it == batch_us.end() ? 0.0 : it->second;
    out.queue_wait_us.push_back(std::max(0.0, r.latency_us - batch));
    if (is_live) {
      out.live_ms.push_back((finish - q.due) / 1000.0);
      out.live_late_us.push_back(q.s0 - q.due);
    } else {
      last_finish = std::max(last_finish, finish);
    }
    checks.push_back({q.record, r.outputs});
    if (tracer && (is_live || traced_bulk++ % kBulkTraceEvery == 0)) {
      const std::uint64_t rid = next_rid++;
      const std::uint64_t root =
          tracer->add("request", "", q.due, finish, 0, rid);
      tracer->add("submit", "", q.s0, q.s1, root, rid);
      tracer->add("queue", "", q.s1, finish - batch, root, rid);
      if (batch > 0.0) tracer->add("batch", "", finish - batch, finish, root, rid);
    }
  };
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i].record = env.backlog[i];
    account(bulk[i], bulk_responses[i], false);
  }
  std::int64_t bulk_completed = completed;
  for (auto &q : live) {
    es::Response r;
    if (q.future) r = q.future->get();
    account(q, r, true);
  }
  out.completed += completed;
  out.burst_rps = static_cast<double>(bulk_completed) / ((last_finish - t_first) / 1e6);
  out.cpu_us_per_req = (c1 - c0) / std::max<double>(1.0, static_cast<double>(completed));
  out.admitted += static_cast<double>(stats.admitted);
  out.forwarded += static_cast<double>(stats.forwarded);
  for (const auto &node : stats.nodes) {
    out.batch_size_sum += node.server.batch_size.mean() *
                          static_cast<double>(node.server.batches);
    out.batches += static_cast<double>(node.server.batches);
    out.failovers += static_cast<double>(node.server.failovers);
    out.busy_sum += node.device_busy_us;
    out.busy_max = std::max(out.busy_max, node.device_busy_us);
  }
}

/// Runs episodes until they have taken `seconds` (at least one); each
/// episode's responses are checked after it, outside the measured time.
std::vector<EpisodeOut> burst_episodes(const BurstEnv &env, std::uint64_t seed,
                                       double seconds, int &episode,
                                       Tracer *tracer, std::uint64_t &next_rid,
                                       Result &result) {
  std::vector<EpisodeOut> episodes;
  double measured_us = 0.0;
  while (episodes.empty() || measured_us < seconds * 1e6) {
    EpisodeOut out;
    std::vector<PendingCheck> checks;
    const double t0 = wall_us();
    burst_episode(env, derive_seed(seed, "live/" + std::to_string(episode++)),
                  tracer, next_rid, out, checks);
    measured_us += wall_us() - t0;
    run_checks(checks, "xs", *env.graph, *env.registry, result);
    result.attempted += out.attempted;
    result.failed += out.failed;
    episodes.push_back(std::move(out));
  }
  return episodes;
}

}  // namespace

Result run_serve_burst(const RunConfig &config) {
  Result result;
  // Set-up is the serving system's: the graph and the cluster. The backlog
  // records are inputs, generated outside it.
  auto env = std::make_unique<BurstEnv>(make_burst_inputs(config.seed));
  std::unique_ptr<es::Cluster> cluster;
  const double setup_s = median_setup_s(
      kSetupRepeats,
      [&] {
        load_burst_graph(*env);
        cluster = make_cluster(*env);
      },
      [&] { cluster.reset(); });
  cluster.reset();

  int episode = 0;
  std::uint64_t next_rid = 1;
  const double span = config.trace ? config.seconds / 2 : config.seconds;
  auto plain = burst_episodes(*env, config.seed, span, episode, nullptr, next_rid,
                              result);
  const double rss = peak_rss_mb();
  auto summarize = [](const std::vector<EpisodeOut> &eps, auto field) {
    std::vector<double> xs;
    for (const auto &e : eps) xs.push_back(field(e));
    return median(std::move(xs));
  };
  const double cpu_per_req =
      summarize(plain, [](const EpisodeOut &e) { return e.cpu_us_per_req; });
  std::vector<double> live_ms;
  std::int64_t live_failed = 0;
  for (const auto &e : plain) {
    live_ms.insert(live_ms.end(), e.live_ms.begin(), e.live_ms.end());
    live_failed += e.live_failed;
  }
  // Live latency per episode, then the median over episodes: one episode
  // disturbed by the host does not move the run's figure.
  auto live_quantile = [&](double q) {
    return summarize(plain, [q](const EpisodeOut &e) {
      return latency_quantile(e.live_ms, e.live_failed, q);
    });
  };

  if (!config.trace) {
    std::vector<double> late;
    for (const auto &e : plain)
      late.insert(late.end(), e.live_late_us.begin(), e.live_late_us.end());
    result.set("setup_s", setup_s, "s", "wall");
    result.set("rss_mb", rss, "MB", "wall");
    result.set("throughput_per_s",
               summarize(plain, [](const EpisodeOut &e) { return e.burst_rps; }),
               "1/s", "wall");
    result.set("cpu_us_per_op", cpu_per_req, "us", "cpu");
    result.set("p50_ms", live_quantile(0.5), "ms", "wall");
    result.set("p90_ms", live_quantile(0.9), "ms", "wall");
    result.note("burst_rps",
                summarize(plain, [](const EpisodeOut &e) { return e.burst_rps; }),
                "1/s", "wall");
    result.note("live_p50_ms", live_quantile(0.5), "ms", "wall");
    result.note("live_p90_ms", live_quantile(0.9), "ms", "wall");
    result.note("live_p99_ms_pooled", latency_quantile(live_ms, live_failed, 0.99),
                "ms", "wall");
    result.note("live_requests", static_cast<double>(live_ms.size()), "count",
                "count");
    result.note("live_loadgen_late_p99_us", quantile(late, 0.99), "us", "wall");
    result.note("live_loadgen_late_max_us", quantile(late, 1.0), "us", "wall");
    result.note("cpu_us_per_req", cpu_per_req, "us", "cpu");
    result.note("episodes", static_cast<double>(plain.size()), "count", "count");
    return result;
  }

  Tracer tracer;
  auto traced = burst_episodes(*env, config.seed, span, episode, &tracer,
                               next_rid, result);
  const double tcpu =
      summarize(traced, [](const EpisodeOut &e) { return e.cpu_us_per_req; });
  std::vector<double> submit, wait, late;
  double batch_sum = 0, batches = 0, failovers = 0, busy_max = 0, busy_sum = 0,
         forwarded = 0, admitted = 0, events = 0, degraded = 0, completed = 0;
  for (const auto &e : traced) {
    submit.insert(submit.end(), e.submit_us.begin(), e.submit_us.end());
    wait.insert(wait.end(), e.queue_wait_us.begin(), e.queue_wait_us.end());
    late.insert(late.end(), e.live_late_us.begin(), e.live_late_us.end());
    batch_sum += e.batch_size_sum;
    batches += e.batches;
    failovers += e.failovers;
    busy_max += e.busy_max;
    busy_sum += e.busy_sum;
    forwarded += e.forwarded;
    admitted += e.admitted;
    events += e.events;
    degraded += static_cast<double>(e.degraded);
    completed += static_cast<double>(e.completed);
  }
  result.set("trace.overhead_pct", 100.0 * (tcpu - cpu_per_req) / cpu_per_req, "%",
             "cpu");
  result.set("serve.submit_us.p50", quantile(submit, 0.5), "us", "wall");
  result.set("serve.submit_us.p99", quantile(submit, 0.99), "us", "wall");
  result.set("serve.queue_wait_us.p50", quantile(wait, 0.5), "us", "wall");
  result.set("serve.queue_wait_us.p90", quantile(wait, 0.9), "us", "wall");
  result.set("serve.batch_size", batches > 0 ? batch_sum / batches : 0.0, "count",
             "count");
  result.set("serve.cluster.forwarded_frac", admitted > 0 ? forwarded / admitted : 0.0,
             "ratio", "count");
  result.set("serve.cluster.busy_max_share", busy_sum > 0 ? busy_max / busy_sum : 0.0,
             "ratio", "sim");
  result.set("platform.launch_sim_us", batches > 0 ? busy_sum / batches : 0.0, "us",
             "sim");
  result.set("resil.failover_frac", batches > 0 ? failovers / batches : 0.0, "ratio",
             "count");
  result.set("resil.degraded_frac", completed > 0 ? degraded / completed : 0.0,
             "ratio", "count");
  result.set("obs.events", events / static_cast<double>(traced.size()), "count",
             "count");
  result.set("loadgen.late_p99_us", quantile(late, 0.99), "us", "wall");
  result.set("loadgen.late_max_us", quantile(late, 1.0), "us", "wall");
  {
    std::vector<double> run_us;
    for (std::size_t i = 0; i < 2'000; ++i) {
      std::map<std::string, er::Stream> single{{"xs", er::Stream{env->backlog[i]}}};
      const double t0 = wall_us();
      auto direct = er::execute_dfg(*env->graph, *env->registry, single, 1);
      run_us.push_back(wall_us() - t0);
      if (!direct) result.mismatch("unbatched execution failed");
    }
    result.set("runtime.run_us_per_req", median(run_us), "us", "wall");
  }
  print_self_times(tracer);
  if (!tracer.write_chrome(config.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_out.c_str());
    result.correct = false;
  } else {
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                config.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
