// Workload `build`: the developer loop. A corpus of ten kernels (the eight
// EKL kernels under tests/data, the CFDlang PTRANS program and the Fig. 3
// RRTMG kernel) at four sizes is compiled cold with Basecamp::compile_many
// (4 jobs, fresh in-memory CompileCache), every compiled job is deployed on
// the simulated alveo-u55c under a seeded fault plan, and then a series of
// one-kernel edits is recompiled against the warm cache. A session repeats
// that from a fresh Basecamp until the run's time is spent.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "frontend/cfdlang_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "hls/scheduler.hpp"
#include "ir/pass.hpp"
#include "olympus/olympus.hpp"
#include "platform/fault_injector.hpp"
#include "sdk/basecamp.hpp"
#include "support/rng.hpp"
#include "transforms/canonicalize.hpp"
#include "transforms/cfdlang_to_teil.hpp"
#include "transforms/ekl_eval.hpp"
#include "transforms/ekl_to_teil.hpp"
#include "transforms/esn_extract.hpp"
#include "transforms/loop_eval.hpp"
#include "transforms/teil_to_loops.hpp"
#include "usecases/rrtmg.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sdk = everest::sdk;
namespace tf = everest::transforms;
using everest::numerics::Tensor;
using TensorMap = std::map<std::string, Tensor>;

constexpr std::int64_t kSizes[] = {16, 64, 256, 512};
constexpr int kParallelJobs = 4;
constexpr int kEditsPerSession = 20;
constexpr std::int64_t kCheckMaxN = 64;       // numeric output checks
constexpr std::int64_t kDeviceSimMaxN = 256;  // device_sim_us geomean
constexpr int kSetupRepeats = 21;
constexpr double kCheckTolerance = 1e-9;
constexpr int kStageRounds = 5;  // stage-by-stage probe passes over the corpus
constexpr double kSliceUs = 1e6;  // rebuild quantiles are taken per ~1 s slice

struct Kernel {
  std::string name;
  sdk::CompileJob::Kind kind = sdk::CompileJob::Kind::Ekl;
  std::string source;  // CFDlang: with the 8x8 shapes as a "%N%" template
  bool rrtmg = false;
};

/// One (kernel, size) compile job plus what its checks need.
struct JobInfo {
  std::size_t kernel = 0;
  std::int64_t n = 0;
  TensorMap cfd_inputs;  // CFDlang inputs (EKL inputs live in the bindings)
};

std::string read_file(const std::string &path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void replace_all(std::string &s, const std::string &from,
                 const std::string &to) {
  for (std::size_t pos = 0; (pos = s.find(from, pos)) != std::string::npos;
       pos += to.size()) {
    s.replace(pos, from.size(), to);
  }
}

std::vector<Kernel> load_corpus() {
  std::vector<Kernel> corpus;
  corpus.push_back({"dot", sdk::CompileJob::Kind::Ekl,
                    read_file("tests/data/dot.ekl"), false});
  for (const char *name : {"stream", "gemm", "ptrans", "fft", "randomaccess",
                           "linpack", "beff"}) {
    corpus.push_back({name, sdk::CompileJob::Kind::Ekl,
                      read_file(std::string("tests/data/hpcc/") + name +
                                ".ekl"),
                      false});
  }
  std::string cfd = read_file("tests/data/hpcc/ptrans.cfd");
  if (cfd.find("[8, 8]") == std::string::npos)
    throw std::runtime_error("ptrans.cfd no longer declares [8, 8] shapes");
  replace_all(cfd, "[8, 8]", "[%N%, %N%]");
  corpus.push_back({"ptrans_cfd", sdk::CompileJob::Kind::Cfdlang, cfd, false});
  corpus.push_back({"rrtmg", sdk::CompileJob::Kind::Ekl,
                    everest::usecases::rrtmg::ekl_source(), true});
  return corpus;
}

Tensor random_tensor(everest::support::Pcg32 &rng, everest::numerics::Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) t.flat(i) = rng.uniform(-1.0, 1.0);
  return t;
}

everest::usecases::rrtmg::Config rrtmg_config(std::uint64_t seed,
                                              std::int64_t n) {
  everest::usecases::rrtmg::Config c;
  c.ncells = n;
  c.seed = derive_seed(seed, "tensors/rrtmg/" + std::to_string(n));
  return c;
}

/// Seeded inputs of one EKL job: every input shaped from its index extents.
tf::EklBindings ekl_bindings(const Kernel &k, std::int64_t n,
                             std::uint64_t seed) {
  if (k.rrtmg) {
    return everest::usecases::rrtmg::bindings(
        everest::usecases::rrtmg::make_data(rrtmg_config(seed, n)));
  }
  everest::support::Pcg32 rng(
      derive_seed(seed, "tensors/" + k.name + "/" + std::to_string(n)));
  tf::EklBindings b;
  auto add = [&](const char *name, everest::numerics::Shape shape) {
    b.inputs.emplace(name, random_tensor(rng, std::move(shape)));
  };
  if (k.name == "dot" || k.name == "stream") {
    add("a", {n});
    add("b", {n});
  } else if (k.name == "gemm") {
    add("a", {n, n});
    add("b", {n, n});
    add("c0", {n, n});
  } else if (k.name == "ptrans") {
    add("a", {n, n});
    add("c", {n, n});
  } else if (k.name == "fft") {
    add("xr", {4, n});
    add("xi", {4, n});
    add("cosm", {n, n});
    add("sinm", {n, n});
  } else if (k.name == "randomaccess") {
    add("t", {n});
    Tensor idx({4 * n});
    for (std::int64_t u = 0; u < 4 * n; ++u)
      idx.flat(u) = static_cast<double>(rng.next() % static_cast<std::uint32_t>(n));
    b.inputs.emplace("idx", std::move(idx));
    add("val", {4 * n});
  } else if (k.name == "linpack") {
    add("a", {n, n});
    add("l", {n});
    add("u", {n});
  } else if (k.name == "beff") {
    add("m", {3, n});
  } else {
    throw std::runtime_error("no input generator for kernel " + k.name);
  }
  return b;
}

/// The one-kernel edit: scales the assignment of the kernel's first output
/// by `factor`, a shape-preserving change that misses every cache tier.
std::string edit_source(const std::string &source, double factor) {
  const std::size_t out = source.find("\noutput ");
  if (out == std::string::npos) throw std::runtime_error("kernel has no output");
  const std::size_t name_begin = out + 8;
  const std::size_t name_end = source.find_first_of(" \n", name_begin);
  const std::string target = "\n" + source.substr(name_begin, name_end - name_begin) + " = ";
  const std::size_t line = source.find(target);
  if (line == std::string::npos) throw std::runtime_error("output not assigned");
  char lit[32];
  std::snprintf(lit, sizeof lit, "%.4f * ", factor);
  std::string edited = source;
  edited.insert(line + target.size(), lit);
  return edited;
}

double max_rel_error(const Tensor &ref, const Tensor &got) {
  if (ref.shape() != got.shape()) return INFINITY;
  double worst = 0.0;
  for (std::int64_t i = 0; i < ref.size(); ++i) {
    const double r = ref.flat(i), g = got.flat(i);
    worst = std::max(worst, std::fabs(r - g) / std::max(1.0, std::fabs(r)));
  }
  return worst;
}

/// Everything one run builds once: the corpus, the compile jobs with their
/// seeded inputs, and the per-kernel source that edits start from.
struct Corpus {
  std::vector<Kernel> kernels;
  std::vector<sdk::CompileJob> jobs;
  std::vector<JobInfo> info;
  std::vector<std::size_t> editable;  // EKL kernels (CFDlang has no literal form)
};

Corpus make_corpus(std::uint64_t seed) {
  Corpus c;
  c.kernels = load_corpus();
  for (std::size_t k = 0; k < c.kernels.size(); ++k) {
    const Kernel &kernel = c.kernels[k];
    if (kernel.kind == sdk::CompileJob::Kind::Ekl) c.editable.push_back(k);
    for (std::int64_t n : kSizes) {
      sdk::CompileJob job;
      job.kind = kernel.kind;
      job.name = kernel.name + "@" + std::to_string(n);
      JobInfo info{k, n, {}};
      if (kernel.kind == sdk::CompileJob::Kind::Ekl) {
        job.source = kernel.source;
        job.bindings = ekl_bindings(kernel, n, seed);
      } else {
        job.source = kernel.source;
        replace_all(job.source, "%N%", std::to_string(n));
        everest::support::Pcg32 rng(
            derive_seed(seed, "tensors/ptrans_cfd/" + std::to_string(n)));
        info.cfd_inputs.emplace("A", random_tensor(rng, {n, n}));
        info.cfd_inputs.emplace("C", random_tensor(rng, {n, n}));
      }
      c.jobs.push_back(std::move(job));
      c.info.push_back(std::move(info));
    }
  }
  return c;
}

/// Reference outputs of one job, independent of the lowering: the EKL
/// reference evaluator, rrtmg::reference_tau, or the PTRANS host loop.
everest::support::Expected<TensorMap> reference_outputs(
    const Corpus &c, std::size_t j, const std::string &source,
    bool edited, std::uint64_t seed) {
  const JobInfo &info = c.info[j];
  const Kernel &k = c.kernels[info.kernel];
  if (k.kind == sdk::CompileJob::Kind::Cfdlang) {
    const Tensor &a = info.cfd_inputs.at("A");
    const Tensor &cc = info.cfd_inputs.at("C");
    Tensor b({info.n, info.n});
    for (std::int64_t i = 0; i < info.n; ++i)
      for (std::int64_t jj = 0; jj < info.n; ++jj)
        b(i, jj) = a(jj, i) + cc(i, jj);
    return TensorMap{{"B", std::move(b)}};
  }
  if (k.rrtmg && !edited) {
    auto data = everest::usecases::rrtmg::make_data(rrtmg_config(seed, info.n));
    return TensorMap{{"tau", everest::usecases::rrtmg::reference_tau(data)}};
  }
  auto parsed = everest::frontend::parse_ekl(source);
  if (!parsed) return parsed.error();
  return tf::evaluate_ekl(**parsed, c.jobs[j].bindings);
}

/// Evaluates the compiled loop IR of job `j` and compares every reference
/// output; returns an empty string when they agree.
std::string check_job(const Corpus &c, std::size_t j, const std::string &source,
                      const sdk::CompileResult &result, bool edited,
                      std::uint64_t seed) {
  const JobInfo &info = c.info[j];
  const bool cfd = c.kernels[info.kernel].kind == sdk::CompileJob::Kind::Cfdlang;
  auto got = tf::evaluate_loops(*result.loop_ir,
                                cfd ? info.cfd_inputs : c.jobs[j].bindings.inputs);
  if (!got) return "loop evaluation failed: " + got.error().message;
  auto ref = reference_outputs(c, j, source, edited, seed);
  if (!ref) return "reference failed: " + ref.error().message;
  for (const auto &[name, tensor] : *ref) {
    auto it = got->find(name);
    if (it == got->end()) return "missing output " + name;
    const double err = max_rel_error(tensor, it->second);
    if (!(err <= kCheckTolerance))
      return "output " + name + " differs by " + std::to_string(err);
  }
  return {};
}

/// Figures collected over the sessions of one phase.
struct SessionStats {
  std::vector<double> cold_wall_us, cold_cpu_us, rebuild_ms;
  std::vector<double> slice_p50, slice_p90, slice_p95;  // rebuild, per slice
  std::vector<double> device_sim_us;       // per job with n <= 256
  std::vector<double> dma_sim_us, kernel_sim_us;  // per deployed job
  std::vector<double> cache_entries;
  std::int64_t cache_hits = 0, cache_lookups = 0;
  std::int64_t attempted = 0, failed = 0;
  int sessions = 0;
};

struct FirstSession {
  bool captured = false;
  std::vector<everest::support::Expected<sdk::CompileResult>> cold;
  /// (job index, edited source, result) for edited jobs with n <= 64.
  std::vector<std::tuple<std::size_t, std::string, sdk::CompileResult>> edits;
  /// (job, error) of every cold compile or deploy that failed.
  std::vector<std::pair<std::string, std::string>> failures;
};

/// One session: a fresh Basecamp and cache, the cold compile and deploy of
/// every job, then the one-kernel edits. With a tracer, every timed call is
/// recorded as a span.
void run_session(Corpus &c, std::uint64_t seed,
                 everest::support::Pcg32 &edit_rng, SessionStats &st,
                 FirstSession &first, Tracer *tracer) {
  everest::platform::FaultPlan plan;
  plan.transfer_error_rate = 0.01;
  plan.kernel_timeout_rate = 0.01;
  const std::uint64_t fault_seed = derive_seed(seed, "faults/deploy");
  sdk::Basecamp basecamp;
  sdk::CompileCache cache;
  basecamp.attach_cache(&cache);
  const std::uint64_t session_span = tracer ? tracer->reserve_id() : 0;
  const double session_t0 = wall_us();

  // Cold compile of every job.
  const double c0 = cpu_us(), t0 = wall_us();
  auto cold = basecamp.compile_many(c.jobs, kParallelJobs);
  const double t1 = wall_us(), c1 = cpu_us();
  if (tracer) tracer->add("compile_many.cold", "build", t0, t1, session_span);
  st.cold_wall_us.push_back(t1 - t0);
  st.cold_cpu_us.push_back(c1 - c0);
  st.attempted += static_cast<std::int64_t>(cold.size());
  for (std::size_t j = 0; j < cold.size(); ++j) {
    if (cold[j]) continue;
    ++st.failed;
    if (!first.captured)
      first.failures.emplace_back(c.jobs[j].name + " (compile)",
                                  cold[j].error().message);
  }

  // Deploy every compiled job under the seeded device fault plan.
  for (std::size_t j = 0; j < cold.size(); ++j) {
    if (!cold[j]) continue;
    everest::platform::Device device(cold[j]->device);
    everest::platform::FaultInjector faults(fault_seed + j, plan);
    device.attach_fault_injector(&faults);
    const double d0 = wall_us();
    auto us = basecamp.deploy_and_run(device, *cold[j],
                                      everest::resil::ExecutionPolicy{});
    if (tracer)
      tracer->add("deploy_and_run", "device", d0, wall_us(), session_span);
    ++st.attempted;
    if (!us) {
      ++st.failed;
      if (!first.captured)
        first.failures.emplace_back(c.jobs[j].name + " (deploy)",
                                    us.error().message);
      continue;
    }
    if (!first.captured) {
      if (c.info[j].n <= kDeviceSimMaxN) st.device_sim_us.push_back(*us);
      st.dma_sim_us.push_back(device.stats().transfer_us);
      st.kernel_sim_us.push_back(device.stats().compute_us);
    }
  }
  const std::int64_t hits0 = cache.hits(), misses0 = cache.misses();

  // One-kernel edits against the warm cache.
  std::vector<std::string> pristine;
  for (const auto &job : c.jobs) pristine.push_back(job.source);
  for (int e = 0; e < kEditsPerSession; ++e) {
    const std::size_t k = c.editable[edit_rng.next() % c.editable.size()];
    const double factor = 1.0 + 1e-4 * static_cast<double>(e + 1);
    std::vector<std::size_t> touched;
    for (std::size_t j = 0; j < c.jobs.size(); ++j) {
      if (c.info[j].kernel != k) continue;
      c.jobs[j].source = edit_source(pristine[j], factor);
      touched.push_back(j);
    }
    const double e0 = wall_us();
    auto rebuilt = basecamp.compile_many(c.jobs, kParallelJobs);
    const double e1 = wall_us();
    if (tracer) tracer->add("compile_many.edit", "build", e0, e1, session_span);
    st.rebuild_ms.push_back((e1 - e0) / 1000.0);
    st.attempted += static_cast<std::int64_t>(rebuilt.size());
    for (const auto &r : rebuilt)
      if (!r) ++st.failed;
    if (!first.captured) {
      for (std::size_t j : touched) {
        if (c.info[j].n <= kCheckMaxN && rebuilt[j])
          first.edits.emplace_back(j, c.jobs[j].source, std::move(*rebuilt[j]));
      }
    }
  }
  for (std::size_t j = 0; j < c.jobs.size(); ++j) c.jobs[j].source = pristine[j];
  st.cache_hits += cache.hits() - hits0;
  st.cache_lookups += (cache.hits() - hits0) + (cache.misses() - misses0);
  st.cache_entries.push_back(static_cast<double>(cache.size()));
  if (tracer) {
    tracer->add_with_id(session_span, "session", "build", session_t0,
                        wall_us());
  }
  if (!first.captured) {
    first.cold = std::move(cold);
    first.captured = true;
  }
  ++st.sessions;
}

/// Runs sessions for `seconds` (at least one) in slices of about a second.
/// Rebuild latency quantiles are taken per slice and the run reports their
/// median, so a burst of host noise within the run moves it little.
void run_sessions(Corpus &c, std::uint64_t seed, double seconds,
                  everest::support::Pcg32 &edit_rng, SessionStats &st,
                  FirstSession &first, Tracer *tracer) {
  const double end = wall_us() + seconds * 1e6;
  do {
    const double slice_end = std::min(end, wall_us() + kSliceUs);
    const std::size_t n0 = st.rebuild_ms.size();
    do {
      run_session(c, seed, edit_rng, st, first, tracer);
    } while (wall_us() < slice_end);
    const std::vector<double> slice(st.rebuild_ms.begin() + n0, st.rebuild_ms.end());
    st.slice_p50.push_back(quantile(slice, 0.50));
    st.slice_p90.push_back(quantile(slice, 0.90));
    st.slice_p95.push_back(quantile(slice, 0.95));
  } while (wall_us() < end);
}

/// Output checks, outside every timed region: each cold job with n <= 64
/// and each edited job with n <= 64 of the first session.
void check_outputs(const Corpus &c, std::uint64_t seed, const FirstSession &first,
                   Result &result) {
  for (const auto &[name, why] : first.failures)
    std::printf("failed: %s: %s\n", name.c_str(), why.c_str());
  std::int64_t checked = 0;
  for (std::size_t j = 0; j < first.cold.size(); ++j) {
    if (c.info[j].n > kCheckMaxN) continue;
    if (!first.cold[j]) {
      result.mismatch(c.jobs[j].name + ": compile failed at a checked size: " +
                      first.cold[j].error().message);
      continue;
    }
    auto why = check_job(c, j, c.jobs[j].source, *first.cold[j], false, seed);
    if (!why.empty()) result.mismatch(c.jobs[j].name + ": " + why);
    ++checked;
  }
  for (const auto &[j, source, compiled] : first.edits) {
    auto why = check_job(c, j, source, compiled, true, seed);
    if (!why.empty()) result.mismatch(c.jobs[j].name + " (edited): " + why);
    ++checked;
  }
  std::printf("checks: %lld compiled jobs evaluated against their references\n",
              static_cast<long long>(checked));
}

// -------------------------------------------------------- traced probes

/// Stage-by-stage compile through the layers' public headers, one span per
/// stage; records a mismatch when the printed IR differs from
/// Basecamp::compile_ekl / compile_cfdlang on the same job.
struct StageTotals {
  std::map<std::string, double> stage_us;
  std::int64_t compiles = 0;
  std::int64_t rejected = 0;
  std::int64_t ops_visited = 0;
};

void stage_probe(const Corpus &c, int round, Tracer &tracer, StageTotals &totals,
                 Result &result) {
  sdk::Basecamp reference;  // no cache: the plain pipeline
  everest::ir::Context &ctx = reference.context();
  everest::obs::TraceRecorder probe_recorder;
  everest::obs::ScopedGlobalRecorder global(&probe_recorder);
  const sdk::CompileOptions options;
  for (std::size_t j = 0; j < c.jobs.size(); ++j) {
    const auto &job = c.jobs[j];
    const bool ekl = job.kind == sdk::CompileJob::Kind::Ekl;
    const std::uint64_t root = tracer.reserve_id();
    const double root_t0 = wall_us();
    auto stage = [&](const char *name, auto &&fn) {
      const double s0 = wall_us();
      auto r = fn();
      const double s1 = wall_us();
      tracer.add(name, "compile-stages", s0, s1, root);
      totals.stage_us[name] += s1 - s0;
      return r;
    };
    ++totals.compiles;
    auto parsed = stage("frontend.parse", [&] {
      return ekl ? everest::frontend::parse_ekl(job.source)
                 : everest::frontend::parse_cfdlang(job.source);
    });
    std::string why;
    std::shared_ptr<everest::ir::Module> teil, loops;
    if (!parsed || !ctx.verify(**parsed).is_ok()) {
      why = "parse";
    } else {
      auto lowered = stage("transforms.lower", [&] {
        return ekl ? tf::lower_ekl_to_teil(**parsed, job.bindings)
                   : tf::lower_cfdlang_to_teil(**parsed);
      });
      if (!lowered) why = "lower";
      else teil = *lowered;
    }
    if (teil) {
      auto &visited = probe_recorder.counter("ir.rewrite.ops_visited");
      const std::int64_t visited0 = visited.value();
      auto status = stage("transforms.canonicalize", [&] {
        everest::ir::PassManager pm(ctx);
        pm.add_func_pass("canonicalize",
                         [](everest::ir::Operation &func, everest::ir::Context &) {
                           return tf::canonicalize_func_checked(func);
                         });
        return pm.run(*teil);
      });
      totals.ops_visited += visited.value() - visited0;
      if (!status.is_ok()) why = "canonicalize";
    }
    if (why.empty() && teil) {
      auto ok = stage("transforms.esn", [&] {
        tf::extract_einsums(*teil);
        tf::eliminate_dead_code(*teil);
        auto flops = tf::lower_esn(*teil, /*optimize_order=*/true);
        tf::eliminate_dead_code(*teil);
        return flops.has_value();
      });
      if (!ok) why = "esn";
    }
    if (why.empty() && teil) {
      auto lowered = stage("transforms.loops",
                           [&] { return tf::lower_teil_to_loops(*teil); });
      if (!lowered) why = "loops";
      else loops = *lowered;
    }
    bool rejected = false;
    if (loops) {
      auto kernel = stage("hls.schedule", [&] {
        return everest::hls::schedule_kernel(*loops, options.hls);
      });
      if (kernel) {
        auto device = reference.device_by_name(options.target);
        everest::olympus::SystemGenerator generator(*device);
        // A configuration that does not fit still compiles; the device
        // rejects it at deploy. Count it here as Olympus's rejection.
        auto generated = stage("olympus.generate", [&] {
          auto estimate = generator.estimate(*kernel, options.olympus);
          if (!estimate) return false;
          rejected = !estimate->fits;
          return generator.generate_ir(*kernel, options.olympus).has_value();
        });
        if (!generated) why = "olympus";
      } else {
        why = "hls";
      }
    }
    tracer.add_with_id(root, "compile", "compile-stages", root_t0, wall_us());
    if (round > 0) continue;  // the IR comparison needs one round only
    // The stage-by-stage IR must print byte-identically to the SDK's own
    // pipeline on the same job.
    auto sdk_result = ekl ? reference.compile_ekl(job.source, job.bindings, options)
                          : reference.compile_cfdlang(job.source, options);
    if (rejected) ++totals.rejected;
    if (!why.empty()) {
      if (sdk_result)
        result.mismatch(job.name + ": stage probe failed at '" + why +
                        "' but compile succeeded");
      continue;
    }
    if (!sdk_result) {
      result.mismatch(job.name + ": stage probe compiled but the SDK failed: " +
                      sdk_result.error().message);
      continue;
    }
    if (sdk_result->teil_ir->str() != teil->str() ||
        sdk_result->loop_ir->str() != loops->str()) {
      result.mismatch(job.name + ": stage-by-stage IR differs from compile");
    }
  }
}

double timed_compile_many(const Corpus &c, int jobs, bool with_cache) {
  sdk::Basecamp basecamp;
  sdk::CompileCache cache;
  if (with_cache) basecamp.attach_cache(&cache);
  const double t0 = wall_us();
  auto results = basecamp.compile_many(c.jobs, jobs);
  (void)results;
  return wall_us() - t0;
}

/// Warm one-kernel-edit wall time at a given parallelism, median of rounds.
double warm_edit_us(Corpus &c, int jobs, everest::support::Pcg32 &rng,
                    int rounds) {
  sdk::Basecamp basecamp;
  sdk::CompileCache cache;
  basecamp.attach_cache(&cache);
  (void)basecamp.compile_many(c.jobs, jobs);
  std::vector<std::string> pristine;
  for (const auto &job : c.jobs) pristine.push_back(job.source);
  std::vector<double> samples;
  for (int e = 0; e < rounds; ++e) {
    const std::size_t k = c.editable[rng.next() % c.editable.size()];
    for (std::size_t j = 0; j < c.jobs.size(); ++j)
      if (c.info[j].kernel == k)
        c.jobs[j].source = edit_source(pristine[j], 1.0 + 1e-4 * (e + 1));
    const double t0 = wall_us();
    (void)basecamp.compile_many(c.jobs, jobs);
    samples.push_back(wall_us() - t0);
  }
  for (std::size_t j = 0; j < c.jobs.size(); ++j) c.jobs[j].source = pristine[j];
  return median(std::move(samples));
}

}  // namespace

Result run_build(const RunConfig &config) {
  Result result;
  // Set-up is the SDK's: a Basecamp (which registers the dialect stack)
  // with a compile cache attached. The corpus and its tensors are inputs,
  // generated outside it.
  Corpus c = make_corpus(config.seed);
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    sdk::Basecamp basecamp;
    sdk::CompileCache cache;
    basecamp.attach_cache(&cache);
  });
  everest::support::Pcg32 edit_rng(derive_seed(config.seed, "edits"));

  SessionStats st;
  FirstSession first;
  if (!config.trace) {
    run_sessions(c, config.seed, config.seconds, edit_rng, st, first, nullptr);
    const double rss = peak_rss_mb();
    const double jobs = static_cast<double>(c.jobs.size());
    result.set("setup_s", setup_s, "s", "wall");
    result.set("rss_mb", rss, "MB", "wall");
    result.set("throughput_per_s", jobs / (median(st.cold_wall_us) / 1e6), "1/s",
               "wall");
    std::vector<double> cpu_per_job;
    for (double us : st.cold_cpu_us) cpu_per_job.push_back(us / jobs);
    result.set("cpu_us_per_op", median(cpu_per_job), "us", "cpu");
    result.set("p50_ms", median(st.slice_p50), "ms", "wall");
    result.set("p90_ms", median(st.slice_p90), "ms", "wall");

    result.note("compile_jobs_per_s", jobs / (median(st.cold_wall_us) / 1e6),
                "1/s", "wall");
    result.note("rebuild_p50_ms", median(st.slice_p50), "ms", "wall");
    result.note("rebuild_p95_ms", median(st.slice_p95), "ms", "wall");
    result.note("rebuild_samples", static_cast<double>(st.rebuild_ms.size()),
                "count", "count");
    result.note("device_sim_us", geomean(st.device_sim_us), "us", "sim");
    result.note("sessions", st.sessions, "count", "count");
  } else {
    // Untraced half, then the same loop with spans: the difference in CPU
    // per compile job is the tracing overhead.
    SessionStats plain;
    FirstSession unused;
    run_sessions(c, config.seed, config.seconds / 2, edit_rng, plain, unused,
                 nullptr);
    Tracer tracer;
    run_sessions(c, config.seed, config.seconds / 2, edit_rng, st, first,
                 &tracer);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    const double jobs = static_cast<double>(c.jobs.size());
    const double plain_cpu = median(plain.cold_cpu_us) / jobs;
    const double traced_cpu = median(st.cold_cpu_us) / jobs;
    result.set("trace.overhead_pct", 100.0 * (traced_cpu - plain_cpu) / plain_cpu,
               "%", "cpu");

    StageTotals totals;
    for (int round = 0; round < kStageRounds; ++round)
      stage_probe(c, round, tracer, totals, result);
    const double per_job = static_cast<double>(std::max<std::int64_t>(1, totals.compiles));
    auto stage_ms = [&](const char *name) {
      return totals.stage_us[name] / per_job / 1000.0;
    };
    result.set("frontend.parse_ms", stage_ms("frontend.parse"), "ms", "wall");
    result.set("transforms.lower_ms", stage_ms("transforms.lower"), "ms", "wall");
    result.set("transforms.canonicalize_ms", stage_ms("transforms.canonicalize"),
               "ms", "wall");
    result.set("transforms.esn_ms", stage_ms("transforms.esn"), "ms", "wall");
    result.set("transforms.loops_ms", stage_ms("transforms.loops"), "ms", "wall");
    result.set("hls.schedule_ms", stage_ms("hls.schedule"), "ms", "wall");
    result.set("olympus.generate_ms", stage_ms("olympus.generate"), "ms", "wall");
    result.set("ir.rewrite.ops_visited",
               static_cast<double>(totals.ops_visited) / kStageRounds, "count",
               "count");
    result.set("olympus.rejected", static_cast<double>(totals.rejected), "count",
               "count");

    result.set("sdk.cache.hit_ratio",
               st.cache_lookups > 0 ? static_cast<double>(st.cache_hits) /
                                          static_cast<double>(st.cache_lookups)
                                    : 0.0,
               "ratio", "count");
    result.set("sdk.cache.entries", median(st.cache_entries), "count", "count");
    std::vector<double> cached, uncached, serial_cold, parallel_cold;
    for (int r = 0; r < 3; ++r) {
      uncached.push_back(timed_compile_many(c, kParallelJobs, false));
      cached.push_back(timed_compile_many(c, kParallelJobs, true));
      serial_cold.push_back(timed_compile_many(c, 1, true));
      parallel_cold.push_back(timed_compile_many(c, kParallelJobs, true));
    }
    result.set("sdk.cache.store_ms", (median(cached) - median(uncached)) / 1000.0,
               "ms", "wall");
    result.set("support.pool.speedup_cold", median(serial_cold) / median(parallel_cold),
               "ratio", "wall");
    everest::support::Pcg32 probe_rng(derive_seed(config.seed, "edits/probe"));
    const double warm_serial = warm_edit_us(c, 1, probe_rng, 10);
    const double warm_parallel = warm_edit_us(c, kParallelJobs, probe_rng, 10);
    result.set("support.pool.speedup_warm", warm_serial / warm_parallel, "ratio",
               "wall");
    result.set("platform.dma_sim_us", mean(st.dma_sim_us), "us", "sim");
    result.set("platform.kernel_sim_us", mean(st.kernel_sim_us), "us", "sim");

    print_self_times(tracer);
    if (!tracer.write_chrome(config.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.trace_out.c_str());
      result.correct = false;
    } else {
      std::printf("trace: %zu spans written to %s\n", tracer.size(),
                  config.trace_out.c_str());
    }
  }
  result.attempted += st.attempted;
  result.failed += st.failed;
  result.note("failure_share", st.attempted > 0
                                   ? static_cast<double>(st.failed) /
                                         static_cast<double>(st.attempted)
                                   : 0.0,
              "ratio", "count");
  check_outputs(c, config.seed, first, result);
  return result;
}

}  // namespace perfbench
