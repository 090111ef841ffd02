// Concurrency tests (run under the tsan preset, CTest label "concurrency"):
// the support::ThreadPool itself, the determinism of parallel Basecamp
// compilation — compile_many(jobs=N) must be byte-identical to the serial
// path for any N — a multi-threaded stress of the compile cache, and
// concurrent map matching over one shared segment index.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "frontend/condrust_parser.hpp"
#include "runtime/dfg_executor.hpp"
#include "sdk/basecamp.hpp"
#include "sdk/compile_cache.hpp"
#include "support/thread_pool.hpp"
#include "transforms/loop_eval.hpp"
#include "usecases/rrtmg.hpp"
#include "usecases/traffic.hpp"

namespace es = everest::sdk;
namespace esup = everest::support;
namespace rr = everest::usecases::rrtmg;
namespace en = everest::numerics;
namespace et = everest::transforms;
namespace tr = everest::usecases::traffic;
namespace er = everest::runtime;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  esup::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto a = pool.submit([] { return 40 + 2; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  esup::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ExceptionsSurfaceThroughFutures) {
  esup::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, WaitIdleDrainsEverything) {
  esup::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);
}

TEST(ThreadPoolTest, ObserverSeesQueueTransitions) {
  esup::ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.set_observer([&](std::size_t, std::size_t) { calls.fetch_add(1); });
  for (int i = 0; i < 10; ++i) pool.submit([] {});
  pool.wait_idle();
  // At least one notification per enqueue and one per completion.
  EXPECT_GE(calls.load(), 20);
}

TEST(ThreadPoolTest, ParallelIndexedPreservesOrder) {
  auto square = [](std::size_t i) { return static_cast<int>(i * i); };
  // Inline path (no pool) and pooled path must agree element-for-element.
  auto inline_results = esup::parallel_indexed(nullptr, 16, square);
  esup::ThreadPool pool(4);
  auto pooled = esup::parallel_indexed(&pool, 16, square);
  EXPECT_EQ(inline_results, pooled);
  for (std::size_t i = 0; i < pooled.size(); ++i)
    EXPECT_EQ(pooled[i], static_cast<int>(i * i));
}

// ---------------------------------------------------------------------------
// Parallel compilation determinism

namespace {

std::vector<es::CompileJob> make_jobs(
    std::initializer_list<std::int64_t> rrtmg_ncells = {8, 16, 32}) {
  std::vector<es::CompileJob> jobs;
  for (std::int64_t ncells : rrtmg_ncells) {
    rr::Config cfg;
    cfg.ncells = ncells;
    rr::Data data = rr::make_data(cfg);
    es::CompileJob job;
    job.kind = es::CompileJob::Kind::Ekl;
    job.name = "rrtmg-" + std::to_string(ncells);
    job.source = rr::ekl_source();
    job.bindings = rr::bindings(data);
    jobs.push_back(std::move(job));
  }
  es::CompileJob mm;
  mm.kind = es::CompileJob::Kind::Cfdlang;
  mm.name = "mm";
  mm.source = R"(
program mm
input A : [16, 24]
input B : [24, 8]
output C = contract(outer(A, B), 1, 2)
)";
  jobs.push_back(std::move(mm));
  return jobs;
}

/// Asserts two compiles of the same job produced the same artifacts: IR
/// module texts, stage-name sequence, HLS schedule, and system estimate.
/// (Wall-clock ms naturally differ.)
void expect_equivalent(const es::CompileResult &a, const es::CompileResult &b,
                       bool compare_stages = true) {
  EXPECT_EQ(a.frontend_ir->str(), b.frontend_ir->str());
  EXPECT_EQ(a.teil_ir->str(), b.teil_ir->str());
  EXPECT_EQ(a.loop_ir->str(), b.loop_ir->str());
  EXPECT_EQ(a.system_ir->str(), b.system_ir->str());
  EXPECT_EQ(a.datapath_bits, b.datapath_bits);
  EXPECT_EQ(a.ekl_source_lines, b.ekl_source_lines);
  EXPECT_EQ(a.device.name, b.device.name);

  if (compare_stages) {
    ASSERT_EQ(a.timings.size(), b.timings.size());
    for (std::size_t i = 0; i < a.timings.size(); ++i)
      EXPECT_EQ(a.timings[i].stage, b.timings[i].stage) << "stage " << i;
  }

  EXPECT_EQ(a.kernel.name, b.kernel.name);
  EXPECT_EQ(a.kernel.total_cycles, b.kernel.total_cycles);
  EXPECT_EQ(a.kernel.dataflow_cycles, b.kernel.dataflow_cycles);
  EXPECT_EQ(a.kernel.area.luts, b.kernel.area.luts);
  EXPECT_EQ(a.kernel.area.dsps, b.kernel.area.dsps);
  EXPECT_EQ(a.kernel.area.brams, b.kernel.area.brams);
  ASSERT_EQ(a.kernel.stages.size(), b.kernel.stages.size());
  for (std::size_t i = 0; i < a.kernel.stages.size(); ++i) {
    EXPECT_EQ(a.kernel.stages[i].ii, b.kernel.stages[i].ii);
    EXPECT_EQ(a.kernel.stages[i].depth, b.kernel.stages[i].depth);
    EXPECT_EQ(a.kernel.stages[i].latency_cycles,
              b.kernel.stages[i].latency_cycles);
  }

  EXPECT_DOUBLE_EQ(a.estimate.total_us, b.estimate.total_us);
  EXPECT_DOUBLE_EQ(a.estimate.compute_us, b.estimate.compute_us);
  EXPECT_DOUBLE_EQ(a.estimate.memory_us, b.estimate.memory_us);
  EXPECT_EQ(a.estimate.replicas, b.estimate.replicas);
  EXPECT_EQ(a.estimate.tiles, b.estimate.tiles);
  EXPECT_EQ(a.estimate.fits, b.estimate.fits);
  EXPECT_DOUBLE_EQ(a.estimate.utilization, b.estimate.utilization);
}

}  // namespace

TEST(ParallelCompileTest, JobsCountDoesNotChangeResults) {
  auto jobs = make_jobs();
  es::Basecamp serial;
  auto baseline = serial.compile_many(jobs, 1);
  ASSERT_EQ(baseline.size(), jobs.size());
  for (const auto &r : baseline) ASSERT_TRUE(r.has_value());

  for (int n : {2, 8}) {
    es::Basecamp parallel;
    auto results = parallel.compile_many(jobs, n);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(results[i].has_value())
          << "jobs=" << n << " " << results[i].error().message;
      expect_equivalent(*baseline[i], *results[i]);
    }
  }
}

TEST(ParallelCompileTest, ErrorsStayIndexAligned) {
  auto jobs = make_jobs();
  es::CompileJob bad;
  bad.name = "broken";
  bad.source = "kernel k\nz = nope\n";
  jobs.insert(jobs.begin() + 1, bad);

  es::Basecamp basecamp;
  auto results = basecamp.compile_many(jobs, 8);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_TRUE(results[0].has_value());
  ASSERT_FALSE(results[1].has_value());
  // The job label is attached so batch failures are attributable.
  EXPECT_NE(results[1].error().message.find("broken"), std::string::npos);
  EXPECT_TRUE(results[2].has_value());
  EXPECT_TRUE(results[3].has_value());
}

TEST(ParallelCompileTest, CachedParallelCompileMatchesSerialUncached) {
  auto jobs = make_jobs();
  es::Basecamp plain;
  auto baseline = plain.compile_many(jobs, 1);

  es::CompileCache cache;
  es::Basecamp cached;
  cached.attach_cache(&cache);
  // Two rounds: the first fills the cache (racing identical jobs is fine),
  // the second is all warm hits. Both must reproduce the uncached artifacts.
  for (int round = 0; round < 2; ++round) {
    auto results = cached.compile_many(jobs, 8);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(results[i].has_value())
          << "round " << round << ": " << results[i].error().message;
      expect_equivalent(*baseline[i], *results[i], /*compare_stages=*/false);
    }
  }
  EXPECT_GT(cache.hits(), 0);

  // The pool mirrored its pressure into the recorder's gauges.
  bool saw_pool_gauge = false;
  for (const auto &[name, value] : cached.recorder().gauges())
    if (name == "sdk.pool.active") saw_pool_gauge = true;
  EXPECT_TRUE(saw_pool_gauge);
}

namespace {

/// A smaller matmul than make_jobs()'s: loop IR materializes the outer
/// product, which takes ~30 ms to interpret at 16x24x8.
constexpr const char *kSmallMatmul = R"(
program mm
input A : [4, 6]
input B : [6, 2]
output C = contract(outer(A, B), 1, 2)
)";

/// Loop-IR inputs for a job: the EKL bindings, or a fixed ramp for
/// kSmallMatmul.
std::map<std::string, en::Tensor> loop_inputs(const es::CompileJob &job) {
  if (job.kind == es::CompileJob::Kind::Ekl) return job.bindings.inputs;
  auto ramp = [](std::int64_t rows, std::int64_t cols) {
    std::vector<double> data(static_cast<std::size_t>(rows * cols));
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
    return en::Tensor({rows, cols}, std::move(data));
  };
  return {{"A", ramp(4, 6)}, {"B", ramp(6, 2)}};
}

bool same_outputs(const std::map<std::string, en::Tensor> &a,
                  const std::map<std::string, en::Tensor> &b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto &x, const auto &y) {
                      return x.first == y.first &&
                             x.second.shape() == y.second.shape() &&
                             std::ranges::equal(x.second.data(),
                                                y.second.data());
                    });
}

/// Printed IR of every stage, concatenated.
std::string ir_text(const es::CompileResult &r) {
  return r.frontend_ir->str() + r.teil_ir->str() + r.loop_ir->str() +
         r.system_ir->str();
}

}  // namespace

TEST(ParallelCompileTest, ConcurrentWarmHitsShareMastersSafely) {
  // Warm hits hand every caller the same immutable modules; eight threads
  // printing and interpreting them at once must see exactly what a serial
  // uncached compile produces (and, under tsan, race on nothing). Small
  // kernels keep the nine rounds of loop-IR interpretation cheap.
  auto jobs = make_jobs({2, 4});
  jobs.back().source = kSmallMatmul;
  es::Basecamp plain;
  auto baseline = plain.compile_many(jobs, 1);
  std::vector<std::string> want_text;
  std::vector<std::map<std::string, en::Tensor>> want_out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(baseline[i].has_value()) << baseline[i].error().message;
    want_text.push_back(ir_text(*baseline[i]));
    auto out = et::evaluate_loops(*baseline[i]->loop_ir, loop_inputs(jobs[i]));
    ASSERT_TRUE(out.has_value()) << out.error().message;
    want_out.push_back(std::move(*out));
  }

  es::CompileCache cache;
  es::Basecamp cached;
  cached.attach_cache(&cache);
  for (const auto &r : cached.compile_many(jobs, 4)) ASSERT_TRUE(r.has_value());

  constexpr int kThreads = 8;
  std::vector<std::vector<es::CompileResult>> got(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto results = cached.compile_many(jobs, 2);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!results[i] || ir_text(*results[i]) != want_text[i]) {
          failures.fetch_add(1);
          continue;
        }
        auto out = et::evaluate_loops(*results[i]->loop_ir,
                                      loop_inputs(jobs[i]));
        if (!out || !same_outputs(*out, want_out[i])) failures.fetch_add(1);
        got[t].push_back(std::move(*results[i]));
      }
    });
  }
  for (auto &th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.hits(),
            static_cast<std::int64_t>(kThreads * jobs.size()));
  // Every thread got the very same master modules.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), got[0].size());
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      EXPECT_EQ(got[t][i].teil_ir, got[0][i].teil_ir);
      EXPECT_EQ(got[t][i].loop_ir, got[0][i].loop_ir);
    }
  }
}

// ---------------------------------------------------------------------------
// Cache stress

TEST(CompileCacheStressTest, EightThreadsHammeringOneCache) {
  // One real compile provides a template entry to replicate under distinct
  // keys; the threads then mix hits, misses, stores, and evictions.
  es::Basecamp basecamp;
  rr::Config cfg;
  cfg.ncells = 8;
  rr::Data data = rr::make_data(cfg);
  auto seed = basecamp.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(seed.has_value()) << seed.error().message;
  es::CompileCacheEntry entry{seed->teil_ir,  seed->loop_ir,
                              seed->system_ir, seed->kernel,
                              seed->estimate,  seed->datapath_bits};
  const std::string teil_text = seed->teil_ir->str();

  es::CompileCache cache;
  cache.set_capacity(16);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        std::uint64_t key = static_cast<std::uint64_t>((t * 200 + i) % 32);
        std::uint64_t probe = static_cast<std::uint64_t>((t * 200 + i) % 48);
        cache.store(key, entry);
        auto hit = cache.lookup(probe);  // keys 32..47 are never stored
        if (hit) {
          // Hits must match the stored module byte-for-byte, yet never alias
          // the caller's copy: store() snapshots it, so the shared master is
          // out of the caller's reach.
          if (hit->teil_ir->str() != teil_text) failures.fetch_add(1);
          if (hit->teil_ir == seed->teil_ir) failures.fetch_add(1);
        }
        cache.direct_store("fp-" + std::to_string(key), key);
        auto mapped = cache.direct_lookup("fp-" + std::to_string(probe));
        if (mapped && *mapped >= 48) failures.fetch_add(1);
      }
    });
  }
  for (auto &th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.evictions(), 0);
  // Every lookup was either a hit or a miss, never lost.
  EXPECT_EQ(cache.hits() + cache.misses(), 8 * 200);
}

// ---------------------------------------------------------------------------
// Map matching: every thread and every dfg worker queries the one read-only
// SegmentIndex that register_mapmatch_operators shares between its closures.

TEST(MapMatchConcurrencyTest, EightThreadsShareOneIndex) {
  auto net = tr::make_grid_network(16, 1.0, 5);
  auto trace = tr::make_trace(net, 300, 0.04, 11);
  auto module = everest::frontend::parse_condrust(tr::mapmatch_condrust_source());
  ASSERT_TRUE(module.has_value()) << module.error().message;
  er::NodeRegistry registry;
  ASSERT_TRUE(tr::register_mapmatch_operators(registry, net));
  const std::map<std::string, er::Stream> inputs{
      {"points", tr::trace_to_stream(trace)}};

  auto serial = er::execute_dfg(**module, registry, inputs, 1);
  ASSERT_TRUE(serial.has_value()) << serial.error().message;

  std::vector<std::map<std::string, er::Stream>> results(8);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto out = er::execute_dfg(**module, registry, inputs, 1 + t % 4);
      if (out) {
        results[static_cast<std::size_t>(t)] = std::move(*out);
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (auto &th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto &out : results) EXPECT_EQ(out, *serial);
}
