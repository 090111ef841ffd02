// Pass-pipeline tests: anchoring semantics, repeat determinism, and the
// per-pass incremental cache. The cache tier is shared by every
// compile_many worker, so its lookup/store contract is also exercised from
// several threads at once (the "concurrency"-labeled case below).

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ir/builder.hpp"
#include "ir/ir.hpp"
#include "ir/pass.hpp"
#include "sdk/compile_cache.hpp"
#include "transforms/canonicalize.hpp"

namespace ei = everest::ir;
namespace es = everest::support;

namespace {

// A teil.func whose body is a random DAG of f64 arithmetic with deliberate
// redundancy (duplicate subexpressions for CSE, unused results for DCE) so
// canonicalize has real work to do per func.
void add_random_func(ei::Module &m, const std::string &name,
                     std::mt19937 &rng, std::size_t num_ops) {
  ei::Operation *func = ei::Operation::create(
      m.arena(), ei::Symbol("teil.func"), {}, {},
      {{"sym_name", ei::Attribute(name)}}, 1);
  ei::Block &body = func->region(0).add_block();
  ei::OpBuilder b(&body);

  std::uniform_real_distribution<double> lit(-4.0, 4.0);
  std::vector<ei::Value *> vals;
  vals.push_back(b.constant_f64(lit(rng)));
  vals.push_back(b.constant_f64(lit(rng)));
  for (std::size_t i = 0; i < num_ops; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, vals.size() - 1);
    ei::Value *lhs = vals[pick(rng)];
    ei::Value *rhs = vals[pick(rng)];
    const char *op = (rng() % 2 == 0) ? "arith.addf" : "arith.mulf";
    ei::Value *v = b.create_value(op, {lhs, rhs}, ei::Type::floating(64));
    // Sometimes emit an exact duplicate (CSE fodder) or leave a value with
    // no eventual consumer (DCE fodder).
    if (rng() % 4 == 0)
      b.create_value(op, {lhs, rhs}, ei::Type::floating(64));
    if (rng() % 3 != 0) vals.push_back(v);
  }
  b.create("teil.output", {vals.back()}, {},
           {{"name", ei::Attribute(std::string("out"))}});
  m.body().attach(func);
}

ei::Module build_random_module(unsigned seed, std::size_t num_funcs,
                               std::size_t ops_per_func) {
  std::mt19937 rng(seed);
  ei::Module m;
  for (std::size_t i = 0; i < num_funcs; ++i)
    add_random_func(m, "k" + std::to_string(i), rng, ops_per_func);
  return m;
}

// The reference pipeline used by the determinism and cache tests:
// canonicalize each func, then tag it so we can observe that every func was
// visited.
void add_reference_pipeline(ei::PassManager &pm) {
  pm.add_func_pass("canonicalize", [](ei::Operation &func, ei::Context &) {
    return everest::transforms::canonicalize_func_checked(func);
  });
  pm.add_func_pass("tag", [](ei::Operation &func, ei::Context &) {
    func.set_attr("pipeline.done", ei::Attribute(true));
    return es::Status::ok();
  });
}

}  // namespace

// ----------------------------------------------------------------- Anchoring

TEST(PassPipeline, ModuleAndFuncAnchorsDispatchCorrectly) {
  ei::Context ctx;
  ei::Module m = build_random_module(/*seed=*/1, /*num_funcs=*/3,
                                     /*ops_per_func=*/6);

  int module_runs = 0;
  int func_runs = 0;
  ei::PassManager pm(ctx);
  pm.add_pass("count-module", [&](ei::Module &, ei::Context &) {
    ++module_runs;
    return es::Status::ok();
  });
  pm.add_func_pass("count-func", [&](ei::Operation &, ei::Context &) {
    ++func_runs;
    return es::Status::ok();
  });
  es::Status st = pm.run(m);
  ASSERT_TRUE(st.is_ok()) << st.message();
  EXPECT_EQ(module_runs, 1);
  EXPECT_EQ(func_runs, 3);  // once per top-level func op

  // Timings cover both anchors, in pipeline order.
  ASSERT_EQ(pm.timings().size(), 2u);
  EXPECT_EQ(pm.timings()[0].name, "count-module");
  EXPECT_EQ(pm.timings()[1].name, "count-func");
}

TEST(PassPipeline, FuncPassFailurePropagates) {
  ei::Context ctx;
  ei::Module m = build_random_module(2, 2, 4);
  ei::PassManager pm(ctx);
  pm.add_func_pass("fail", [](ei::Operation &func, ei::Context &) {
    if (func.attr("sym_name")->as_string() == "k1")
      return es::Status::failure("injected failure");
    return es::Status::ok();
  });
  auto status = pm.run(m);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("injected failure"), std::string::npos);
}

// ---------------------------------------------------------- Determinism

TEST(PassPipeline, SerialRunIsDeterministicAcrossRepeats) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    ei::Module reference = build_random_module(seed, 6, 24);
    std::string expected;
    for (int rep = 0; rep < 3; ++rep) {
      ei::Module m = ei::clone_module(reference);
      ei::Context ctx;
      ei::PassManager pm(ctx);
      add_reference_pipeline(pm);
      ASSERT_TRUE(pm.run(m).is_ok()) << "seed " << seed;
      if (rep == 0)
        expected = m.str();
      else
        EXPECT_EQ(m.str(), expected) << "seed " << seed << " rep " << rep;
    }
  }
}

// ----------------------------------------------------- Per-pass cache tier

TEST(PassPipeline, PassCacheHitsOnSecondRunAndStaysByteIdentical) {
  everest::sdk::PassResultCache cache;

  ei::Module first = build_random_module(7, 4, 16);
  ei::Module second = ei::clone_module(first);

  ei::Context ctx;
  ei::PassManager cold(ctx);
  add_reference_pipeline(cold);
  cold.set_pass_cache(&cache);
  ASSERT_TRUE(cold.run(first).is_ok());
  EXPECT_EQ(cold.cache_stats().hits, 0);
  EXPECT_EQ(cold.cache_stats().misses, 8);  // 4 funcs x 2 func passes
  EXPECT_EQ(cache.misses(), 8);
  // The pipeline actually changed the IR (canonicalize was not a no-op).
  ASSERT_EQ(cold.timings().size(), 2u);
  EXPECT_LT(cold.timings()[0].ops_after, cold.timings()[0].ops_before);

  ei::PassManager warm(ctx);
  add_reference_pipeline(warm);
  warm.set_pass_cache(&cache);
  ASSERT_TRUE(warm.run(second).is_ok());
  EXPECT_EQ(warm.cache_stats().hits, 8);
  EXPECT_EQ(warm.cache_stats().misses, 0);
  EXPECT_EQ(cache.hits(), 8);

  // A cached replay must be indistinguishable from the real pipeline.
  EXPECT_EQ(second.str(), first.str());
}

TEST(PassPipeline, OneKernelEditOnlyReRunsThatKernel) {
  everest::sdk::PassResultCache cache;

  ei::Module before = build_random_module(11, 3, 12);
  ei::Module after = ei::clone_module(before);
  // Edit exactly one kernel: append an extra op to k1's body.
  {
    ei::Operation *k1 = nullptr;
    for (ei::Operation &op : after.body()) {
      if (const ei::Attribute *sym = op.attr("sym_name");
          sym && sym->as_string() == "k1")
        k1 = &op;
    }
    ASSERT_NE(k1, nullptr);
    ei::OpBuilder b(&k1->region(0).front());
    ei::Value *c = b.constant_f64(123.0);
    b.create("teil.output", {c}, {},
             {{"name", ei::Attribute(std::string("extra"))}});
  }

  ei::Context ctx;
  ei::PassManager cold(ctx);
  add_reference_pipeline(cold);
  cold.set_pass_cache(&cache);
  ASSERT_TRUE(cold.run(before).is_ok());
  EXPECT_EQ(cold.cache_stats().misses, 6);  // 3 funcs x 2 passes

  ei::PassManager warm(ctx);
  add_reference_pipeline(warm);
  warm.set_pass_cache(&cache);
  ASSERT_TRUE(warm.run(after).is_ok());
  // k0 and k2 replay from the cache for both passes; only the edited k1
  // misses. (Its "tag" stage also misses: the edit changes the text that
  // feeds the second pass's fingerprint.)
  EXPECT_EQ(warm.cache_stats().hits, 4);
  EXPECT_EQ(warm.cache_stats().misses, 2);
}

TEST(PassPipeline, FingerprintSeparatesPassesAndBodies) {
  const std::uint64_t a = ei::pass_fingerprint("canonicalize", "body-1");
  const std::uint64_t b = ei::pass_fingerprint("canonicalize", "body-2");
  const std::uint64_t c = ei::pass_fingerprint("tag", "body-1");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, ei::pass_fingerprint("canonicalize", "body-1"));
}

TEST(PassPipeline, PassResultCacheEvictsWholesaleAtCapacity) {
  everest::sdk::PassResultCache cache(/*capacity=*/2);
  ei::Module m = build_random_module(21, 1, 4);
  const ei::Operation &func = m.body().front();
  cache.store(1, func);
  cache.store(2, func);
  EXPECT_EQ(cache.size(), 2u);
  cache.store(3, func);  // over capacity: wholesale reset, then insert
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(PassPipeline, HeldLookupSurvivesEvictingStore) {
  everest::sdk::PassResultCache cache(/*capacity=*/1);
  ei::Module m = build_random_module(31, 2, 8);
  const ei::Operation &k0 = m.body().front();
  const ei::Operation &k1 = m.body().back();
  cache.store(1, k0);
  std::shared_ptr<const ei::Module> held = cache.lookup(1);
  ASSERT_NE(held, nullptr);

  cache.store(1, k1);  // replaces the entry the caller still holds
  cache.store(2, k0);  // over capacity: wholesale reset, then insert
  EXPECT_EQ(cache.lookup(1), nullptr);

  ei::Module out;
  ei::clone_op_into(held->body().front(), out.body());
  EXPECT_EQ(out.body().front().str(), k0.str());
}

// compile_many workers share one pass tier: lookups clone from masters that
// other threads' stores replace or evict. Six keys over a capacity of four
// force wholesale resets while hits are being cloned.
TEST(PassPipeline, PassResultCacheLookupStoreAcrossThreads) {
  everest::sdk::PassResultCache cache(/*capacity=*/4);
  const std::size_t kFuncs = 4, kKeys = 6;
  std::vector<std::string> texts;
  {
    ei::Module m = build_random_module(41, kFuncs, 8);
    for (const ei::Operation &op : m.body()) texts.push_back(op.str());
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread stores from its own copy of the same module.
      ei::Module m = build_random_module(41, kFuncs, 8);
      std::vector<const ei::Operation *> funcs;
      for (const ei::Operation &op : m.body()) funcs.push_back(&op);
      for (std::size_t i = 0; i < 200; ++i) {
        const std::uint64_t key = (t + i) % kKeys;
        const std::size_t which = key % kFuncs;
        if (auto held = cache.lookup(key)) {
          ei::Module out;
          ei::clone_op_into(held->body().front(), out.body());
          if (out.body().front().str() != texts[which]) ++mismatches[t];
        } else {
          cache.store(key, *funcs[which]);
        }
      }
    });
  }
  for (auto &thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
}
