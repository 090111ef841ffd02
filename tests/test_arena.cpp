// Arena / IR-ownership lifetime tests: bump allocation, destructor records,
// erase -> tombstone semantics, address stability, bulk reset, and clone
// fidelity. These are the invariants the pass manager, the per-pass cache
// and the rewrite drivers rely on, so they also run under the asan preset
// (-fsanitize=address,undefined) where a stale pointer would abort.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ir/arena.hpp"
#include "ir/builder.hpp"
#include "ir/ir.hpp"
#include "support/alloc_hook.hpp"

namespace ei = everest::ir;

namespace {

struct DtorProbe {
  explicit DtorProbe(std::vector<int> *log, int id) : log(log), id(id) {}
  ~DtorProbe() { log->push_back(id); }
  std::vector<int> *log;
  int id;
};

}  // namespace

// ----------------------------------------------------------------- Arena core

TEST(Arena, AllocationsAreAlignedAndCounted) {
  ei::Arena arena;
  void *a = arena.allocate(3, 1);
  void *b = arena.allocate(8, 8);
  void *c = arena.allocate(1, 64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  auto stats = arena.stats();
  EXPECT_EQ(stats.allocations, 3u);
  EXPECT_GE(stats.bytes_used, 12u);
  EXPECT_GE(stats.bytes_reserved, stats.bytes_used);
}

TEST(Arena, GrowsNewSlabsForOversizeRequests) {
  ei::Arena arena(/*slab_bytes=*/4096);
  // Larger than a whole slab: must land in a dedicated slab, not truncate.
  void *big = arena.allocate(10000, 16);
  ASSERT_NE(big, nullptr);
  auto stats = arena.stats();
  EXPECT_GE(stats.bytes_reserved, 10000u);
  EXPECT_GE(stats.slabs, 1u);
}

TEST(Arena, ResetRunsDestructorsInReverseOrder) {
  std::vector<int> log;
  ei::Arena arena;
  arena.create<DtorProbe>(&log, 1);
  arena.create<DtorProbe>(&log, 2);
  arena.create<DtorProbe>(&log, 3);
  EXPECT_TRUE(log.empty());
  arena.reset();
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(arena.stats().resets, 1u);
  EXPECT_EQ(arena.stats().bytes_used, 0u);
}

TEST(Arena, DestructorRunsOnArenaDestruction) {
  std::vector<int> log;
  {
    ei::Arena arena;
    arena.create<DtorProbe>(&log, 7);
  }
  EXPECT_EQ(log, (std::vector<int>{7}));
}

TEST(Arena, ResetRecyclesMemoryForReuse) {
  ei::Arena arena(/*slab_bytes=*/4096);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) arena.allocate(32, 8);
    arena.reset();
  }
  // After resets the arena holds at most one slab again.
  EXPECT_EQ(arena.stats().slabs, 1u);
  EXPECT_EQ(arena.stats().resets, 3u);
}

TEST(Arena, HighWaterTracksLifetimePeak) {
  ei::Arena arena;
  arena.allocate(1000, 8);
  auto peak = arena.stats();
  EXPECT_GE(peak.high_water, 1000u);
  EXPECT_EQ(peak.high_water, peak.bytes_used);
  arena.reset();
  // bytes_used restarts at zero but the lifetime peak survives: telemetry
  // wants "how big did this module ever get", not "how big is it now".
  EXPECT_EQ(arena.stats().bytes_used, 0u);
  EXPECT_EQ(arena.stats().high_water, peak.high_water);
  arena.allocate(16, 8);
  EXPECT_EQ(arena.stats().high_water, peak.high_water);
}

TEST(Arena, UseNodeAccountingResetsWithArena) {
  ei::Arena arena;
  EXPECT_EQ(arena.stats().use_nodes, 0u);
  arena.note_use_nodes(5);
  arena.note_use_nodes(3);
  EXPECT_EQ(arena.stats().use_nodes, 8u);
  arena.reset();
  EXPECT_EQ(arena.stats().use_nodes, 0u);
}

TEST(Arena, CreateWithTrailingStorageIsUsableAndDestroyed) {
  std::vector<int> log;
  ei::Arena arena;
  auto *probe = arena.create_with_trailing<DtorProbe>(64, &log, 11);
  auto *bytes = reinterpret_cast<unsigned char *>(probe) + sizeof(DtorProbe);
  for (int i = 0; i < 64; ++i) bytes[i] = static_cast<unsigned char>(i);
  for (int i = 0; i < 64; ++i)
    ASSERT_EQ(bytes[i], static_cast<unsigned char>(i));
  arena.reset();
  EXPECT_EQ(log, (std::vector<int>{11}));
}

TEST(Arena, AllocateArrayIsAlignedForElementType) {
  ei::Arena arena;
  arena.allocate(1, 1);  // misalign the bump pointer first
  double *d = arena.allocate_array<double>(7);
  void **p = arena.allocate_array<void *>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(void *), 0u);
  d[6] = 1.5;
  p[2] = d;
  EXPECT_EQ(d[6], 1.5);
  EXPECT_EQ(p[2], d);
}

// ------------------------------------------------------- Op lifetime/tombstones

TEST(ArenaIr, EraseTombstonesWithoutFreeing) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Value *x = b.constant_f64(1.0);
  ei::Operation &neg = b.create("arith.negf", {x}, {ei::Type::floating(64)});
  ei::Operation *neg_ptr = &neg;

  module.body().erase(neg_ptr);

  // The op is out of the list but its memory is still readable (tombstone):
  // worklist drivers may hold stale pointers until they observe erased().
  EXPECT_TRUE(neg_ptr->erased());
  EXPECT_EQ(neg_ptr->name(), "arith.negf");
  EXPECT_EQ(neg_ptr->parent_block(), nullptr);
  EXPECT_EQ(module.body().size(), 1u);
  // Use-lists were unhooked, so DCE-style queries see the def as dead.
  EXPECT_TRUE(x->users().empty());
}

TEST(ArenaIr, EraseTombstonesNestedSubtree) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Operation &outer = b.create("scf.execute_region", {}, {}, {}, 1);
  ei::Block &body = outer.region(0).add_block();
  ei::OpBuilder inner(&body);
  ei::Value *c = inner.constant_f64(2.0);
  ei::Operation &use = inner.create("arith.negf", {c}, {ei::Type::floating(64)});
  ei::Operation *use_ptr = &use;
  ei::Operation *def_ptr = c->defining_op();

  module.body().erase(&outer);

  EXPECT_TRUE(outer.erased());
  EXPECT_TRUE(use_ptr->erased());
  EXPECT_TRUE(def_ptr->erased());
  // Nested operand uses were dropped too: no dangling use-list entries.
  EXPECT_TRUE(c->users().empty());
}

TEST(ArenaIr, ErasedAddressesAreNeverReusedBeforeReset) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  std::set<const ei::Operation *> seen;
  for (int i = 0; i < 200; ++i) {
    ei::Value *v = b.constant_f64(static_cast<double>(i));
    const ei::Operation *op = v->defining_op();
    // Bump allocation without reuse: every op gets a fresh address even
    // though earlier ones were erased. This is what lets the worklist
    // driver use raw pointers as identities without an ABA hazard.
    EXPECT_TRUE(seen.insert(op).second);
    module.body().erase(const_cast<ei::Operation *>(op));
  }
  EXPECT_EQ(module.body().size(), 0u);
}

TEST(ArenaIr, DetachReattachMovesWithoutTombstoning) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Operation &a = b.create("test.a", {}, {});
  ei::Operation &c = b.create("test.c", {}, {});
  ei::Operation *mid = ei::Operation::create(module.arena(),
                                             ei::Symbol("test.b"), {}, {});
  module.body().attach_before(mid, &c);
  EXPECT_EQ(module.body().size(), 3u);
  EXPECT_EQ(a.next_in_block(), mid);
  EXPECT_EQ(mid->next_in_block(), &c);

  module.body().detach(mid);
  EXPECT_FALSE(mid->erased());
  EXPECT_EQ(mid->parent_block(), nullptr);
  EXPECT_EQ(module.body().size(), 2u);
  EXPECT_EQ(a.next_in_block(), &c);

  module.body().attach(mid);
  EXPECT_EQ(module.body().size(), 3u);
  EXPECT_EQ(&module.body().back(), mid);
}

TEST(ArenaIr, OperandSlotsAccountedAsUseNodes) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Value *x = b.constant_f64(1.0);
  ei::Value *y = b.constant_f64(2.0);
  std::size_t before = module.arena().stats().use_nodes;
  ei::Operation &add = b.create("arith.addf", {x, y}, {ei::Type::floating(64)});
  std::size_t after = module.arena().stats().use_nodes;
  EXPECT_GE(after - before, 2u);
  // Growing past the inline capacity allocates a fresh, larger slot array;
  // the abandoned one stays counted — use_nodes tracks slots allocated, not
  // slots live, matching the arena's never-free model.
  for (int i = 0; i < 6; ++i) add.append_operand(x);
  EXPECT_GT(module.arena().stats().use_nodes, after);
}

TEST(ArenaIr, ModuleStatsReflectArenaOwnership) {
  ei::Module module;
  auto before = module.arena().stats();
  ei::OpBuilder b(&module.body());
  for (int i = 0; i < 50; ++i) b.constant_f64(static_cast<double>(i));
  auto after = module.arena().stats();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GT(after.bytes_used, before.bytes_used);
}

// ------------------------------------------------------------------- Clones

TEST(ArenaIr, CloneModuleIsByteIdenticalAndIndependent) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Value *x = b.constant_f64(1.5);
  ei::Value *y = b.constant_f64(2.5);
  ei::Value *sum = b.create_value("arith.addf", {x, y}, ei::Type::floating(64));
  ei::Operation &region_op =
      b.create("scf.execute_region", {sum}, {ei::Type::floating(64)}, {}, 1);
  ei::Block &inner = region_op.region(0).add_block();
  inner.add_argument(ei::Type::index());
  ei::OpBuilder ib(&inner);
  ib.create("scf.yield", {sum}, {});

  ei::Module copy = ei::clone_module(module);
  EXPECT_EQ(copy.str(), module.str());

  // Mutating the clone must not bleed into the original (separate arenas).
  copy.find_first("arith.addf")->set_attr("tag", ei::Attribute(true));
  ei::OpBuilder cb(&copy.body());
  cb.constant_f64(9.0);
  EXPECT_NE(copy.str(), module.str());
  EXPECT_EQ(module.find_first("arith.addf")->attr("tag"), nullptr);
}

TEST(ArenaIr, CloneStaysOffTheGlobalHeap) {
  // The alloc_hook TU is linked into this binary, so global operator new is
  // counted while enabled. Under asan/tsan the hook compiles to a stub.
  if (!everest::support::alloc_counter_available())
    GTEST_SKIP() << "alloc counter stubbed out under sanitizers";

  ei::Module module;
  ei::OpBuilder b(&module.body());
  std::vector<ei::Value *> vals;
  vals.push_back(b.constant_f64(1.0));
  vals.push_back(b.constant_f64(2.0));
  const int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    ei::Value *v = b.create_value(
        i % 2 == 0 ? "arith.addf" : "arith.mulf",
        {vals[(i * 7 + 1) % vals.size()], vals[(i * 3 + 2) % vals.size()]},
        ei::Type::floating(64));
    if (i % 3 != 0) vals.push_back(v);
  }

  everest::support::alloc_counter_reset();
  everest::support::alloc_counter_enable(true);
  ei::Module copy = ei::clone_module(module);
  everest::support::alloc_counter_enable(false);
  std::uint64_t news = everest::support::alloc_counter_news();

  EXPECT_EQ(copy.str(), module.str());
  // Per-op data lives in the destination arena: the only global-heap traffic
  // is arena slabs, the value-remap table, and module scaffolding — a small
  // constant plus a sub-linear slab term, nowhere near one new per op.
  EXPECT_LE(news, static_cast<std::uint64_t>(kOps) / 4 + 16);
}

TEST(ArenaIr, CloneOpIntoSplicesSelfContainedFunc) {
  ei::Module src;
  {
    ei::Operation *func = ei::Operation::create(
        src.arena(), ei::Symbol("teil.func"), {}, {},
        {{"sym_name", ei::Attribute(std::string("k"))}}, 1);
    ei::Block &body = func->region(0).add_block();
    ei::OpBuilder b(&body);
    ei::Value *c = b.constant_f64(4.0);
    b.create("teil.output", {c}, {}, {{"name", ei::Attribute(std::string("o"))}});
    src.body().attach(func);
  }

  ei::Module dst;
  const ei::Operation &func = src.body().front();
  ei::Operation *copy = ei::clone_op_into(func, dst.body());
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(dst.str(), src.str());
  EXPECT_EQ(&dst.body().front(), copy);
}

TEST(ArenaIr, ModuleMoveTransfersOwnership) {
  ei::Module a;
  ei::OpBuilder b(&a.body());
  b.constant_f64(3.0);
  std::string printed = a.str();

  ei::Module moved = std::move(a);
  EXPECT_EQ(moved.str(), printed);
  ei::Module assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.str(), printed);
}

// ------------------------------------------------------- Region/Block ranges

TEST(ArenaIr, RegionBlocksRangeDoesNotExposeOwnership) {
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Operation &op = b.create("scf.execute_region", {}, {}, {}, 1);
  op.region(0).add_block();
  op.region(0).add_block();

  std::size_t count = 0;
  for (ei::Block &block : op.region(0).blocks()) {
    (void)block;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(op.region(0).num_blocks(), 2u);
  EXPECT_EQ(&op.region(0).front(), &op.region(0).block(0));
  EXPECT_EQ(&op.region(0).back(), &op.region(0).block(1));

  const ei::Region &cregion = op.region(0);
  count = 0;
  for (const ei::Block &block : cregion.blocks()) {
    (void)block;
    ++count;
  }
  EXPECT_EQ(count, 2u);
}
