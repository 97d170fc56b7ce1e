// Pricing must not allocate: once every modeled NPB kernel has run once,
// invoking them again allocates nothing, and neither does the harness's
// state snapshot and compare.  This binary replaces the global operator new
// with a counting one, so it holds no other tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "coupling/kernel.hpp"
#include "machine/config.hpp"
#include "machine/machine.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The array and nothrow forms forward to this one.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace kcoup::npb {
namespace {

std::size_t allocations_per_round(ModeledApp& modeled, int rounds) {
  coupling::LoopApplication& app = modeled.app();
  std::vector<coupling::Kernel*> kernels = app.prologue;
  kernels.insert(kernels.end(), app.loop.begin(), app.loop.end());
  kernels.insert(kernels.end(), app.epilogue.begin(), app.epilogue.end());
  // Warm-up: one pass touches every region and sizes every buffer.
  for (coupling::Kernel* k : kernels) (void)k->invoke();

  double seconds = 0.0;
  const std::size_t before = g_allocations.load();
  for (int round = 0; round < rounds; ++round) {
    if (round % 4 == 0) app.reset();  // cold-start like every measurement
    for (coupling::Kernel* k : kernels) seconds += k->invoke();
  }
  const std::size_t allocated = g_allocations.load() - before;
  EXPECT_GT(seconds, 0.0);
  return allocated;
}

/// Allocations in `rounds` of loop traversals, each followed by a machine
/// snapshot and compare and by the app's state hook.
std::size_t snapshot_allocations(ModeledApp& modeled, int rounds) {
  coupling::LoopApplication& app = modeled.app();
  machine::Machine::State state;
  // Warm-up: touch every region, then take both snapshots of the cold
  // machine, whose stack is empty: later, fuller stacks must still fit.
  for (coupling::Kernel* k : app.loop) (void)k->invoke();
  app.reset();
  modeled.machine().save_state(state);
  (void)app.state_repeats(app);

  std::size_t repeats = 0;
  const std::size_t before = g_allocations.load();
  for (int round = 0; round < rounds; ++round) {
    for (coupling::Kernel* k : app.loop) (void)k->invoke();
    modeled.machine().save_state(state);
    EXPECT_TRUE(modeled.machine().state_equals(state));
    if (app.state_repeats(app)) ++repeats;
  }
  const std::size_t allocated = g_allocations.load() - before;
  EXPECT_GT(repeats, 0u);  // the loop reached its fixed point
  return allocated;
}

TEST(MachineAllocationTest, CountingNewSeesEveryAllocation) {
  const std::size_t before = g_allocations.load();
  auto boxed = std::make_unique<std::vector<double>>(4);
  EXPECT_EQ(g_allocations.load() - before, 2u);
}

TEST(MachineAllocationTest, InvokingModeledKernelsAllocatesNothing) {
  for (ProblemClass cls : {ProblemClass::kS, ProblemClass::kA}) {
    for (int ranks : {1, 4, 16}) {
      EXPECT_EQ(allocations_per_round(
                    *bt::make_modeled_bt(cls, ranks, machine::ibm_sp_p2sc()),
                    16),
                0u);
      EXPECT_EQ(allocations_per_round(
                    *sp::make_modeled_sp(cls, ranks, machine::generic_smp()),
                    16),
                0u);
      EXPECT_EQ(allocations_per_round(
                    *lu::make_modeled_lu(cls, ranks, machine::ibm_sp_p2sc()),
                    16),
                0u);
    }
  }
}

TEST(MachineAllocationTest, SnapshotAndCompareOnAWarmMachineAllocateNothing) {
  for (ProblemClass cls : {ProblemClass::kS, ProblemClass::kA}) {
    for (int ranks : {1, 4, 16}) {
      EXPECT_EQ(snapshot_allocations(
                    *bt::make_modeled_bt(cls, ranks, machine::ibm_sp_p2sc()),
                    8),
                0u);
      EXPECT_EQ(snapshot_allocations(
                    *sp::make_modeled_sp(cls, ranks, machine::generic_smp()),
                    8),
                0u);
      EXPECT_EQ(snapshot_allocations(
                    *lu::make_modeled_lu(cls, ranks, machine::ibm_sp_p2sc()),
                    8),
                0u);
    }
  }
}

}  // namespace
}  // namespace kcoup::npb
