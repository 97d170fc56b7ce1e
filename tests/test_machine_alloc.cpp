// Pricing must not allocate: once every modeled NPB kernel has run once,
// invoking them again allocates nothing.  This binary replaces the global
// operator new with a counting one, so it holds no other tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "coupling/kernel.hpp"
#include "machine/config.hpp"
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

}  // namespace
}  // namespace kcoup::npb
