#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace kcoup::coupling {

/// A kernel in the paper's sense: "a unit of computation that denotes a
/// logical entity within the larger context of an application" (§2) — a
/// loop, procedure, or file, at whatever granularity the analyst chose.
///
/// Invoking a kernel performs one execution and returns its cost in seconds.
/// Implementations may be *modeled* (a WorkProfile priced by machine::Machine
/// with persistent cache state, so invocation order matters — that is the
/// coupling phenomenon) or *measured* (real code timed with a Stopwatch).
class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Execute once; returns the invocation's execution time in seconds.
  virtual double invoke() = 0;
};

/// Adapter: build a Kernel from a callable returning seconds.  Convenient in
/// tests and in the quickstart example.
class CallableKernel final : public Kernel {
 public:
  CallableKernel(std::string name, std::function<double()> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  double invoke() override { return fn_(); }

 private:
  std::string name_;
  std::function<double()> fn_;
};

/// An application described the way the paper measures one: optional
/// prologue kernels (INITIALIZATION), a cyclic main loop of kernels executed
/// `iterations` times in control-flow order, and optional epilogue kernels
/// (FINAL).  `reset` must restore the execution environment to its
/// start-of-run state (cold caches for modeled kernels); the measurement
/// harness calls it before every independent measurement.
///
/// `state_repeats` is optional and only a deterministic owner sets it
/// (ModeledApp).  Called with the application being measured, it returns
/// true when the execution state equals the state at the previous call,
/// then records the current one.  The harness calls it before a
/// measurement's first traversal and after each one; a true answer proves
/// the last traversal left the state as it found it, so every later
/// traversal would cost exactly the same and is not priced again.  Left
/// empty, every traversal is priced.
struct LoopApplication {
  std::string name;
  std::vector<Kernel*> prologue;  // non-owning; executed once, in order
  std::vector<Kernel*> loop;      // non-owning; the cyclic main loop
  std::vector<Kernel*> epilogue;  // non-owning; executed once, in order
  int iterations = 1;
  std::function<void()> reset = [] {};
  std::function<bool(const LoopApplication&)> state_repeats;

  [[nodiscard]] std::size_t loop_size() const { return loop.size(); }
};

}  // namespace kcoup::coupling
