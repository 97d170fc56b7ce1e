#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coupling/kernel.hpp"
#include "coupling/modeled_kernel.hpp"
#include "machine/machine.hpp"

namespace kcoup::coupling {

/// Owns a Machine, a set of ModeledKernels and the LoopApplication wiring —
/// the scaffolding shared by the BT/SP/LU work models.  The application's
/// reset() cold-starts the machine, which is what makes every measurement
/// independent.
///
/// The application's state_repeats hook compares machine states, which is
/// exact because Machine::execute is a pure function of (config, state,
/// profile).  app() is mutable and copyable, so the hook answers false
/// whenever the application it is asked about runs a kernel this app did
/// not create or resets other than by cold-starting this machine: such an
/// application is priced in full.
class ModeledApp {
 public:
  ModeledApp(std::string name, machine::MachineConfig config, int iterations)
      : machine_(std::move(config)) {
    app_.name = std::move(name);
    app_.iterations = iterations;
    app_.reset = ColdStart{&machine_};
    app_.state_repeats = [this](const LoopApplication& app) {
      return state_repeats(app);
    };
  }

  ModeledApp(const ModeledApp&) = delete;
  ModeledApp& operator=(const ModeledApp&) = delete;

  [[nodiscard]] machine::Machine& machine() { return machine_; }
  [[nodiscard]] const machine::Machine& machine() const { return machine_; }

  machine::RegionId region(std::string name, std::size_t bytes) {
    return machine_.register_region(std::move(name), bytes);
  }

  ModeledKernel* add_loop_kernel(machine::WorkProfile profile) {
    return add(app_.loop, std::move(profile));
  }
  ModeledKernel* add_prologue(machine::WorkProfile profile) {
    return add(app_.prologue, std::move(profile));
  }
  ModeledKernel* add_epilogue(machine::WorkProfile profile) {
    return add(app_.epilogue, std::move(profile));
  }

  [[nodiscard]] LoopApplication& app() { return app_; }
  [[nodiscard]] const LoopApplication& app() const { return app_; }

 private:
  struct ColdStart {
    machine::Machine* machine;
    void operator()() const { machine->reset_state(); }
  };

  ModeledKernel* add(std::vector<Kernel*>& where,
                               machine::WorkProfile profile) {
    kernels_.push_back(
        std::make_unique<ModeledKernel>(&machine_, std::move(profile)));
    ModeledKernel* k = kernels_.back().get();
    where.push_back(k);
    return k;
  }

  /// True when every kernel `app` runs is one of ours and its reset is our
  /// cold start, so each traversal is a pure function of the machine state.
  /// The ownership scan runs only when `app`'s kernel lists differ from the
  /// last ones it passed: our kernels live as long as we do, so no foreign
  /// kernel can take the address of one the scan found ours.
  [[nodiscard]] bool deterministic(const LoopApplication& app) {
    const auto* reset = app.reset.target<ColdStart>();
    if (reset == nullptr || reset->machine != &machine_) return false;
    if (app.prologue == owned_prologue_ && app.loop == owned_loop_ &&
        app.epilogue == owned_epilogue_) {
      return true;
    }
    const auto owned = [this](const Kernel* k) {
      return std::any_of(kernels_.begin(), kernels_.end(),
                         [k](const auto& own) { return own.get() == k; });
    };
    if (!(std::all_of(app.prologue.begin(), app.prologue.end(), owned) &&
          std::all_of(app.loop.begin(), app.loop.end(), owned) &&
          std::all_of(app.epilogue.begin(), app.epilogue.end(), owned))) {
      return false;
    }
    owned_prologue_ = app.prologue;
    owned_loop_ = app.loop;
    owned_epilogue_ = app.epilogue;
    return true;
  }

  bool state_repeats(const LoopApplication& app) {
    if (!deterministic(app)) {
      saved_valid_ = false;
      return false;
    }
    if (saved_valid_ && machine_.state_equals(saved_)) return true;
    machine_.save_state(saved_);
    saved_valid_ = true;
    return false;
  }

  machine::Machine machine_;
  std::vector<std::unique_ptr<ModeledKernel>> kernels_;
  LoopApplication app_;
  machine::Machine::State saved_;  ///< state at the last state_repeats()
  bool saved_valid_ = false;
  /// The kernel lists deterministic() last found to be all ours.
  std::vector<Kernel*> owned_prologue_, owned_loop_, owned_epilogue_;
};

}  // namespace kcoup::coupling
