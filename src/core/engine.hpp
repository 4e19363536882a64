// The one wave engine under every campaign runner. Internal: not part of
// the public API.
//
// A campaign is a sequence of waves. Its runner plans a wave of n units
// (attempts, weight faults, fleet events or stratum attempts), the engine
// runs unit i on worker i mod T, and the runner folds the outcomes in unit
// order and commits. A unit's randomness derives from (seed, unit index),
// never from the worker that runs it, so the folded counts and trace stream
// are the same at every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace pfi::core::detail {

/// Resolve the `threads` knob: 0 = hardware concurrency, and never more
/// workers than trial units (a replica that would run < 1 unit is pure
/// setup cost).
inline std::int64_t resolve_threads(std::int64_t requested,
                                    std::int64_t units) {
  std::int64_t t = requested == 0
                       ? static_cast<std::int64_t>(
                             util::ThreadPool::hardware_threads())
                       : requested;
  PFI_CHECK(t >= 1) << "threads=" << requested << " must be >= 0";
  return std::clamp<std::int64_t>(t, 1, std::max<std::int64_t>(1, units));
}

/// T campaign workers and the one dispatch loop. Worker 0 is the caller's
/// injector and workers 1..T-1 its deep replicas, served by a pool of T
/// threads. At T = 1 neither replicas nor pool exist: units run inline on
/// the caller's injector.
class WaveEngine {
 public:
  /// Clears the caller's injector (replicas need a quiescent source), then
  /// builds the replicas and the pool.
  WaveEngine(FaultInjector& fi, std::int64_t threads);

  /// Replicas die with the engine; their prefix-cache counters are folded
  /// into the caller's injector first, so the campaign report shows
  /// whole-campaign hit rates at any thread count.
  ~WaveEngine();

  WaveEngine(const WaveEngine&) = delete;
  WaveEngine& operator=(const WaveEngine&) = delete;

  std::int64_t threads() const {
    return static_cast<std::int64_t>(workers_.size());
  }
  FaultInjector& worker(std::size_t g) const { return *workers_[g]; }

  /// Run a wave of n units and fold their outcomes strictly in unit order.
  /// unit(g, i) runs unit i on worker(g), and worker g takes the units
  /// i ≡ g (mod T), so no injector is touched by two threads. fold(i, out)
  /// consumes unit i's outcome and returns true to end the wave there.
  /// Returns the number of units run: at T = 1 each outcome is folded as
  /// soon as its unit returns, so no unit past the end of the wave runs; at
  /// T > 1 all n units run before the fold. A unit's exception reaches the
  /// caller once the wave has drained, with any fault it left armed on the
  /// caller's injector cleared.
  template <typename Unit, typename Fold>
  std::int64_t run(std::int64_t n, Unit&& unit, Fold&& fold) {
    using Out = std::invoke_result_t<Unit&, std::size_t, std::int64_t>;
    if (threads() == 1) {
      std::int64_t ran = 0;
      dispatch(n, [&](std::size_t g, std::int64_t i) {
        Out out = unit(g, i);
        ++ran;
        return fold(i, out);
      });
      return ran;
    }
    std::vector<Out> outs(static_cast<std::size_t>(n));
    dispatch(n, [&](std::size_t g, std::int64_t i) {
      outs[static_cast<std::size_t>(i)] = unit(g, i);
      return false;
    });
    for (std::int64_t i = 0; i < n; ++i) {
      if (fold(i, outs[static_cast<std::size_t>(i)])) break;
    }
    return n;
  }

 private:
  /// The one dispatch loop: worker g calls unit(g, i) for i ≡ g (mod T) in
  /// increasing order until a call returns true, and the wave ends when
  /// every worker has.
  void dispatch(std::int64_t n,
                const std::function<bool(std::size_t, std::int64_t)>& unit);

  std::vector<FaultInjector*> workers_;
  std::vector<std::unique_ptr<FaultInjector>> replicas_;
  std::optional<util::ThreadPool> pool_;
};

}  // namespace pfi::core::detail
