#include "core/engine.hpp"

namespace pfi::core::detail {

WaveEngine::WaveEngine(FaultInjector& fi, std::int64_t threads) {
  PFI_CHECK(threads >= 1) << "wave engine threads=" << threads;
  fi.clear();
  workers_.push_back(&fi);
  if (threads == 1) return;
  for (std::int64_t t = 1; t < threads; ++t) {
    replicas_.push_back(fi.replicate());
    workers_.push_back(replicas_.back().get());
  }
  pool_.emplace(static_cast<std::size_t>(threads));
}

WaveEngine::~WaveEngine() {
  for (const auto& replica : replicas_) {
    workers_.front()->absorb_prefix_stats(*replica);
  }
}

void WaveEngine::dispatch(
    std::int64_t n,
    const std::function<bool(std::size_t, std::int64_t)>& unit) {
  const std::int64_t T = threads();
  const auto work = [&](std::size_t g) {
    for (std::int64_t i = static_cast<std::int64_t>(g); i < n; i += T) {
      if (unit(g, i)) return;
    }
  };
  try {
    if (pool_) {
      pool_->run(workers_.size(), work);
    } else {
      work(0);
    }
  } catch (...) {
    workers_.front()->clear();
    throw;
  }
}

}  // namespace pfi::core::detail
