// The traced run: per-layer metrics, timed from the benchmark's own code
// around the calls it makes into each pfi module (see perfbench/README.md
// for which end-to-end metric each one should move, on which workload).
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// Result of the traced run: per-layer metrics plus the digests its campaign
/// calls produced (the 1-thread and nproc-thread runs must agree byte for
/// byte; the caller gates on `errors` being empty).
struct TracedRun {
  JsonObject metrics;
  JsonObject ledger;
  std::vector<std::string> digests;
  std::vector<std::string> errors;
};

/// `smoke` shortens the time-budgeted probes.
TracedRun run_traced(const Workload& w, Setup& s, std::uint64_t seed,
                     std::int64_t threads, const std::string& work_dir,
                     bool smoke);

}  // namespace perfbench
