// The benchmark's three campaign workloads: their definitions, set-up, and
// one campaign call each, plus the digest that the correctness gate compares.
//
// Models are seeded and untrained, so set-up measures the injector and not a
// trainer. The model seed is fixed per workload; the benchmark's --seed is
// the campaign seed, i.e. it chooses the images drawn and the faults
// injected. See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/fault_injector.hpp"
#include "core/sampling.hpp"
#include "data/synthetic.hpp"
#include "nn/container.hpp"

namespace perfbench {

enum class Kind { kUniform, kStratifiedShards };

struct Workload {
  std::string name;
  std::string model;
  Kind kind = Kind::kUniform;
  pfi::core::DType dtype = pfi::core::DType::kFloat32;
  bool native = false;
  bool static_calib = false;
  bool one_fault_per_layer = false;
  bool trace = false;  ///< campaign records into an in-memory TraceSink
  std::int64_t batch = 4;
  std::int64_t injections_per_image = 4;
  std::int64_t trials = 0;
  std::int64_t shards = 1;
};

/// The workload named `name` at full or smoke size; throws on an unknown name.
Workload find_workload(const std::string& name, bool smoke);

/// Everything set-up builds: dataset, model, calibration, injector.
struct Setup {
  std::unique_ptr<pfi::data::SyntheticDataset> ds;
  std::shared_ptr<pfi::nn::Sequential> model;
  std::shared_ptr<const pfi::quant::StaticActQuant> calib;
  std::unique_ptr<pfi::core::FaultInjector> fi;
  double calibrate_s = 0.0;  ///< time inside calibrate_static_act
};

/// Injector configuration for `w` at `batch` (the campaign's batch size, or 1
/// for single-image latency).
pfi::core::FiConfig fi_config(const Workload& w, const Setup& s,
                              std::int64_t batch);

Setup make_setup(const Workload& w);

/// The campaign configuration a workload runs with at `seed`.
pfi::core::CampaignConfig campaign_config(const Workload& w,
                                          std::uint64_t seed,
                                          std::int64_t threads);
pfi::core::StratifiedCampaignConfig stratified_config(const Workload& w,
                                                      std::uint64_t seed,
                                                      std::int64_t threads);

/// One campaign call's result: the digest of its outputs and what the
/// per-layer probes read from it.
struct Outcome {
  std::string digest;  ///< counts, trace digest and estimate, as one string
  double seconds = 0.0;
  pfi::core::CampaignResult counts;
  pfi::core::StratifiedResult stratified;  ///< stratified workloads only
  std::vector<pfi::trace::InjectionEvent> events;
  std::string jsonl;  ///< the trace exported to JSONL (empty without trace)

  double trials_per_s() const {
    return seconds > 0.0 ? static_cast<double>(counts.trials) / seconds : 0.0;
  }
};

/// Fill `out`'s JSONL export, digest, trial count and events from the
/// campaign's sink and result (counts, or stratified for stratified runs).
void seal_outcome(const Workload& w, pfi::trace::TraceSink& sink,
                  Outcome& out);

/// Run the workload's campaign once, timed end to end (replica build, merge,
/// commits, trace export included). `work_dir` holds shard files; it is
/// emptied first.
Outcome run_campaign(const Workload& w, Setup& s, std::uint64_t seed,
                     std::int64_t threads, const std::string& work_dir);

/// Remove `dir` and everything under it (no-op when it does not exist).
void remove_dir(const std::string& dir);

}  // namespace perfbench
