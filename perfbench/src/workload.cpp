#include "workload.hpp"

#include <cstdio>
#include <filesystem>

#include "core/calibrate.hpp"
#include "core/shard.hpp"
#include "models/zoo.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace perfbench {

using namespace pfi;

namespace {

// Fixed per-workload model seed: the campaign seed varies, the model does not,
// so run-to-run differences come from the inputs and not from a new network.
constexpr std::uint64_t kModelSeed = 101;
// Calibration batches for the static INT8 workload (as pfi_cli --static-calib).
constexpr int kCalibBatches = 8;
constexpr std::int64_t kCalibBatchSize = 12;

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string counts_digest(const core::CampaignResult& r) {
  return "trials=" + std::to_string(r.trials) +
         ",skipped=" + std::to_string(r.skipped) +
         ",corruptions=" + std::to_string(r.corruptions) +
         ",non_finite=" + std::to_string(r.non_finite) +
         ",gave_up=" + std::to_string(r.gave_up);
}

std::string trace_digest(const std::string& jsonl, std::size_t events) {
  return ";trace=" + std::to_string(events) + "/" + hex64(util::fnv1a(jsonl));
}

}  // namespace

Workload find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "neuron-fp32") {
    // The paper's Fig. 4 method: uniform single-bit flips, fp32.
    w.model = "resnet18";
    w.batch = 4;
    w.injections_per_image = 8;
    w.trials = smoke ? 160 : 1000;
  } else if (name == "layerwide-int8") {
    // Sec. IV-B/D error model on native INT8 with static calibration.
    w.model = "resnet18";
    w.dtype = core::DType::kInt8;
    w.native = true;
    w.static_calib = true;
    w.one_fault_per_layer = true;
    w.trace = true;
    w.batch = 4;
    w.injections_per_image = 4;
    w.trials = smoke ? 40 : 200;
  } else if (name == "stratified-shards") {
    // Stratified fixed-budget sampling with pruning, two in-process shards.
    w.model = "vgg19";
    w.kind = Kind::kStratifiedShards;
    w.dtype = core::DType::kInt8;
    w.trace = true;
    w.batch = 4;
    w.injections_per_image = 4;
    w.trials = smoke ? 300 : 1200;
    w.shards = 2;
  } else {
    PFI_CHECK(false) << "unknown workload '" << name
                     << "' (neuron-fp32 | layerwide-int8 | stratified-shards)";
  }
  return w;
}

core::FiConfig fi_config(const Workload& w, const Setup& s,
                         std::int64_t batch) {
  const auto& spec = s.ds->spec();
  core::FiConfig cfg{.input_shape = {spec.channels, spec.height, spec.width},
                     .batch_size = batch};
  cfg.dtype = w.dtype;
  cfg.native = w.native;
  cfg.static_act = s.calib;
  return cfg;
}

Setup make_setup(const Workload& w) {
  Setup s;
  s.ds = std::make_unique<data::SyntheticDataset>(data::cifar10_like());
  const auto& spec = s.ds->spec();
  Rng rng(kModelSeed);
  s.model = models::make_model(
      w.model, {.num_classes = spec.classes, .image_size = spec.height}, rng);
  s.model->eval();
  if (w.static_calib) {
    // Frozen activation scales from a golden fp32 pass; the temporary
    // injector's destructor removes its hooks before the real one is built.
    Rng calib_rng(kModelSeed + 4);
    std::vector<Tensor> batches;
    for (int b = 0; b < kCalibBatches; ++b) {
      batches.push_back(s.ds->sample_batch(kCalibBatchSize, calib_rng).images);
    }
    Stopwatch sw;
    core::FaultInjector calib_fi(
        s.model, {.input_shape = {spec.channels, spec.height, spec.width},
                  .batch_size = kCalibBatchSize});
    s.calib = std::make_shared<const quant::StaticActQuant>(
        core::calibrate_static_act(calib_fi, batches));
    s.calibrate_s = sw.elapsed_seconds();
  }
  s.fi = std::make_unique<core::FaultInjector>(s.model,
                                               fi_config(w, s, w.batch));
  return s;
}

core::CampaignConfig campaign_config(const Workload& w, std::uint64_t seed,
                                     std::int64_t threads) {
  core::CampaignConfig cfg;
  cfg.trials = w.trials;
  cfg.error_model = core::single_bit_flip();
  cfg.seed = seed;
  cfg.batch_size = w.batch;
  cfg.injections_per_image = w.injections_per_image;
  cfg.one_fault_per_layer = w.one_fault_per_layer;
  cfg.threads = threads;
  return cfg;
}

core::StratifiedCampaignConfig stratified_config(const Workload& w,
                                                 std::uint64_t seed,
                                                 std::int64_t threads) {
  core::StratifiedCampaignConfig cfg;
  cfg.base = campaign_config(w, seed, threads);
  cfg.prune = true;
  return cfg;
}

void remove_dir(const std::string& dir) { std::filesystem::remove_all(dir); }

void seal_outcome(const Workload& w, trace::TraceSink& sink, Outcome& out) {
  if (w.trace) out.jsonl = trace::trace_to_jsonl(sink.events());
  if (w.kind == Kind::kStratifiedShards) {
    out.counts = out.stratified.totals;
    const Proportion est = out.stratified.estimate();
    char buf[128];
    std::snprintf(buf, sizeof buf, ";estimate=%a/%a/%a", est.value, est.lo,
                  est.hi);
    out.digest = counts_digest(out.counts) +
                 ",pruned=" + std::to_string(out.stratified.pruned) +
                 ",golden=" + std::to_string(out.stratified.golden_passes) +
                 ",faulty=" + std::to_string(out.stratified.faulty_passes) +
                 buf;
  } else {
    out.digest = counts_digest(out.counts);
  }
  if (w.trace) out.digest += trace_digest(out.jsonl, sink.size());
  out.events = sink.take_events();
}

Outcome run_campaign(const Workload& w, Setup& s, std::uint64_t seed,
                     std::int64_t threads, const std::string& work_dir) {
  Outcome out;
  trace::TraceSink sink;
  // Shards resume from existing checkpoints, so every call starts clean.
  remove_dir(work_dir);
  Stopwatch sw;
  if (w.kind == Kind::kUniform) {
    core::CampaignConfig cfg = campaign_config(w, seed, threads);
    if (w.trace) cfg.trace = &sink;
    out.counts = core::run_classification_campaign(*s.fi, *s.ds, cfg);
  } else {
    out.stratified = core::run_sharded_stratified(
        *s.fi, *s.ds, stratified_config(w, seed, threads), w.shards, work_dir,
        w.trace ? &sink : nullptr, w.name);
  }
  seal_outcome(w, sink, out);
  out.seconds = sw.elapsed_seconds();
  remove_dir(work_dir);
  return out;
}

}  // namespace perfbench
