// Tests for the parallel campaign engine: the ThreadPool primitive,
// counter-based seed derivation, injector replication, and the headline
// guarantee — a campaign's CampaignResult counts are bit-identical for any
// thread count (ISSUE: threads=1 vs threads=4, and run-to-run at threads=4).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/engine.hpp"
#include "core/fault_injector.hpp"
#include "core/shard.hpp"
#include "models/zoo.hpp"
#include "util/thread_pool.hpp"

namespace pfi::core {
namespace {

using models::make_model;

// ------------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  util::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.run(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    pool.run(7, [&](std::size_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 35);
}

TEST(ThreadPool, PropagatesTaskException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("task 3 died");
                        }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ok{0};
  pool.run(4, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

// ------------------------------------------------------------ derive_seed ----

TEST(DeriveSeed, PureFunctionOfInputs) {
  EXPECT_EQ(derive_seed(7, 0), derive_seed(7, 0));
  EXPECT_EQ(derive_seed(7, 3, 1), derive_seed(7, 3, 1));
}

TEST(DeriveSeed, DistinctAcrossIndexSeedAndStream) {
  EXPECT_NE(derive_seed(7, 0), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));
  EXPECT_NE(derive_seed(7, 0, 0), derive_seed(7, 0, 1));
  // Nearby indices must not produce correlated low bits (counter mode).
  EXPECT_NE(derive_seed(7, 0) & 0xffff, derive_seed(7, 1) & 0xffff);
}

// -------------------------------------------------------------- replicate ----

FiConfig parallel_config() {
  return {.input_shape = {3, 32, 32}, .batch_size = 4};
}

data::SyntheticSpec campaign_spec() {
  // Untrained models are near-constant classifiers, so with k classes about
  // 1/k of uniformly drawn labels match by luck — enough eligible rows for a
  // short campaign. (Fewer classes do NOT help: a constant predictor can be
  // anti-correlated with 2-class labels and starve the campaign entirely.)
  return data::cifar10_like();
}

TEST(Replicate, CloneMatchesOriginalBitForBit) {
  Rng rng(80);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  auto copy = fi.replicate();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->num_layers(), fi.num_layers());

  data::SyntheticDataset ds(campaign_spec());
  Rng draw(81);
  const auto batch = ds.sample_batch(4, draw);
  const Tensor a = fi.forward(batch.images).clone();
  const Tensor b = copy->forward(batch.images);
  EXPECT_TRUE(allclose(a, b, 0.0f));
}

TEST(Replicate, CloneIsIsolatedFromOriginal) {
  Rng rng(82);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  auto copy = fi.replicate();

  data::SyntheticDataset ds(campaign_spec());
  Rng draw(83);
  const auto batch = ds.sample_batch(4, draw);
  const Tensor golden = fi.forward(batch.images).clone();

  // Corrupt the replica's weights; the original must be untouched.
  Rng pick(84);
  copy->declare_weight_fault(copy->random_weight_location(pick),
                             constant_value(1e6f));
  const Tensor original_after = fi.forward(batch.images);
  EXPECT_TRUE(allclose(golden, original_after, 0.0f));
}

TEST(Replicate, RequiresQuiescentInjector) {
  Rng rng(85);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  Rng pick(86);
  fi.declare_weight_fault(fi.random_weight_location(pick), zero_value());
  EXPECT_THROW(fi.replicate(), Error);
  fi.clear();
  EXPECT_NE(fi.replicate(), nullptr);
}

// ------------------------------------------- thread-count invariance ----

bool same_result(const CampaignResult& a, const CampaignResult& b) {
  return a.trials == b.trials && a.skipped == b.skipped &&
         a.corruptions == b.corruptions && a.non_finite == b.non_finite;
}

// Each run builds its model from the same seed, so any count difference can
// only come from the execution schedule. single_bit_flip() with no fixed bit
// draws from the injector's internal RNG — the hardest case for determinism.
CampaignResult run_neuron(std::int64_t threads) {
  Rng rng(90);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  CampaignConfig cfg;
  cfg.trials = 24;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  return run_classification_campaign(fi, ds, cfg);
}

TEST(CampaignParallel, NeuronCampaignIdenticalForOneAndFourThreads) {
  const auto serial = run_neuron(1);
  const auto parallel = run_neuron(4);
  EXPECT_EQ(serial.trials, 24u);
  EXPECT_TRUE(same_result(serial, parallel))
      << "threads=1 {" << serial.trials << "," << serial.skipped << ","
      << serial.corruptions << "," << serial.non_finite << "} vs threads=4 {"
      << parallel.trials << "," << parallel.skipped << ","
      << parallel.corruptions << "," << parallel.non_finite << "}";
}

TEST(CampaignParallel, NeuronCampaignStableRunToRun) {
  EXPECT_TRUE(same_result(run_neuron(4), run_neuron(4)));
}

TEST(CampaignParallel, ThreadsZeroUsesHardwareConcurrency) {
  const auto r = run_neuron(0);
  EXPECT_TRUE(same_result(r, run_neuron(1)));
}

CampaignResult run_weight(std::int64_t threads) {
  Rng rng(92);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  WeightCampaignConfig cfg;
  cfg.faults = 24;
  cfg.images_per_fault = 4;
  cfg.error_model = single_bit_flip();
  cfg.seed = 93;
  cfg.threads = threads;
  return run_weight_campaign(fi, ds, cfg);
}

TEST(CampaignParallel, WeightCampaignIdenticalForOneAndFourThreads) {
  const auto serial = run_weight(1);
  const auto parallel = run_weight(4);
  EXPECT_EQ(serial.trials + serial.skipped, 24u * 4u);
  EXPECT_TRUE(same_result(serial, parallel));
  EXPECT_TRUE(same_result(parallel, run_weight(4)));
}

std::vector<CampaignResult> run_per_layer(std::int64_t threads) {
  // Model seed 90 is load-bearing: an untrained net maps each class texture
  // to one fixed (usually wrong) prediction, so golden accuracy — and with
  // it campaign speed — varies enormously with the weight seed. Seed 90
  // agrees with the labels ~15% of the time; some seeds produce a
  // derangement (0% agreement) and campaigns that crawl toward the attempt
  // cap. Reused from run_neuron, where it is verified fast.
  Rng rng(90);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  CampaignConfig cfg;
  cfg.trials = 8;
  cfg.error_model = random_value(-8.0f, 8.0f);
  cfg.seed = 95;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  return run_per_layer_campaign(fi, ds, cfg);
}

TEST(CampaignParallel, PerLayerCampaignIdenticalForOneAndFourThreads) {
  const auto serial = run_per_layer(1);
  const auto parallel = run_per_layer(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t l = 0; l < serial.size(); ++l) {
    EXPECT_TRUE(same_result(serial[l], parallel[l])) << "layer " << l;
  }
}

// --------------------------------------------- degenerate proportions ----

TEST(CampaignParallel, ZeroTrialsYieldsVacuousProportion) {
  CampaignResult r;  // trials == 0
  const auto p = r.corruption_probability();
  EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(p.lo, 0.0);
  EXPECT_EQ(p.hi, 1.0);
}

// ------------------------------------------------------- attempt cap ----

CampaignConfig capped_config(std::int64_t threads) {
  CampaignConfig cfg;
  cfg.trials = 1'000'000;  // unreachable: the cap binds first
  cfg.attempt_cap = 6;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  return cfg;
}

bool same_capped(const CampaignResult& a, const CampaignResult& b) {
  return same_result(a, b) && a.gave_up == b.gave_up;
}

TEST(CampaignParallel, BindingAttemptCapIdenticalAtAnyThreadCountAndSharded) {
  const auto run = [](std::int64_t threads) {
    Rng rng(90);
    data::SyntheticDataset ds(campaign_spec());
    auto model = make_model("squeezenet", {.num_classes = 10}, rng);
    FaultInjector fi(model, parallel_config());
    return run_classification_campaign(fi, ds, capped_config(threads));
  };
  // Exactly attempts 0..5 fold, whatever the wave size.
  const CampaignResult one = run(1);
  EXPECT_EQ(one.gave_up, 1u);
  EXPECT_EQ(one.trials, 4u);
  EXPECT_EQ(one.skipped, 21u);
  for (const std::int64_t threads : {2, 4}) {
    EXPECT_TRUE(same_capped(run(threads), one)) << "threads=" << threads;
  }

  const std::string dir = "/tmp/pfi_parallel_cap_shards";
  const auto wipe = [&] {
    for (std::int64_t k = 0; k < 2; ++k) {
      const ShardPaths p = shard_paths(dir, k, 2);
      for (const std::string& f : {p.checkpoint, p.log, p.manifest}) {
        std::remove(f.c_str());
        std::remove((f + ".tmp").c_str());
      }
    }
  };
  wipe();
  Rng rng(90);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  const CampaignResult sharded =
      run_sharded_classification(fi, ds, capped_config(4), 2, dir);
  EXPECT_TRUE(same_capped(sharded, one));
  wipe();
  ::rmdir(dir.c_str());
}

// ----------------------------------------------------------- wave engine ----

TEST(WaveEngine, EveryUnitRunsOnceOnWorkerIModTAndFoldsInOrder) {
  Rng rng(96);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  for (const std::int64_t T : {1, 2, 3, 4}) {
    detail::WaveEngine engine(fi, T);
    ASSERT_EQ(engine.threads(), T);
    EXPECT_EQ(&engine.worker(0), &fi);
    constexpr std::int64_t kUnits = 23;
    std::vector<std::atomic<int>> runs(kUnits);
    std::vector<const FaultInjector*> ran_on(kUnits, nullptr);
    // Each worker appends to its own list only, so no synchronization.
    std::vector<std::vector<std::int64_t>> order(static_cast<std::size_t>(T));
    std::vector<std::int64_t> folded;
    const std::int64_t ran = engine.run(
        kUnits,
        [&](std::size_t g, std::int64_t i) {
          ++runs[static_cast<std::size_t>(i)];
          ran_on[static_cast<std::size_t>(i)] = &engine.worker(g);
          order[g].push_back(i);
          return i * i;
        },
        [&](std::int64_t i, std::int64_t& square) {
          EXPECT_EQ(square, i * i);
          folded.push_back(i);
          return false;
        });
    EXPECT_EQ(ran, kUnits);
    for (std::int64_t i = 0; i < kUnits; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "T=" << T << " unit " << i;
      EXPECT_EQ(ran_on[static_cast<std::size_t>(i)],
                &engine.worker(static_cast<std::size_t>(i % T)))
          << "T=" << T << " unit " << i;
    }
    for (std::size_t g = 0; g < order.size(); ++g) {
      EXPECT_TRUE(std::is_sorted(order[g].begin(), order[g].end()))
          << "T=" << T << " worker " << g;
    }
    std::vector<std::int64_t> all(kUnits);
    std::iota(all.begin(), all.end(), std::int64_t{0});
    EXPECT_EQ(folded, all) << "T=" << T;
    // Every worker is its own injector.
    for (std::int64_t a = 0; a < T; ++a) {
      for (std::int64_t b = a + 1; b < T; ++b) {
        EXPECT_NE(&engine.worker(static_cast<std::size_t>(a)),
                  &engine.worker(static_cast<std::size_t>(b)));
      }
    }
  }
}

TEST(WaveEngine, FoldEndsTheWave) {
  Rng rng(95);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  for (const std::int64_t T : {1, 3}) {
    detail::WaveEngine engine(fi, T);
    std::atomic<std::int64_t> runs{0};
    std::vector<std::int64_t> folded;
    const std::int64_t ran = engine.run(
        10,
        [&](std::size_t, std::int64_t i) {
          ++runs;
          return i;
        },
        [&](std::int64_t i, std::int64_t&) {
          folded.push_back(i);
          return i == 4;
        });
    EXPECT_EQ(folded, (std::vector<std::int64_t>{0, 1, 2, 3, 4})) << "T=" << T;
    // Inline units stop with the fold; pooled units all ran first.
    EXPECT_EQ(ran, T == 1 ? 5 : 10) << "T=" << T;
    EXPECT_EQ(runs.load(), ran) << "T=" << T;
  }
}

TEST(WaveEngine, OneThreadRunsInlineOnTheCallersInjector) {
  Rng rng(97);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  detail::WaveEngine engine(fi, 1);
  EXPECT_EQ(engine.threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> seen;
  engine.run(
      5,
      [&](std::size_t g, std::int64_t i) {
        EXPECT_EQ(g, 0u);
        EXPECT_EQ(&engine.worker(g), &fi);
        EXPECT_EQ(std::this_thread::get_id(), caller) << "unit " << i;
        seen.push_back(i);
        return 0;
      },
      [](std::int64_t, int&) { return false; });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(WaveEngine, UnitExceptionReachesCallerAndInjectorStaysUsable) {
  Rng rng(98);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  data::SyntheticDataset ds(campaign_spec());
  Rng draw(99);
  const auto batch = ds.sample_batch(4, draw);
  const Tensor golden = fi.forward(batch.images).clone();
  for (const std::int64_t T : {1, 2}) {
    {
      detail::WaveEngine engine(fi, T);
      // Units arm a weight fault and never clear it; unit 2 (worker 0, the
      // caller's injector, at both T) throws on top of its armed fault.
      const auto arm_and_maybe_throw = [&](std::size_t g, std::int64_t i) {
        FaultInjector& w = engine.worker(g);
        Rng pick(static_cast<std::uint64_t>(100 + i));
        w.declare_weight_fault(w.random_weight_location(pick),
                               constant_value(1e6f));
        if (i == 2) throw std::runtime_error("unit 2 died");
        return 0;
      };
      EXPECT_THROW(engine.run(4, arm_and_maybe_throw,
                              [](std::int64_t, int&) { return false; }),
                   std::runtime_error);
    }
    // The caller's injector is clean: golden output, and replicable (a
    // replica requires no armed weight fault).
    EXPECT_TRUE(allclose(fi.forward(batch.images), golden, 0.0f))
        << "T=" << T;
    EXPECT_NE(fi.replicate(), nullptr) << "T=" << T;
  }
}

TEST(WaveEngine, ReplicaPrefixStatsAreAbsorbedIntoTheCaller) {
  data::SyntheticDataset ds(campaign_spec());
  Rng draw(101);
  const auto batch = ds.sample_batch(4, draw);
  const auto stats_after = [&](std::int64_t T) {
    Rng rng(102);
    auto model = make_model("squeezenet", {.num_classes = 10}, rng);
    FaultInjector fi(model, parallel_config());
    fi.model().eval();  // the prefix cache records in eval mode only
    {
      detail::WaveEngine engine(fi, T);
      engine.run(
          6,
          [&](std::size_t g, std::int64_t i) {
            FaultInjector& w = engine.worker(g);
            w.forward(batch.images, ForwardMode::kRecordGolden);
            Rng pick(static_cast<std::uint64_t>(200 + i));
            w.declare_neuron_fault(w.random_neuron_location(pick),
                                   constant_value(3.0f));
            w.forward(batch.images, ForwardMode::kReusePrefix);
            w.clear();
            return 0;
          },
          [](std::int64_t, int&) { return false; });
    }
    return fi.prefix_cache()->stats();
  };
  const PrefixCacheStats one = stats_after(1);
  const PrefixCacheStats three = stats_after(3);
  EXPECT_EQ(one.golden_records, 6u);
  EXPECT_GT(one.layers_reused, 0u);
  EXPECT_EQ(three.golden_records, one.golden_records);
  EXPECT_EQ(three.reuse_passes, one.reuse_passes);
  EXPECT_EQ(three.fallback_passes, one.fallback_passes);
  EXPECT_EQ(three.layers_reused, one.layers_reused);
  EXPECT_EQ(three.layers_recomputed, one.layers_recomputed);
  EXPECT_EQ(three.injection_site_serves, one.injection_site_serves);
}

}  // namespace
}  // namespace pfi::core
