#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "core/campaign_internal.hpp"
#include "core/checkpoint.hpp"
#include "nn/loss.hpp"

namespace pfi::core {

namespace detail {

AttemptScope::AttemptScope(FaultInjector& fi_,
                           const data::SyntheticDataset& ds,
                           const trace::TraceSink* trace,
                           std::int64_t batch_size, std::uint64_t root_seed,
                           std::uint64_t attempt, std::uint64_t trace_id_)
    : fi(fi_),
      tracing(trace != nullptr),
      rng(derive_seed(root_seed, attempt, kDrawStream)),
      local(tracing && trace->capture_logits()),
      trace_id(trace_id_),
      sink_guard(fi_, tracing ? &local : fi_.trace_sink()) {
  fi.reseed(derive_seed(root_seed, attempt, kInjectorStream));
  batch = ds.sample_batch(batch_size, rng);
  // Golden run (dtype emulation still active; faults are not), recorded as
  // the attempt's reusable prefix. Argmaxed once; every rep scores against
  // these indices.
  fi.clear();
  golden = fi.forward(batch.images, ForwardMode::kRecordGolden);
  golden_top1 = nn::argmax_rows(golden);
  for (std::size_t i = 0; i < batch.labels.size(); ++i) {
    if (golden_top1[i] == batch.labels[i]) {
      eligible.push_back(static_cast<std::int64_t>(i));
    } else {
      ++skipped;
    }
  }
}

std::int64_t AttemptScope::begin_rep(std::int64_t rep, bool whole_batch) {
  if (tracing) local.set_context(trace_id, static_cast<std::int32_t>(rep));
  return whole_batch ? kAllBatchElements
                     : eligible[rng.next_below(eligible.size())];
}

UnitOutcome::Rep AttemptScope::run_faulty(std::int64_t row,
                                          CorruptionCriterion criterion) {
  const Tensor faulty = fi.forward(batch.images, ForwardMode::kReusePrefix);
  fi.clear();
  const RepScorer scorer(golden_top1, faulty, criterion);
  return finish_rep(faulty, row, scorer.faulty_non_finite, &scorer);
}

UnitOutcome::Rep AttemptScope::finish_rep(const Tensor& logits,
                                          std::int64_t row, bool non_finite,
                                          const RepScorer* scorer) {
  UnitOutcome::Rep r;
  r.non_finite = non_finite;
  if (tracing) {
    r.events = local.take_events();
    if (local.capture_logits()) r.logits = logits.clone();
  }
  // Score each eligible element the fault touched.
  for (const std::int64_t e : eligible) {
    if (row != kAllBatchElements && row != e) continue;
    r.corrupted.push_back(scorer != nullptr && scorer->is_corrupted(e) ? 1
                                                                       : 0);
  }
  return r;
}

UnitOutcome run_campaign_attempt(FaultInjector& fi,
                                 const data::SyntheticDataset& ds,
                                 const CampaignConfig& config,
                                 std::int64_t attempt) {
  const auto a = static_cast<std::uint64_t>(attempt);
  AttemptScope at(fi, ds, config.trace, config.batch_size, config.seed, a, a);
  UnitOutcome out;
  out.attempt = a;
  out.skipped = at.skipped;
  if (at.eligible.empty()) return out;

  out.reps.reserve(static_cast<std::size_t>(config.injections_per_image));
  for (std::int64_t rep = 0; rep < config.injections_per_image; ++rep) {
    const std::int64_t row = at.begin_rep(rep, config.same_fault_across_batch);
    if (config.one_fault_per_layer) {
      for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
        NeuronLocation per = fi.random_neuron_location(at.rng, l);
        per.batch = row;
        fi.declare_neuron_fault(per, config.error_model);
      }
    } else {
      NeuronLocation loc = fi.random_neuron_location(at.rng, config.layer);
      loc.batch = row;
      fi.declare_neuron_fault(loc, config.error_model);
    }
    out.reps.push_back(at.run_faulty(row, config.criterion));
  }
  return out;
}

bool merge_campaign_attempt(CampaignResult& acc, UnitOutcome& outcome,
                            std::uint64_t target, trace::TraceSink* sink) {
  acc.skipped += outcome.skipped;
  for (std::size_t r = 0; r < outcome.reps.size(); ++r) {
    if (acc.trials >= target) break;
    UnitOutcome::Rep& rep = outcome.reps[r];
    if (rep.non_finite) ++acc.non_finite;
    if (sink != nullptr) {
      // The rep made the cut, so its trace ships: its events are stamped
      // with the first trial index it feeds and appended in merge order.
      for (trace::InjectionEvent& ev : rep.events) ev.trial = acc.trials;
      sink->append(std::move(rep.events));
      if (sink->capture_logits() && rep.logits.defined()) {
        sink->append_logits({outcome.attempt, static_cast<std::int32_t>(r),
                             std::move(rep.logits)});
      }
    }
    for (const std::uint8_t corrupted : rep.corrupted) {
      ++acc.trials;
      acc.corruptions += corrupted;
      if (acc.trials >= target) break;
    }
  }
  return acc.trials >= target;
}

void check_campaign_config(const FaultInjector& fi,
                           const CampaignConfig& config) {
  PFI_CHECK(config.trials > 0) << "campaign trials=" << config.trials;
  PFI_CHECK(config.error_model.apply != nullptr)
      << "campaign error model is unset";
  PFI_CHECK(config.batch_size >= 1 &&
            config.batch_size <= fi.config().batch_size)
      << "campaign batch_size " << config.batch_size
      << " exceeds injector batch size " << fi.config().batch_size;
  PFI_CHECK(config.injections_per_image >= 1)
      << "campaign injections_per_image " << config.injections_per_image;
  PFI_CHECK(config.threads >= 0) << "campaign threads=" << config.threads;
  PFI_CHECK(config.attempt_cap >= 0)
      << "campaign attempt_cap=" << config.attempt_cap;
}

std::int64_t campaign_attempt_cap(const CampaignConfig& config) {
  return config.attempt_cap > 0 ? config.attempt_cap
                                : 10'000 + config.trials * 1'000;
}

}  // namespace detail

namespace {

using detail::AttemptScope;
using detail::campaign_attempt_cap;
using detail::kDrawStream;
using detail::kInjectorStream;
using detail::merge_campaign_attempt;
using detail::RepScorer;
using detail::resolve_threads;
using detail::run_campaign_attempt;
using detail::ScopedSink;
using detail::UnitOutcome;
using detail::wave_bound;
using detail::WaveCommitter;
using detail::WaveEngine;

/// The uniform runner's next wave: sized from the observed trial yield per
/// attempt (first wave: assume the maximum, so we under- rather than
/// over-commit), rounded up to whole rounds of the T workers, bounded by
/// wave_bound(T), and clamped so it never runs an attempt at or past the
/// attempt cap.
std::int64_t uniform_wave(const CampaignResult& result, std::uint64_t target,
                          std::int64_t next_attempt, std::int64_t max_yield,
                          std::int64_t threads, std::int64_t cap) {
  const std::uint64_t remaining = target - result.trials;
  const double yield =
      next_attempt > 0
          ? std::max(0.25, static_cast<double>(result.trials) /
                               static_cast<double>(next_attempt))
          : static_cast<double>(max_yield);
  const auto estimate = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(remaining) / yield));
  const std::int64_t rounds = ((estimate + threads - 1) / threads) * threads;
  return std::min(
      std::clamp<std::int64_t>(rounds, threads, wave_bound(threads)),
      std::max<std::int64_t>(1, cap - next_attempt));
}

}  // namespace

CampaignResult run_classification_campaign(FaultInjector& fi,
                                           const data::SyntheticDataset& ds,
                                           const CampaignConfig& config) {
  detail::check_campaign_config(fi, config);

  fi.model().eval();
  const auto target = static_cast<std::uint64_t>(config.trials);
  const std::int64_t max_yield =
      config.batch_size * config.injections_per_image;
  // A worker that can't fill ~4 attempts has no time to amortize its model
  // replica; don't spin one up.
  const std::int64_t threads = resolve_threads(
      config.threads, std::max<std::int64_t>(1, config.trials / 4));
  const std::int64_t cap = campaign_attempt_cap(config);

  CampaignResult result;
  std::int64_t next_attempt = 0;
  if (config.checkpoint != nullptr) {
    // Resume state is just (folded counters, next attempt): every attempt's
    // randomness derives from (config.seed, attempt), so continuing from
    // here reproduces the uninterrupted run bit-for-bit.
    result = config.checkpoint->result();
    next_attempt = static_cast<std::int64_t>(config.checkpoint->next_unit());
    if (config.checkpoint->done()) return result;
  }
  WaveCommitter committer(config.checkpoint, config.trace);

  WaveEngine engine(fi, threads);
  bool done = result.trials >= target;
  while (!done) {
    const std::int64_t base = next_attempt;
    const std::int64_t wave =
        uniform_wave(result, target, base, max_yield, threads, cap);
    next_attempt += engine.run(
        wave,
        [&](std::size_t g, std::int64_t i) {
          return run_campaign_attempt(engine.worker(g), ds, config, base + i);
        },
        [&](std::int64_t, UnitOutcome& out) {
          return done = merge_campaign_attempt(result, out, target,
                                               config.trace);
        });
    if (!done && next_attempt >= cap) {
      result.gave_up = 1;
      done = true;
    }
    committer.commit(result, static_cast<std::uint64_t>(next_attempt), done);
  }
  return result;
}

CampaignResult run_weight_campaign(FaultInjector& fi,
                                   const data::SyntheticDataset& ds,
                                   const WeightCampaignConfig& config) {
  PFI_CHECK(config.faults > 0) << "weight campaign faults=" << config.faults;
  PFI_CHECK(config.images_per_fault > 0 &&
            config.images_per_fault <= fi.config().batch_size)
      << "weight campaign images_per_fault=" << config.images_per_fault
      << " must be in [1, injector batch size " << fi.config().batch_size
      << "]";
  PFI_CHECK(config.error_model.apply != nullptr)
      << "weight campaign error model is unset";
  PFI_CHECK(config.threads >= 0) << "weight campaign threads=" << config.threads;

  fi.model().eval();
  const bool tracing = config.trace != nullptr;

  // One fault = one independent unit: draw images, corrupt one weight,
  // score every image, restore. All randomness is derived from the fault
  // index, so the per-fault outcome is a pure function of (config, f).
  struct FaultOutcome {
    CampaignResult counts;
    std::vector<trace::InjectionEvent> events;
    Tensor logits;
  };
  auto run_fault = [&](FaultInjector& worker, std::int64_t f) {
    const auto fu = static_cast<std::uint64_t>(f);
    AttemptScope at(worker, ds, config.trace, config.images_per_fault,
                    config.seed, fu, fu);
    if (at.tracing) at.local.set_context(fu, 0);
    FaultOutcome out;
    out.counts.skipped = at.skipped;  // golden already wrong: not scored

    const WeightLocation loc =
        worker.random_weight_location(at.rng, config.layer);
    worker.declare_weight_fault(loc, config.error_model);
    // No .clone() of the golden logits: every layer's forward writes fresh
    // storage, so this pass cannot alias or overwrite them (pinned by
    // PrefixReplay.ForwardOutputsNeverAlias).
    const Tensor faulty =
        worker.forward(at.batch.images, ForwardMode::kReusePrefix);
    const RepScorer scorer(at.golden_top1, faulty, config.criterion);
    if (scorer.faulty_non_finite) ++out.counts.non_finite;
    for (const std::int64_t row : at.eligible) {
      ++out.counts.trials;
      if (scorer.is_corrupted(row)) ++out.counts.corruptions;
    }
    worker.clear();  // restore the weight
    if (at.tracing) {
      out.events = at.local.take_events();
      // A weight fault is declared offline: the event stream already holds
      // it, and every image of the batch scores against the same faulty
      // forward, so one logits record per fault suffices.
      if (at.local.capture_logits()) out.logits = faulty.clone();
    }
    return out;
  };

  // Merged strictly in fault-index order, so the folded counts AND the
  // trace stream are identical for every thread count.
  CampaignResult result;
  std::int64_t next_fault = 0;
  if (config.checkpoint != nullptr) {
    result = config.checkpoint->result();
    next_fault = static_cast<std::int64_t>(config.checkpoint->next_unit());
    if (config.checkpoint->done() || next_fault >= config.faults) {
      return result;
    }
  }
  WaveCommitter committer(config.checkpoint, config.trace);
  auto merge_fault = [&](FaultOutcome& out, std::int64_t f) {
    result.trials += out.counts.trials;
    result.skipped += out.counts.skipped;
    result.corruptions += out.counts.corruptions;
    result.non_finite += out.counts.non_finite;
    if (tracing) {
      for (trace::InjectionEvent& ev : out.events) {
        ev.trial = static_cast<std::uint64_t>(f);
      }
      config.trace->append(std::move(out.events));
      if (config.trace->capture_logits() && out.logits.defined()) {
        config.trace->append_logits(
            {static_cast<std::uint64_t>(f), 0, std::move(out.logits)});
      }
    }
  };

  const std::int64_t threads =
      resolve_threads(config.threads,
                      std::max<std::int64_t>(1, config.faults / 4));
  WaveEngine engine(fi, threads);
  // Per-fault outcomes are pure functions of the fault index, so the wave
  // partition changes nothing about the merged result — it only bounds the
  // outcome buffer and gives the checkpointer its commit points.
  while (next_fault < config.faults) {
    const std::int64_t base = next_fault;
    const std::int64_t wave =
        std::min(wave_bound(threads), config.faults - base);
    next_fault += engine.run(
        wave,
        [&](std::size_t g, std::int64_t i) {
          return run_fault(engine.worker(g), base + i);
        },
        [&](std::int64_t i, FaultOutcome& out) {
          merge_fault(out, base + i);
          return false;
        });
    committer.commit(result, static_cast<std::uint64_t>(next_fault),
                     next_fault >= config.faults);
  }
  return result;
}

namespace {

/// Everything one fleet event produced, buffered so waves merge strictly in
/// event order (the timeline, counts, and trace stream are then identical
/// for every thread count).
struct FleetEventOutcome {
  FleetEvent ev;
  std::vector<trace::InjectionEvent> events;
  Tensor logits;
};

/// Pack the timeline into the checkpoint's per-stratum records (plain
/// integers in a fixed order); inverse of the unpack in the resume path.
std::vector<StratumCheckpoint> fleet_timeline_to_strata(
    const std::vector<FleetEvent>& timeline) {
  std::vector<StratumCheckpoint> strata;
  strata.reserve(timeline.size());
  for (const FleetEvent& ev : timeline) {
    StratumCheckpoint s;
    s.trials = ev.event;
    s.corruptions = ev.faults;
    s.skipped = ev.correct;
    s.non_finite = ev.non_finite;
    s.pruned = ev.rows;
    strata.push_back(s);
  }
  return strata;
}

}  // namespace

FleetResult run_fleet_campaign(FaultInjector& fi,
                               const data::SyntheticDataset& ds,
                               const FleetCampaignConfig& config) {
  PFI_CHECK(config.horizon > 0) << "fleet campaign horizon=" << config.horizon;
  PFI_CHECK(config.batch_size >= 1 &&
            config.batch_size <= fi.config().batch_size)
      << "fleet campaign batch_size " << config.batch_size
      << " exceeds injector batch size " << fi.config().batch_size;
  PFI_CHECK(config.threads >= 0) << "fleet campaign threads=" << config.threads;

  fi.model().eval();
  const bool tracing = config.trace != nullptr;
  const auto horizon = static_cast<std::int64_t>(config.horizon);

  FleetResult result;
  std::int64_t next_event = 0;
  if (config.checkpoint != nullptr) {
    // The folded counters and the per-event timeline both live in the
    // checkpoint; every event's inputs and faults are pure functions of
    // (seed, event), so (counters, timeline, next event) is the complete
    // resume state.
    const CampaignResult& folded = config.checkpoint->result();
    result.rows = folded.trials;
    result.mismatches = folded.corruptions;
    result.non_finite = folded.non_finite;
    next_event = static_cast<std::int64_t>(config.checkpoint->next_unit());
    for (const StratumCheckpoint& s : config.checkpoint->strata()) {
      result.timeline.push_back({.event = s.trials,
                                 .faults = s.corruptions,
                                 .correct = s.skipped,
                                 .rows = s.pruned,
                                 .non_finite = s.non_finite});
    }
  }
  const auto finalize = [&result] {
    for (const FleetEvent& ev : result.timeline) {
      if (result.first_sdc == kNoSdc && ev.correct < ev.rows) {
        result.first_sdc = ev.event;
      }
    }
    if (!result.timeline.empty()) {
      result.total_faults = result.timeline.back().faults;
    }
  };
  if (config.checkpoint != nullptr &&
      (config.checkpoint->done() || next_event >= horizon)) {
    finalize();
    return result;
  }
  WaveCommitter committer(config.checkpoint, config.trace);

  const std::int64_t threads =
      resolve_threads(config.threads,
                      std::max<std::int64_t>(1, (horizon - next_event) / 4));
  WaveEngine engine(fi, threads);

  // Phase A — golden predictions. Computed on the still-quiescent workers
  // (plain forwards, fault-free weights) before any persistent fault lands;
  // each event scores its corrupted serve against these. Entry i belongs to
  // event first + i.
  const std::int64_t first = next_event;
  std::vector<std::vector<std::int64_t>> golden_top1(
      static_cast<std::size_t>(horizon - first));
  engine.run(
      horizon - first,
      [&](std::size_t g, std::int64_t i) {
        const auto batch = fleet_campaign_event_batch(
            ds, config, static_cast<std::uint64_t>(first + i));
        return nn::argmax_rows(engine.worker(g).forward(batch.images));
      },
      [&](std::int64_t i, std::vector<std::int64_t>& top1) {
        golden_top1[static_cast<std::size_t>(i)] = std::move(top1);
        return false;
      });

  // Phase B — the corrupted timeline. Every worker owns a PersistentFaultSet
  // over its replica and advances it through EVERY event in order (fault
  // state is a pure function of (scenario, event), so all replicas hold
  // byte-identical weights at any event); it runs the forward — and emits
  // the trace — only for the events it is assigned. Declared after the
  // engine so the sets heal their injectors before the replicas die.
  std::vector<std::unique_ptr<PersistentFaultSet>> sets;
  for (std::int64_t g = 0; g < threads; ++g) {
    sets.push_back(std::make_unique<PersistentFaultSet>(
        engine.worker(static_cast<std::size_t>(g)), config.scenario));
  }

  auto run_event = [&](std::size_t g, std::int64_t t) {
    FaultInjector& worker = engine.worker(g);
    PersistentFaultSet& faults = *sets[g];
    const auto tu = static_cast<std::uint64_t>(t);
    // Catch up silently (events other workers own — their fault records are
    // theirs to emit), then apply THIS event's faults with the worker-local
    // sink attached so they are recorded exactly once across the fleet.
    {
      ScopedSink quiet(worker, nullptr);
      faults.advance_to(tu);
    }
    trace::TraceSink local(tracing && config.trace->capture_logits());
    {
      ScopedSink sink_guard(worker, tracing ? &local : nullptr);
      if (tracing) local.set_context(tu, 0);
      faults.advance_to(tu + 1);
    }
    const auto batch = fleet_campaign_event_batch(ds, config, tu);
    const Tensor faulty = worker.forward(batch.images);
    const std::vector<std::int64_t>& golden =
        golden_top1[static_cast<std::size_t>(t - first)];
    const RepScorer scorer(golden, faulty, CorruptionCriterion::kTop1Mismatch);

    FleetEventOutcome out;
    out.ev.event = tu;
    out.ev.faults = faults.faults_applied();
    out.ev.rows = static_cast<std::uint64_t>(batch.labels.size());
    out.ev.non_finite = scorer.faulty_non_finite ? 1 : 0;
    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      if (!scorer.is_corrupted(static_cast<std::int64_t>(i))) ++out.ev.correct;
    }
    if (tracing) {
      out.events = local.take_events();
      if (local.capture_logits()) out.logits = faulty.clone();
    }
    return out;
  };

  auto merge_event = [&](std::int64_t, FleetEventOutcome& out) {
    result.rows += out.ev.rows;
    result.mismatches += out.ev.rows - out.ev.correct;
    result.non_finite += out.ev.non_finite;
    if (tracing) {
      for (trace::InjectionEvent& ev : out.events) ev.trial = out.ev.event;
      config.trace->append(std::move(out.events));
      if (config.trace->capture_logits() && out.logits.defined()) {
        config.trace->append_logits({out.ev.event, 0, std::move(out.logits)});
      }
    }
    result.timeline.push_back(out.ev);
    return false;
  };

  while (next_event < horizon) {
    // Waves of 8 events per worker: the partition changes nothing about the
    // merged result, it only bounds the outcome buffer and gives the
    // checkpointer its commit points.
    const std::int64_t base = next_event;
    const std::int64_t wave =
        std::min<std::int64_t>(threads * 8, horizon - base);
    next_event += engine.run(
        wave,
        [&](std::size_t g, std::int64_t i) { return run_event(g, base + i); },
        merge_event);
    if (config.checkpoint != nullptr) {
      CampaignResult folded;
      folded.trials = result.rows;
      folded.corruptions = result.mismatches;
      folded.non_finite = result.non_finite;
      committer.commit(folded, static_cast<std::uint64_t>(next_event),
                       next_event >= horizon,
                       fleet_timeline_to_strata(result.timeline));
    }
  }
  finalize();
  return result;
}

data::Batch fleet_campaign_event_batch(const data::SyntheticDataset& ds,
                                       const FleetCampaignConfig& config,
                                       std::uint64_t event) {
  Rng rng(derive_seed(config.seed, event, kDrawStream));
  return ds.sample_batch(config.batch_size, rng);
}

data::Batch campaign_attempt_batch(const data::SyntheticDataset& ds,
                                   const CampaignConfig& config,
                                   std::uint64_t attempt) {
  Rng rng(derive_seed(config.seed, attempt, kDrawStream));
  return ds.sample_batch(config.batch_size, rng);
}

data::Batch weight_campaign_fault_batch(const data::SyntheticDataset& ds,
                                        const WeightCampaignConfig& config,
                                        std::uint64_t fault_index) {
  Rng rng(derive_seed(config.seed, fault_index, kDrawStream));
  return ds.sample_batch(config.images_per_fault, rng);
}

std::vector<CampaignResult> run_per_layer_campaign(
    FaultInjector& fi, const data::SyntheticDataset& ds,
    CampaignConfig config) {
  // One checkpoint file cannot describe N per-layer campaigns; callers that
  // want crash safety here run one checkpointed campaign per layer.
  PFI_CHECK(config.checkpoint == nullptr)
      << "run_per_layer_campaign does not checkpoint — give each layer its "
         "own CampaignCheckpointer and call run_classification_campaign";
  std::vector<CampaignResult> out;
  out.reserve(static_cast<std::size_t>(fi.num_layers()));
  for (std::int64_t layer = 0; layer < fi.num_layers(); ++layer) {
    config.layer = layer;
    config.seed += 1;  // decorrelate layers, keep determinism
    out.push_back(run_classification_campaign(fi, ds, config));
  }
  return out;
}

}  // namespace pfi::core
