// Shared internals of the campaign runners (core/campaign.cpp,
// core/sampling.cpp and core/shard.cpp). Not part of the public API:
// everything here exists so the uniform and stratified runners score, shard,
// trace, and checkpoint attempts with IDENTICAL mechanics — the stratified
// estimator's claim to measure the same quantity as the uniform sampler
// rests on that.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/trace.hpp"
#include "nn/loss.hpp"

namespace pfi::core::detail {

/// Everything one unit (batch draw + golden run + its injections)
/// observed, in execution order. One type serves the uniform attempt, the
/// stratified stratum attempt and the shard log record. Kept per-rep so the
/// merge can reproduce the sequential stopping rule exactly: a rep that
/// would run after the trial target was reached is discarded whole, and
/// scored rows past the target are discarded individually. Shard runs
/// (core/shard.cpp) serialize these records verbatim and replay the same
/// fold at merge time — that is what makes a merged shard set
/// byte-identical to a single-process run.
struct UnitOutcome {
  std::uint64_t stratum = 0;  ///< stratified units only
  /// Global attempt index (uniform) or stratum-local attempt index
  /// (stratified).
  std::uint64_t attempt = 0;
  std::uint64_t skipped = 0;
  struct Rep {
    bool non_finite = false;
    /// Resolved by the stratified pruner without a faulty pass; always
    /// false for uniform units.
    bool pruned = false;
    std::vector<std::uint8_t> corrupted;  // per scored row, in score order
    // Trace payload (only populated when the campaign is tracing): the
    // rep's injection events and, optionally, its faulty logits. Kept on
    // the rep so the ordered merge can discard them with it.
    std::vector<trace::InjectionEvent> events;
    Tensor logits;
  };
  std::vector<Rep> reps;  ///< reps[r] is injection r of the unit
};

/// One self-contained attempt. All randomness comes from seeds derived from
/// (config.seed, attempt) — no shared RNG state — so the outcome is a pure
/// function of the attempt index regardless of which worker (or which
/// process) runs it.
UnitOutcome run_campaign_attempt(FaultInjector& fi,
                                 const data::SyntheticDataset& ds,
                                 const CampaignConfig& config,
                                 std::int64_t attempt);

/// Fold one attempt into the running result, honouring the trial target:
/// reps after the target are dropped, and a rep's scored rows are consumed
/// only up to the target. Returns true once the target is reached. Because
/// attempts are merged strictly in index order, the folded result is the
/// same whether the outcomes were computed serially, by a pool, or replayed
/// from shard records.
bool merge_campaign_attempt(CampaignResult& acc, UnitOutcome& outcome,
                            std::uint64_t target, trace::TraceSink* sink);

/// The preconditions of a uniform campaign on `fi` (shared by the
/// single-process runner and the shard runner).
void check_campaign_config(const FaultInjector& fi,
                           const CampaignConfig& config);

/// Attempts are capped so a model that never classifies correctly stops
/// instead of looping forever. Hitting the cap is not an error: the
/// campaign returns its partial result with `gave_up` set.
std::int64_t campaign_attempt_cap(const CampaignConfig& config);

/// Floor of wave_bound() at any thread count. Every wave ends in one
/// commit, so a one-thread run commits at most this many units apart: few
/// enough that a kill loses only a few attempts, enough that fsync cost
/// amortizes. 32 keeps the measured commit overhead near 1% of campaign
/// time (EXPERIMENTS.md: 3.4% at 8 units per commit, 1.1% at 32).
inline constexpr std::int64_t kSerialCommitEvery = 32;

/// Wave bound of the uniform, weight and shard runners: 8 units per worker
/// (attempts past a trial target are computed but discarded, so a huge
/// final wave is pure waste, while the per-wave barrier costs only
/// microseconds), and never fewer than kSerialCommitEvery.
inline std::int64_t wave_bound(std::int64_t threads) {
  return std::max<std::int64_t>(8 * threads, kSerialCommitEvery);
}

// Seed-derivation streams: every attempt gets one stream for data/location
// draws and one for the injector's internal RNG (stochastic error models),
// both functions of (campaign seed, attempt index) only. Stratified
// campaigns interpose kStratumStream so each stratum owns an independent
// attempt-indexed family: derive_seed(seed, stratum, kStratumStream) is the
// stratum's root, and the two per-attempt streams derive from that root.
inline constexpr std::uint64_t kDrawStream = 0;
inline constexpr std::uint64_t kInjectorStream = 1;
inline constexpr std::uint64_t kStratumStream = 2;

/// True when any logit is NaN or infinite.
inline bool has_non_finite(const Tensor& logits) {
  for (const float v : logits.data()) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

/// Scores one faulty forward against the attempt's golden run. Golden
/// argmaxes are computed once per attempt and faulty argmaxes / the
/// non-finite scan once per faulty pass — not once per scored row as the
/// original per-row helper did (an O(rows * classes) rescan per row).
struct RepScorer {
  const std::vector<std::int64_t>& golden_top1;
  const Tensor& faulty;
  std::vector<std::int64_t> faulty_top1;  // only for kTop1Mismatch
  bool faulty_non_finite;
  CorruptionCriterion criterion;

  RepScorer(const std::vector<std::int64_t>& golden_top1_, const Tensor& f,
            CorruptionCriterion crit)
      : golden_top1(golden_top1_),
        faulty(f),
        faulty_non_finite(has_non_finite(f)),
        criterion(crit) {
    if (criterion == CorruptionCriterion::kTop1Mismatch) {
      faulty_top1 = nn::argmax_rows(faulty);
    }
  }

  bool is_corrupted(std::int64_t row) const {
    const auto r = static_cast<std::size_t>(row);
    switch (criterion) {
      case CorruptionCriterion::kTop1Mismatch:
        // NaN logits make argmax meaningless; count them as corruptions, as
        // the observable output is unusable.
        return golden_top1[r] != faulty_top1[r] || faulty_non_finite;
      case CorruptionCriterion::kTop1NotInTop5:
        return !nn::in_top_k(faulty, row, golden_top1[r], 5) ||
               faulty_non_finite;
      case CorruptionCriterion::kNonFiniteOutput:
        return faulty_non_finite;
    }
    PFI_CHECK(false) << "unreachable criterion";
  }
};

/// Streams newly merged trace events to the checkpointer and persists the
/// folded state after each wave. Tracks how much of the caller's sink has
/// already been committed, so each commit ships exactly the wave's events.
class WaveCommitter {
 public:
  WaveCommitter(CampaignCheckpointer* ckpt, const trace::TraceSink* sink)
      : ckpt_(ckpt), sink_(sink) {
    if (ckpt_ != nullptr) {
      PFI_CHECK(!ckpt_->streams_trace() || sink_ != nullptr)
          << "checkpointer streams a trace JSONL but the campaign has no "
             "trace sink to stream from";
      // Only events merged by THIS run stream out; anything already in the
      // caller's sink predates the campaign and is not part of its trace.
      committed_ = sink_ != nullptr ? sink_->size() : 0;
    }
  }

  /// `strata`: the per-stratum resume states of a stratified (or fleet)
  /// campaign; empty for the others.
  void commit(const CampaignResult& folded, std::uint64_t next_unit, bool done,
              std::span<const StratumCheckpoint> strata = {}) {
    if (ckpt_ == nullptr) return;
    ckpt_->commit(folded, next_unit, done, fresh_events(), strata);
  }

 private:
  std::span<const trace::InjectionEvent> fresh_events() {
    std::span<const trace::InjectionEvent> fresh;
    if (sink_ != nullptr && ckpt_->streams_trace()) {
      fresh = std::span(sink_->events()).subspan(committed_);
      committed_ = sink_->events().size();
    }
    return fresh;
  }

  CampaignCheckpointer* ckpt_;
  const trace::TraceSink* sink_;
  std::size_t committed_ = 0;
};

/// Attach a worker-local sink to an injector for one attempt, restoring
/// whatever sink was attached before (exception-safe).
class ScopedSink {
 public:
  ScopedSink(FaultInjector& fi, trace::TraceSink* sink)
      : fi_(fi), previous_(fi.trace_sink()) {
    fi_.set_trace_sink(sink);
  }
  ~ScopedSink() { fi_.set_trace_sink(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  FaultInjector& fi_;
  trace::TraceSink* previous_;
};

/// The first half every unit with a golden pass shares (uniform, weight or
/// stratified): derive the draw and injector seeds from (root seed, attempt
/// index), attach a worker-local trace sink when the campaign traces into
/// `trace`, draw `batch_size` images, run the golden pass (recorded as the
/// prefix the faulty passes reuse) and find the rows eligible for
/// injection — the paper only injects into inferences that are correct to
/// begin with. Then, per rep of a neuron attempt, the shared second half:
/// draw the faulted row, and score a rep's logits into its
/// UnitOutcome::Rep.
struct AttemptScope {
  /// `trace_id` is the `attempt` stamp of the unit's trace events.
  AttemptScope(FaultInjector& fi, const data::SyntheticDataset& ds,
               const trace::TraceSink* trace, std::int64_t batch_size,
               std::uint64_t root_seed, std::uint64_t attempt,
               std::uint64_t trace_id);

  /// Start rep `rep`: set the trace context and draw the batch row the
  /// fault lands in (kAllBatchElements when `whole_batch`).
  std::int64_t begin_rep(std::int64_t rep, bool whole_batch);

  /// Run the faults declared on the injector for this rep, clear them, and
  /// score the faulty logits against the golden pass.
  UnitOutcome::Rep run_faulty(std::int64_t row, CorruptionCriterion criterion);

  /// Finish a rep whose output is `logits`: take its trace events, keep the
  /// logits if the sink captures them, and record one corruption flag per
  /// eligible row the fault touched (all 0 when `scorer` is null).
  UnitOutcome::Rep finish_rep(const Tensor& logits, std::int64_t row,
                              bool non_finite, const RepScorer* scorer);

  FaultInjector& fi;
  const bool tracing;
  Rng rng;
  trace::TraceSink local;  ///< worker-local, single-threaded, lock-free
  std::uint64_t trace_id;
  ScopedSink sink_guard;
  data::Batch batch;
  Tensor golden;
  std::vector<std::int64_t> golden_top1;
  std::vector<std::int64_t> eligible;
  std::uint64_t skipped = 0;  ///< batch rows whose golden run was wrong
};

}  // namespace pfi::core::detail
