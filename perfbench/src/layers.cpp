#include "layers.hpp"

#include <filesystem>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pfi;

namespace {

// -- nn: pre/post hook spans -------------------------------------------------------

/// Leaf-kind bucket a module's self time is charged to.
enum Bucket { kConv, kBn, kActPool, kJoin, kLinear, kBuckets };

Bucket bucket_of(nn::Module& m) {
  if (!m.children().empty()) return kJoin;  // Sequential, Residual, Concat
  const std::string k = m.kind();
  if (k == "Conv2d") return kConv;
  if (k == "BatchNorm2d") return kBn;
  if (k == "Linear") return kLinear;
  return kActPool;  // ReLU, pools, Flatten, Dropout, Identity, ...
}

/// A pre-hook and a post-hook on every module of a model. Each pair is one
/// span; a module's self time is its span minus its children's spans. A
/// pre-hook with no matching post-hook is a module the prefix cache served
/// (bypass hooks skip forward and post-hooks); its open span is dropped.
class SpanHooks {
 public:
  explicit SpanHooks(nn::Module& root) {
    for (nn::Module* m : root.modules()) {
      for (nn::Module* c : m->children()) parent_[c] = m;
      const Bucket b = bucket_of(*m);
      pre_.emplace_back(m, m->register_forward_pre_hook(
                               [this](nn::Module& mod, Tensor&) { open(mod); }));
      post_.emplace_back(m, m->register_forward_hook(
                                [this, b](nn::Module& mod, const Tensor&,
                                          Tensor&) { close(mod, b); }));
    }
  }
  ~SpanHooks() {
    for (auto& [m, h] : pre_) m->remove_hook(h);
    for (auto& [m, h] : post_) m->remove_hook(h);
  }
  SpanHooks(const SpanHooks&) = delete;
  SpanHooks& operator=(const SpanHooks&) = delete;

  double self_s[kBuckets] = {};
  double root_s = 0.0;  ///< summed duration of outermost spans

 private:
  struct Open {
    nn::Module* m;
    double t0;
    double child_s;
  };

  void open(nn::Module& m) {
    const auto it = parent_.find(&m);
    nn::Module* parent = it == parent_.end() ? nullptr : it->second;
    drop_served([&] { return stack_.back().m != parent; });
    stack_.push_back({&m, now_s(), 0.0});
  }

  void close(nn::Module& m, Bucket b) {
    drop_served([&] { return stack_.back().m != &m; });
    if (stack_.empty()) return;
    const Open o = stack_.back();
    stack_.pop_back();
    const double d = now_s() - o.t0;
    self_s[b] += d - o.child_s;
    if (stack_.empty()) {
      root_s += d;
    } else {
      stack_.back().child_s += d;
    }
  }

  template <typename Pred>
  void drop_served(Pred stale) {
    while (!stack_.empty() && stale()) stack_.pop_back();
  }

  std::unordered_map<const nn::Module*, nn::Module*> parent_;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> pre_;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> post_;
  std::vector<Open> stack_;
};

// -- kernels: the workload's own im2col GEMM shapes ------------------------------------

struct GemmShape {
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t calls = 0;  ///< GEMM calls per forward (groups x batch)
  bool native_i8 = false;  ///< the layer runs the native INT8 path
};

std::vector<GemmShape> conv_shapes(const core::FaultInjector& fi,
                                   std::int64_t batch) {
  std::vector<GemmShape> out;
  for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&fi.layer(i));
    if (conv == nullptr) continue;
    const auto& o = conv->options();
    const Shape& s = fi.layer_shape(i);  // [N, C, H, W]
    GemmShape g{o.out_channels / o.groups, s[2] * s[3],
                (o.in_channels / o.groups) * o.kernel * o.kernel,
                o.groups * batch,
                fi.layer_native(i) && fi.layer_dtype(i) == core::DType::kInt8};
    auto same = std::find_if(out.begin(), out.end(), [&](const GemmShape& x) {
      return x.m == g.m && x.n == g.n && x.k == g.k &&
             x.native_i8 == g.native_i8;
    });
    if (same != out.end()) {
      same->calls += g.calls;
    } else {
      out.push_back(g);
    }
  }
  return out;
}

/// Seconds per call of `fn`, repeated for about `target_s` after a warm-up.
template <typename Fn>
double time_per_call(Fn&& fn, double target_s) {
  fn();
  int reps = 0;
  const double t0 = now_s();
  double el = 0.0;
  do {
    fn();
    ++reps;
    el = now_s() - t0;
  } while (el < target_s);
  return el / reps;
}

struct KernelTimes {
  double gemm_s = 0.0, gemm_flops = 0.0;  // fp32 kernels::gemm, per forward
  double quant_s = 0.0, i8_s = 0.0, req_s = 0.0, i8_ops = 0.0;
};

KernelTimes time_kernels(const std::vector<GemmShape>& shapes) {
  constexpr double kTarget = 0.03;
  KernelTimes t;
  Rng rng(7);
  for (const GemmShape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> bias(static_cast<std::size_t>(s.m));
    for (auto& x : a) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : b) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : bias) x = rng.uniform(-1.0f, 1.0f);
    const double flops = 2.0 * static_cast<double>(s.m * s.n * s.k);
    const double calls = static_cast<double>(s.calls);
    t.gemm_s += calls * time_per_call(
                            [&] {
                              kernels::gemm(s.m, s.n, s.k, a.data(), s.k, false,
                                            b.data(), s.n, false, c.data(), s.n,
                                            kernels::Epilogue::kBiasRow,
                                            bias.data());
                            },
                            kTarget);
    t.gemm_flops += calls * flops;
    if (!s.native_i8) continue;
    // The statically calibrated conv forward: weights prepacked once;
    // per pass, activations quantized+packed at the frozen scale, the exact
    // INT8 GEMM, then the requantize-to-grid epilogue.
    const auto row_scales =
        kernels::per_row_scales_i8(s.m, s.k, a.data(), s.k, false);
    kernels::PackedPanelsI8 pa, pb;
    kernels::quantize_pack_a_i8(s.m, s.k, a.data(), s.k, false,
                                kernels::block_config().mr, row_scales.data(),
                                pa);
    const float act_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        b.data(), static_cast<std::int64_t>(b.size())));
    const float out_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        c.data(), static_cast<std::int64_t>(c.size())));
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s.m * s.n));
    t.quant_s += calls * time_per_call(
                             [&] {
                               kernels::quantize_pack_b_i8_static(
                                   s.k, s.n, b.data(), s.n, false, act_scale,
                                   pb);
                             },
                             kTarget);
    t.i8_s += calls * time_per_call(
                          [&] {
                            kernels::gemm_i8(s.m, s.n, s.k, pa, pb, acc.data(),
                                             s.n);
                          },
                          kTarget);
    t.req_s += calls * time_per_call(
                           [&] {
                             kernels::requantize_rows_grid(
                                 s.m, s.n, acc.data(), s.n, row_scales.data(),
                                 pb.scale[0], bias.data(), out_scale, true,
                                 c.data(), s.n);
                           },
                           kTarget);
    t.i8_ops += calls * flops;
  }
  return t;
}

// -- helpers ----------------------------------------------------------------------------

core::PrefixCacheStats prefix_stats(const core::FaultInjector& fi) {
  return fi.prefix_cache() != nullptr ? fi.prefix_cache()->stats()
                                      : core::PrefixCacheStats{};
}

/// Counter-wise `after - before`.
core::PrefixCacheStats delta(const core::PrefixCacheStats& after,
                             const core::PrefixCacheStats& before) {
  core::PrefixCacheStats d;
  d.golden_records = after.golden_records - before.golden_records;
  d.reuse_passes = after.reuse_passes - before.reuse_passes;
  d.fallback_passes = after.fallback_passes - before.fallback_passes;
  d.layers_reused = after.layers_reused - before.layers_reused;
  d.layers_recomputed = after.layers_recomputed - before.layers_recomputed;
  d.budget_truncations = after.budget_truncations - before.budget_truncations;
  d.input_mismatches = after.input_mismatches - before.input_mismatches;
  d.injection_site_serves =
      after.injection_site_serves - before.injection_site_serves;
  return d;
}

/// Forward passes a campaign executed: golden records plus faulty passes
/// (every faulty pass asks the cache for reuse, hit or fallback).
double passes(const core::PrefixCacheStats& d) {
  return static_cast<double>(d.golden_records + d.reuse_passes +
                             d.fallback_passes);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A campaign call plus the prefix-cache counters it moved.
struct Probe {
  Outcome out;
  core::PrefixCacheStats d;
};

template <typename Fn>
Probe probe(core::FaultInjector& fi, Fn&& run) {
  const core::PrefixCacheStats before = prefix_stats(fi);
  Probe p;
  p.out = run();
  p.d = delta(prefix_stats(fi), before);
  return p;
}

/// The stratified workload split into its shard runs and its merge, so each
/// is timed; also reads the shard checkpoint and log files it leaves.
struct ShardRun {
  Outcome out;
  double run_s = 0.0, merge_s = 0.0;
  std::uint64_t log_bytes = 0;
  std::vector<core::CheckpointState> ckpts;
  std::vector<std::string> logs;
};

ShardRun run_split_shards(const Workload& w, Setup& s, std::uint64_t seed,
                          std::int64_t threads, const std::string& dir) {
  ShardRun r;
  remove_dir(dir);
  const core::StratifiedCampaignConfig cfg = stratified_config(w, seed, threads);
  std::vector<core::ShardRunReport> reports;
  const double t0 = now_s();
  for (std::int64_t k = 0; k < w.shards; ++k) {
    core::ShardPlan plan;
    plan.shards = w.shards;
    plan.shard_index = k;
    plan.record_events = true;
    reports.push_back(
        core::run_stratified_shard(*s.fi, *s.ds, cfg, plan, dir, w.name));
  }
  const double t1 = now_s();
  std::vector<std::string> manifests;
  for (const core::ShardRunReport& rep : reports) {
    manifests.push_back(rep.paths.manifest);
  }
  trace::TraceSink sink;
  r.out.stratified = core::merge_shards(manifests, &sink).stratified;
  seal_outcome(w, sink, r.out);
  const double t2 = now_s();
  for (const core::ShardRunReport& rep : reports) {
    r.log_bytes += rep.manifest.log_bytes;
    r.ckpts.push_back(
        core::checkpoint_from_json(util::read_file(rep.paths.checkpoint)));
    r.logs.push_back(util::read_file(rep.paths.log));
  }
  r.run_s = t1 - t0;
  r.merge_s = t2 - t1;
  r.out.seconds = t2 - t0;
  remove_dir(dir);
  return r;
}

/// Replays the shards' checkpoint commits through a fresh checkpointer: the
/// same commit count, per-shard log bytes split evenly over the commits,
/// and the final stratum states. Returns per-commit milliseconds; adds the
/// bytes made durable (log chunks plus checkpoint files) to `bytes`.
std::vector<double> replay_commits(const ShardRun& r, const std::string& dir,
                                   double& bytes) {
  std::filesystem::create_directories(dir);
  std::vector<double> ms;
  for (std::size_t k = 0; k < r.ckpts.size(); ++k) {
    const core::CheckpointState& st = r.ckpts[k];
    const std::string& log = r.logs[k];
    const std::string path = dir + "/replay.ckpt";
    core::CampaignCheckpointer ckpt(path, dir + "/replay.log");
    ckpt.begin(st.fingerprint);
    const std::uint64_t commits = std::max<std::uint64_t>(st.next_unit, 1);
    std::size_t pos = 0;
    for (std::uint64_t c = 0; c < commits; ++c) {
      const std::size_t end = (c + 1 == commits)
                                  ? log.size()
                                  : log.size() * (c + 1) / commits;
      const std::string_view chunk(log.data() + pos, end - pos);
      pos = end;
      const double t0 = now_s();
      ckpt.commit_bytes(st.result, c + 1, c + 1 == commits, chunk, st.strata);
      ms.push_back((now_s() - t0) * 1e3);
      bytes += static_cast<double>(chunk.size() + util::file_size(path));
    }
  }
  remove_dir(dir);
  return ms;
}

}  // namespace

TracedRun run_traced(const Workload& w, Setup& s, std::uint64_t seed,
                     std::int64_t threads, const std::string& work_dir,
                     bool smoke) {
  TracedRun r;
  core::FaultInjector& fi = *s.fi;
  JsonObject& m = r.metrics;
  const auto run = [&](std::int64_t t) {
    return [&, t] { return run_campaign(w, s, seed, t, work_dir); };
  };
  const auto check_same = [&](const std::string& what, const Outcome& o,
                              const Outcome& ref) {
    r.digests.push_back(o.digest);
    if (o.digest != ref.digest || o.jsonl != ref.jsonl) {
      r.errors.push_back(what + " differs: " + o.digest + " vs " + ref.digest);
    }
  };

  // -- core/campaign: 1 thread against nproc threads, untraced ----------------
  const Probe one = probe(fi, run(1));
  const Probe par = probe(fi, run(threads));
  r.digests.push_back(one.out.digest);
  check_same("nproc-thread result", par.out, one.out);

  // -- the traced campaign: span hooks on the caller's model (worker 0),
  // alternated with untraced calls so the overhead compares like with like.
  ShardRun split;
  std::vector<double> untraced_tps{par.out.trials_per_s()}, traced_tps;
  constexpr int kOverheadPairs = 3;
  for (int i = 0; i < kOverheadPairs; ++i) {
    if (i > 0) {
      const Outcome again = run(threads)();
      untraced_tps.push_back(again.trials_per_s());
      check_same("repeated result", again, one.out);
    }
    SpanHooks hooks(*s.model);
    if (w.kind == Kind::kStratifiedShards) {
      split = run_split_shards(w, s, seed, threads, work_dir);
      traced_tps.push_back(split.out.trials_per_s());
      check_same("split shard run", split.out, one.out);
    } else {
      const Outcome traced = run(threads)();
      traced_tps.push_back(traced.trials_per_s());
      check_same("traced result", traced, one.out);
    }
  }
  m.num("campaign.parallel_eff",
        ratio(par.out.trials_per_s(), static_cast<double>(threads) * one.out.trials_per_s()))
      .num("campaign.spec_waste", ratio(static_cast<double>(par.d.golden_records),
                                        static_cast<double>(one.d.golden_records)))
      .num("bench.trace_overhead_x",
           ratio(median(untraced_tps), median(traced_tps)));

  // -- core/prefix_cache: counters the nproc campaign moved -------------------
  const double faulty = static_cast<double>(par.d.reuse_passes +
                                            par.d.fallback_passes);
  m.num("prefix.hit_rate", par.d.hit_rate())
      .num("prefix.at_site_share",
           ratio(static_cast<double>(par.d.injection_site_serves), faulty))
      .num("prefix.fallback_share",
           ratio(static_cast<double>(par.d.fallback_passes), faulty))
      .num("prefix.budget_truncations",
           static_cast<double>(par.d.budget_truncations));

  // -- core/campaign + core/fault_injector: one attempt at a time -------------
  {
    const core::CampaignConfig cfg = campaign_config(w, seed, 1);
    std::vector<double> unit_ms, golden_ms, faulty_ms, declare_us, clear_us,
        sample_us;
    const double end = now_s() + (smoke ? 1.0 : 10.0);
    const std::size_t min_units = smoke ? 10 : 100;
    for (std::uint64_t a = 0; unit_ms.size() < 1000 &&
                              (now_s() < end || unit_ms.size() < min_units);
         ++a) {
      const double t0 = now_s();
      const data::Batch batch = core::campaign_attempt_batch(*s.ds, cfg, a);
      const double t1 = now_s();
      const Tensor golden =
          fi.forward(batch.images, core::ForwardMode::kRecordGolden);
      const double t2 = now_s();
      sample_us.push_back((t1 - t0) * 1e6);
      golden_ms.push_back((t2 - t1) * 1e3);
      const auto top1 = nn::argmax_rows(golden);
      std::vector<std::int64_t> eligible;
      for (std::size_t i = 0; i < top1.size(); ++i) {
        if (top1[i] == batch.labels[i]) {
          eligible.push_back(static_cast<std::int64_t>(i));
        }
      }
      Rng rng(derive_seed(seed, a, 99));
      for (std::int64_t rep = 0;
           !eligible.empty() && rep < cfg.injections_per_image; ++rep) {
        const std::int64_t row = eligible[rng.next_below(eligible.size())];
        const double d0 = now_s();
        for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
          core::NeuronLocation loc =
              fi.random_neuron_location(rng, cfg.one_fault_per_layer ? l : -1);
          loc.batch = row;
          fi.declare_neuron_fault(loc, cfg.error_model);
          if (!cfg.one_fault_per_layer) break;
        }
        const double d1 = now_s();
        fi.forward(batch.images, core::ForwardMode::kReusePrefix);
        const double d2 = now_s();
        fi.clear();
        const double d3 = now_s();
        declare_us.push_back((d1 - d0) * 1e6);
        faulty_ms.push_back((d2 - d1) * 1e3);
        clear_us.push_back((d3 - d2) * 1e6);
      }
      unit_ms.push_back((now_s() - t0) * 1e3);
    }
    r.ledger.num("units", static_cast<double>(unit_ms.size()));
    m.num("campaign.unit_ms_p50", median(unit_ms))
        .num("campaign.unit_ms_p99", quantile(unit_ms, 0.99))
        .num("fi.golden_fwd_ms", median(golden_ms))
        .num("fi.faulty_fwd_ms", median(faulty_ms))
        .num("fi.declare_us", median(declare_us))
        .num("fi.clear_us", median(clear_us))
        .num("data.sample_us", median(sample_us));
  }

  {
    std::vector<double> rep_ms;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      const auto replica = fi.replicate();
      rep_ms.push_back((now_s() - t0) * 1e3);
    }
    m.num("fi.replicate_ms", median(rep_ms));
  }

  // Hook cost per call, from a Profiler on an idle batch-1 injector.
  {
    auto model = nn::clone_model(*s.model);
    model->eval();
    core::FaultInjector idle(model, fi_config(w, s, 1));
    trace::Profiler profiler;
    idle.set_profiler(&profiler);
    Rng rng(7);
    const Tensor image = s.ds->sample_batch(1, rng).images;
    for (int i = 0; i < 64; ++i) idle.forward(image);
    std::uint64_t ns = 0, calls = 0;
    for (const auto& p : profiler.layers()) {
      ns += p.hook_ns;
      calls += p.hook_calls;
    }
    m.num("fi.hook_us_per_call",
          ratio(static_cast<double>(ns) / 1e3, static_cast<double>(calls)));
  }

  // -- nn: self time per golden (fault-free, uncached) forward, by leaf kind --
  {
    Rng rng(11);
    const Tensor images = s.ds->sample_batch(w.batch, rng).images;
    fi.forward(images);
    SpanHooks hooks(*s.model);
    int fwd = 0;
    const double end = now_s() + (smoke ? 0.2 : 2.0);
    while (fwd < 10 || now_s() < end) {
      fi.forward(images);
      ++fwd;
    }
    const double per = 1e3 / fwd;
    m.num("nn.conv_ms", hooks.self_s[kConv] * per)
        .num("nn.bn_ms", hooks.self_s[kBn] * per)
        .num("nn.act_pool_ms", hooks.self_s[kActPool] * per)
        .num("nn.join_ms", hooks.self_s[kJoin] * per)
        .num("nn.linear_ms", hooks.self_s[kLinear] * per)
        .num("nn.nongemm_share",
             1.0 - ratio(hooks.self_s[kConv] + hooks.self_s[kLinear],
                         hooks.root_s));
  }

  // -- kernels and kernels/lowp on this workload's conv GEMM shapes ------------
  {
    const KernelTimes k = time_kernels(conv_shapes(fi, w.batch));
    m.num("kernels.gemm_gflops", ratio(k.gemm_flops, k.gemm_s) * 1e-9)
        .num("kernels.gemm_ms_per_fwd", k.gemm_s * 1e3)
        .num("lowp.int8_path_gops",
             ratio(k.i8_ops, k.quant_s + k.i8_s + k.req_s) * 1e-9)
        .num("lowp.quantize_pack_ms", k.quant_s * 1e3)
        .num("lowp.gemm_i8_ms", k.i8_s * 1e3)
        .num("lowp.requant_ms", k.req_s * 1e3);
  }

  // -- quant -------------------------------------------------------------------
  m.num("quant.calibrate_s", s.calibrate_s);

  // -- core/sampling, core/shard, core/checkpoint -------------------------------
  if (w.kind == Kind::kStratifiedShards) {
    const core::StratifiedResult& sr = par.out.stratified;
    const auto trials = static_cast<double>(sr.totals.trials);
    m.num("sampling.pruned_share", ratio(static_cast<double>(sr.pruned), trials))
        .num("sampling.exec_per_trial",
             ratio(static_cast<double>(sr.executed_passes()), trials))
        .num("sampling.golden_per_trial",
             ratio(static_cast<double>(sr.golden_passes), trials));

    // The same configuration single-process: identical result required.
    const Probe single = probe(fi, [&] {
      trace::TraceSink sink;
      core::StratifiedCampaignConfig cfg = stratified_config(w, seed, threads);
      cfg.base.trace = &sink;
      Outcome o;
      o.stratified = core::run_stratified_campaign(fi, *s.ds, cfg);
      seal_outcome(w, sink, o);
      return o;
    });
    check_same("single-process stratified result", single.out, one.out);
    m.num("shard.run_s", split.run_s)
        .num("shard.merge_s", split.merge_s)
        .num("shard.log_bytes", static_cast<double>(split.log_bytes))
        .num("shard.work_x", ratio(passes(par.d), passes(single.d)));

    double bytes = 0.0;
    const std::vector<double> commit_ms =
        replay_commits(split, work_dir + "-replay", bytes);
    m.num("ckpt.commits", static_cast<double>(commit_ms.size()))
        .num("ckpt.commit_ms_p50", median(commit_ms))
        .num("ckpt.bytes", bytes);
  } else {
    // Uniform campaigns: no pruning, no shards, no checkpoints. Executed
    // passes come from the 1-thread run, which computes no attempt twice.
    const auto trials = static_cast<double>(one.out.counts.trials);
    m.num("sampling.pruned_share", 0.0)
        .num("sampling.exec_per_trial", ratio(passes(one.d), trials))
        .num("sampling.golden_per_trial",
             ratio(static_cast<double>(one.d.golden_records), trials))
        .num("shard.run_s", 0.0)
        .num("shard.merge_s", 0.0)
        .num("shard.log_bytes", 0.0)
        .num("shard.work_x", 0.0)
        .num("ckpt.commits", 0.0)
        .num("ckpt.commit_ms_p50", 0.0)
        .num("ckpt.bytes", 0.0);
  }

  // -- core/trace: export and parse the campaign's trace ---------------------
  {
    const std::vector<trace::InjectionEvent>& events = par.out.events;
    std::vector<double> to_ms, parse_ms;
    std::string jsonl;
    for (int i = 0; i < 3 && !events.empty(); ++i) {
      const double t0 = now_s();
      jsonl = trace::trace_to_jsonl(events);
      to_ms.push_back((now_s() - t0) * 1e3);
      std::vector<trace::InjectionEvent> parsed;
      parsed.reserve(events.size());
      const double t1 = now_s();
      std::size_t pos = 0;
      while (pos < jsonl.size()) {
        const std::size_t nl = jsonl.find('\n', pos);
        parsed.push_back(trace::event_from_json(jsonl.substr(pos, nl - pos)));
        pos = nl + 1;
      }
      parse_ms.push_back((now_s() - t1) * 1e3);
      if (trace::trace_to_jsonl(parsed) != jsonl) {
        r.errors.push_back("trace JSONL does not round-trip through parse");
      }
    }
    m.num("trace.events", static_cast<double>(events.size()))
        .num("trace.jsonl_bytes", static_cast<double>(jsonl.size()))
        .num("trace.to_jsonl_ms", median(to_ms))
        .num("trace.parse_ms", median(parse_ms));
  }
  return r;
}

}  // namespace perfbench
