// pfi_perfbench: one run of one campaign workload.
//
//   pfi_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//                 [--work-dir DIR] [--digest-only]
//
// --trace 0 measures the end-to-end metrics with no benchmark tracing
// attached; --trace 1 runs the traced probes of layers.cpp instead. Either
// way the last stdout line is one JSON object with the run's metrics, the
// digests of every campaign call (perfbench/run.py gates them against
// expected.json) and the ledger fields. --smoke shrinks every workload;
// --digest-only runs one campaign call and reports only its digest (used to
// record expected.json).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "layers.hpp"
#include "nn/serialize.hpp"
#include "stats.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

using namespace pfi;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool digest_only = false;
  std::string work_dir = ".bench_build/work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke" || flag == "--digest-only") {
      (flag == "--smoke" ? a.smoke : a.digest_only) = true;
      continue;
    }
    PFI_CHECK(i + 1 < argc) << flag << " needs a value";
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      PFI_CHECK(v == "0" || v == "1") << "--trace takes 0 or 1, got " << v;
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      PFI_CHECK(false) << "unknown flag " << flag;
    }
  }
  PFI_CHECK(have_workload) << "--workload is required";
  PFI_CHECK(a.seconds > 0.0) << "--seconds must be positive";
  return a;
}

const char* i8_isa_name(kernels::I8Isa isa) {
  switch (isa) {
    case kernels::I8Isa::kAuto: return "auto";
    case kernels::I8Isa::kScalar: return "scalar";
    case kernels::I8Isa::kMadd: return "avx2-madd";
    case kernels::I8Isa::kVnni: return "avx512-vnni";
  }
  return "?";
}

/// Resident memory of the process now, in MB (0 where /proc is missing).
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0
                : 0.0;
}

/// Highest resident memory seen while it lives, polled every 2 ms from a
/// thread of its own.
class RssPeak {
 public:
  RssPeak()
      : poller_([this] {
          while (!stop_.load()) {
            peak_ = std::max(peak_, rss_mb());
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          peak_ = std::max(peak_, rss_mb());
        }) {}

  /// Stop polling; the peak seen.
  double finish() {
    stop_.store(true);
    poller_.join();
    return peak_;
  }

 private:
  std::atomic<bool> stop_{false};
  double peak_ = 0.0;
  std::thread poller_;
};

/// Single-image kPlain forwards, each timed in the calling thread's CPU
/// time: through the idle instrumented model (the workload's injector
/// configuration at batch 1), through an uninstrumented clone of the same
/// fp32 model, and, on low-precision workloads, through the model under an
/// idle fp32 injector. They alternate in blocks of eight so drift hits all
/// alike, in bursts spread over the run.
///
/// A burst runs one lane per hardware thread at once, each lane its own
/// copies of the models, so the figures are single-image latencies on a
/// fully loaded machine, like the campaign's. On a shared host that is also
/// the steadier figure: on a shared 4-vCPU VM the median forward of a lone
/// thread over 8-second windows ranged over 26%, that of four lanes at once
/// over 10%. There, now and then two of the four lanes ran 1.3-1.7x slower
/// for part or all of a burst, which moved the 99th percentile of a run's
/// pooled samples by up to 40%; so the tail is taken per burst, and a run
/// reports the median of its bursts' tails.
class LatencyProbe {
 public:
  LatencyProbe(const Workload& w, const Setup& s, std::int64_t lanes)
      : w_(w), s_(s), lanes_(lanes) {}

  /// One burst: at least `budget_s` of wall time and `min_samples`
  /// instrumented samples.
  void burst(double budget_s, std::size_t min_samples) {
    const auto lanes_n = static_cast<std::size_t>(lanes_);
    const std::size_t per_lane = (min_samples + lanes_n - 1) / lanes_n;
    std::vector<std::unique_ptr<Lane>> lanes;
    for (std::int64_t i = 0; i < lanes_; ++i) {
      lanes.push_back(std::make_unique<Lane>(w_, s_));
    }
    const double end = now_s() + budget_s;
    std::vector<std::thread> threads;
    for (const auto& lane : lanes) {
      threads.emplace_back([&lane, end, per_lane] { lane->run(end, per_lane); });
    }
    for (std::thread& t : threads) t.join();
    const std::size_t before = inst_ms.size();
    for (const auto& lane : lanes) {
      lane->append_to(inst_ms, bare_ms, fp32_ms);
    }
    burst_p99.push_back(quantile(
        std::vector<double>(inst_ms.begin() + static_cast<std::ptrdiff_t>(before),
                            inst_ms.end()),
        0.99));
    // Hand the lanes' freed memory back to the system, so that the resident
    // memory of the next campaign call is the campaign's own.
    lanes.clear();
    malloc_trim(0);
  }

  /// Idle instrumented over uninstrumented fp32 median (Fig 3). pfi applies
  /// a low-precision dtype through the injector, so no uninstrumented INT8
  /// model exists; those workloads compare the fp32 injector instead.
  double idle_overhead() const {
    return median(fp32_ms.empty() ? inst_ms : fp32_ms) / median(bare_ms);
  }

  std::vector<double> inst_ms, bare_ms, fp32_ms;
  /// The 99th percentile of each burst's instrumented samples.
  std::vector<double> burst_p99;

 private:
  class Lane {
   public:
    Lane(const Workload& w, const Setup& s)
        : bare_(clone(s)),
          inst_(clone(s), fi_config(w, s, 1)),
          fp32_(w.dtype == core::DType::kFloat32
                    ? nullptr
                    : std::make_unique<core::FaultInjector>(
                          clone(s),
                          core::FiConfig{.input_shape = inst_.config().input_shape,
                                         .batch_size = 1})) {
      Rng rng(7);
      image_ = s.ds->sample_batch(1, rng).images;
    }

    /// Warm up, then sample until `end` and until this lane holds
    /// `min_samples` instrumented samples.
    void run(double end, std::size_t min_samples) {
      for (int i = 0; i < 8; ++i) {
        (*bare_)(image_);
        inst_.forward(image_);
        if (fp32_) fp32_->forward(image_);
      }
      do {
        block([&] { (*bare_)(image_); }, bare_ms_);
        block([&] { inst_.forward(image_); }, inst_ms_);
        if (fp32_) block([&] { fp32_->forward(image_); }, fp32_ms_);
      } while (now_s() < end || inst_ms_.size() < min_samples);
    }

    void append_to(std::vector<double>& inst, std::vector<double>& bare,
                   std::vector<double>& fp32) const {
      inst.insert(inst.end(), inst_ms_.begin(), inst_ms_.end());
      bare.insert(bare.end(), bare_ms_.begin(), bare_ms_.end());
      fp32.insert(fp32.end(), fp32_ms_.begin(), fp32_ms_.end());
    }

   private:
    static std::shared_ptr<nn::Module> clone(const Setup& s) {
      auto m = nn::clone_model(*s.model);
      m->eval();
      return m;
    }

    template <typename Fn>
    static void block(Fn&& forward, std::vector<double>& out) {
      for (int i = 0; i < 8; ++i) {
        const double t0 = thread_cpu_s();
        forward();
        out.push_back((thread_cpu_s() - t0) * 1e3);
      }
    }

    std::shared_ptr<nn::Module> bare_;
    core::FaultInjector inst_;
    std::unique_ptr<core::FaultInjector> fp32_;
    Tensor image_;
    std::vector<double> inst_ms_, bare_ms_, fp32_ms_;
  };

  const Workload& w_;
  const Setup& s_;
  std::int64_t lanes_;
};

/// --trace 0. The run is a sequence of cycles until --seconds is spent, each
/// cycle a few set-ups, one campaign call and a burst of single-image forwards,
/// so every metric's median draws on samples from the whole run rather
/// than from one window of it.
///
/// The host this runs on may be shared: the hypervisor can take the VM's
/// CPUs away (steal) and other processes can preempt ours. Set-up and each
/// single-image forward run within one thread, so they are timed in that
/// thread's CPU time, which excludes both. A campaign call is timed in wall
/// time (so workers waiting on each other still count) minus the host steal
/// that fell inside it, shared over the nproc workers.
JsonObject run_untraced(const Workload& w, const Args& a, std::int64_t threads,
                        std::vector<std::string>& digests,
                        std::vector<std::string>& errors, JsonObject& ledger) {
  std::vector<double> setup_s;
  const double c0 = thread_cpu_s();
  Setup s = make_setup(w);
  setup_s.push_back(thread_cpu_s() - c0);
  // Set-up takes milliseconds on the fp32 workloads: repeat it so each
  // cycle spends about 0.2 s on it.
  const int setups_per_cycle =
      static_cast<int>(std::clamp(0.2 / setup_s.front(), 1.0, 20.0));
  LatencyProbe lat(w, s, threads);

  const double deadline = now_s() + a.seconds;
  std::vector<double> tps, wall_tps, call_rss_mb;
  double stolen = 0.0, busy = 0.0;
  double last = 0.0;
  for (int cycle = 0; cycle < 3 || now_s() + last <= deadline; ++cycle) {
    const double cycle0 = now_s();
    for (int i = 0; i < setups_per_cycle; ++i) {
      const double t0 = thread_cpu_s();
      const Setup again = make_setup(w);
      setup_s.push_back(thread_cpu_s() - t0);
    }
    const double steal0 = host_steal_s();
    RssPeak rss;
    try {
      const Outcome o = run_campaign(w, s, a.seed, threads, a.work_dir);
      const double steal = (host_steal_s() - steal0) / static_cast<double>(threads);
      const auto trials = static_cast<double>(o.counts.trials);
      tps.push_back(trials / (o.seconds - steal));
      wall_tps.push_back(trials / o.seconds);
      stolen += steal;
      busy += o.seconds;
      digests.push_back(o.digest);
      std::fprintf(stderr, "cycle %d: %.1f trials/s (%.1f in wall time)\n",
                   cycle, tps.back(), wall_tps.back());
    } catch (const std::exception& e) {
      errors.push_back(std::string("campaign threw: ") + e.what());
    }
    call_rss_mb.push_back(rss.finish());
    lat.burst(a.smoke ? 0.1 : 1.0, a.smoke ? 0 : 250);
    last = now_s() - cycle0;
  }

  ledger.num("runs", static_cast<double>(tps.size()))
      .num("trials_per_s_spread", spread(tps))
      .num("wall_trials_per_s", median(wall_tps))
      .num("steal_share", busy > 0.0 ? stolen / busy : 0.0)
      .num("setup_runs", static_cast<double>(setup_s.size()))
      .num("setup_s_spread", spread(setup_s))
      .num("forward_samples", static_cast<double>(lat.inst_ms.size()))
      .num("forward_bursts", static_cast<double>(lat.burst_p99.size()));
  JsonObject m;
  m.num("trials_per_s", median(tps))
      .num("setup_s", median(setup_s))
      .num("forward_ms_p50", median(lat.inst_ms))
      .num("forward_ms_p99", median(lat.burst_p99))
      .num("idle_overhead_x", lat.idle_overhead())
      .num("peak_rss_mb", median(call_rss_mb));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload w = find_workload(a.workload, a.smoke);
    const auto threads =
        static_cast<std::int64_t>(util::ThreadPool::hardware_threads());

    JsonObject ledger;
    ledger.num("nproc", static_cast<double>(threads))
        .num("simd", kernels::simd_available() ? 1.0 : 0.0)
        .str("i8_isa", i8_isa_name(kernels::active_i8_isa()));
    std::vector<std::string> digests;
    std::vector<std::string> errors;
    JsonObject metrics;
    if (a.digest_only) {
      Setup s = make_setup(w);
      digests.push_back(run_campaign(w, s, a.seed, threads, a.work_dir).digest);
    } else if (a.trace) {
      Setup s = make_setup(w);
      TracedRun t = run_traced(w, s, a.seed, threads, a.work_dir, a.smoke);
      metrics = std::move(t.metrics);
      digests = std::move(t.digests);
      errors = std::move(t.errors);
      ledger.num("runs", 1.0).raw("traced", t.ledger.text());
    } else {
      metrics = run_untraced(w, a, threads, digests, errors, ledger);
    }
    JsonObject out;
    out.str("workload", w.name)
        .num("seed", static_cast<double>(a.seed))
        .num("trace", a.trace ? 1.0 : 0.0)
        .num("smoke", a.smoke ? 1.0 : 0.0)
        .strs("digests", digests)
        .strs("errors", errors)
        .raw("ledger", ledger.text())
        .raw("metrics", metrics.text());
    std::printf("%s\n", out.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfi_perfbench: %s\n", e.what());
    return 1;
  }
}
