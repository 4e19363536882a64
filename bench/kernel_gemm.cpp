// GEMM microbenchmark for pfi::kernels: naive reference vs the blocked
// (packed, register-tiled, AVX-512/AVX2-dispatched) kernel on the im2col
// GEMM shapes that AlexNet and ResNet18 actually run during a CIFAR campaign.
//
// Shapes are derived at runtime from the zoo models themselves: for every
// Conv2d, the forward GEMM per group is
//   M = out_channels / groups,  K = (in_channels / groups) * k * k,
//   N = H_out * W_out
// so the numbers here are exactly the problems `FaultInjector::forward`
// spends its time in. Prints GFLOP/s for both kernels plus the speedup,
// then a weighted total (each shape weighted by groups x its flop count).
//
// Alongside the fp32 naive/blocked pair, two native-INT8 rows time the
// deployed quantized path on the same shapes (same 2*M*N*K op count, so
// the GOP/s columns compare directly):
//   int8-gemm : prepacked steady state — both operands already quantized
//               and packed; per call = exact i32 GEMM + fp32 requantize.
//   int8-path : what a STATICALLY-CALIBRATED conv forward actually pays per
//               pass — weights prepacked, activations quantized+packed in a
//               single sweep at the frozen scale (no per-inference absmax),
//               then GEMM + fused requantize-to-grid epilogue. The three
//               phases (quantize+pack / gemm / requantize) are timed
//               separately; the row reports their sum and the footer the
//               weighted phase breakdown.
//
// The int8-path row starts from an already-materialized activation matrix,
// so it cannot see the im2col gather that feeds it in a real forward. The
// conv-fwd footer closes that gap: it times Conv2d::forward itself on the
// first conv of every shape (its captured input from one batch-1 forward of
// the zoo model), fp32 and static INT8, weighted like the rows, and splits
// each into the gather (nn::Im2col — whole matrix for fp32, kNR-column
// tiles for INT8) and the rest; the INT8 split adds quantize+pack (the
// streamed pack minus its gather), gemm and requantize from the rows.
//
// Environment knobs: PFI_BENCH_REPS_MS (target ms per measurement, default
// 300), PFI_KERNEL_THREADS (intra-op threads for the blocked kernel,
// default 1 — the campaign engine parallelizes across trials instead).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/fault_injector.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "models/zoo.hpp"
#include "nn/im2col.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace pfi;

struct GemmShape {
  std::string layer;
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t weight = 1;  // groups x batch occurrences
  // The conv-fwd footer's subject: the first conv with this shape and the
  // input it saw in one batch-1 forward of its model.
  std::shared_ptr<nn::Module> model;
  nn::Conv2d* conv = nullptr;
  Tensor input;
};

/// im2col GEMM shapes of every Conv2d in `model_name` at CIFAR geometry.
std::vector<GemmShape> conv_gemm_shapes(const std::string& model_name) {
  Rng rng(1);
  auto model = models::make_model(model_name, {.num_classes = 10}, rng);
  model->eval();
  core::FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 1});
  std::vector<GemmShape> shapes;
  for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&fi.layer(i));
    if (conv == nullptr) continue;
    const auto& o = conv->options();
    const Shape& out = fi.layer_shape(i);  // [N, C, H, W]
    GemmShape s;
    s.layer = model_name + "/" + fi.layer_path(i);
    s.m = o.out_channels / o.groups;
    s.k = (o.in_channels / o.groups) * o.kernel * o.kernel;
    s.n = out[2] * out[3];
    s.weight = o.groups;
    s.model = model;
    s.conv = conv;
    shapes.push_back(s);
  }
  // Capture every conv's input from one forward.
  std::vector<nn::HookHandle> hooks;
  for (auto& s : shapes) {
    hooks.push_back(s.conv->register_forward_pre_hook(
        [&s](nn::Module&, Tensor& x) { s.input = x.clone(); }));
  }
  Rng drng(2);
  fi.forward(Tensor::rand({1, 3, 32, 32}, drng, -1.0f, 1.0f));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    shapes[i].conv->remove_hook(hooks[i]);
  }
  return shapes;
}

/// Dedup identical (m, n, k), merging weights, largest flop count first.
std::vector<GemmShape> dedup(std::vector<GemmShape> in) {
  std::vector<GemmShape> out;
  for (auto& s : in) {
    auto it = std::find_if(out.begin(), out.end(), [&](const GemmShape& o) {
      return o.m == s.m && o.n == s.n && o.k == s.k;
    });
    if (it != out.end()) {
      it->weight += s.weight;
    } else {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.m * a.n * a.k * a.weight > b.m * b.n * b.k * b.weight;
  });
  return out;
}

const char* f32_isa_name(kernels::F32Isa isa) {
  switch (isa) {
    case kernels::F32Isa::kAvx512: return "avx512f";
    case kernels::F32Isa::kAvx2: return "avx2+fma";
    default: return "scalar";
  }
}

/// Seconds per call of `fn`, repeated until ~target_ms of wall time.
template <typename Fn>
double time_per_call(Fn&& fn, double target_ms) {
  fn();  // warm up (and populate pack scratch)
  int reps = 1;
  for (;;) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    const double ms = sw.elapsed_ms();
    if (ms >= target_ms || reps > (1 << 24)) return ms * 1e-3 / reps;
    reps = ms < target_ms / 16.0 ? reps * 8 : reps * 2;
  }
}

}  // namespace

int main() {
  const double target_ms = util::env_double("PFI_BENCH_REPS_MS", 300.0);
  std::printf("pfi::kernels GEMM microbenchmark (fp32 isa %s, %d thread%s)\n",
              f32_isa_name(kernels::active_f32_isa()),
              kernels::threads(), kernels::threads() == 1 ? "" : "s");
  std::printf("shapes: im2col GEMMs of every conv in alexnet + resnet18 "
              "(CIFAR geometry, batch 1)\n\n");

  std::vector<GemmShape> shapes;
  for (const char* name : {"alexnet", "resnet18"}) {
    auto s = conv_gemm_shapes(name);
    shapes.insert(shapes.end(), s.begin(), s.end());
  }
  shapes = dedup(std::move(shapes));

  std::printf("%-34s %6s %6s %6s | %9s %9s %9s %9s | %7s %7s\n",
              "layer (first of dup)", "M", "N", "K", "naive", "blocked",
              "int8-gemm", "int8-path", "blk/nve", "i8/blk");
  std::printf("%-34s %6s %6s %6s | %9s %9s %9s %9s |\n", "", "", "", "",
              "GFLOP/s", "GFLOP/s", "GOP/s", "GOP/s");

  double naive_total_s = 0.0, blocked_total_s = 0.0, flops_total = 0.0;
  double i8_total_s = 0.0, i8_path_total_s = 0.0;
  double quant_total_s = 0.0, gemm_total_s = 0.0, req_total_s = 0.0;
  // conv-fwd footer accumulators (weighted like the rows).
  double fwd_f32_s = 0.0, gather_f32_s = 0.0;
  double fwd_i8_s = 0.0, gather_i8_s = 0.0, pack_i8_s = 0.0;
  double gemm_i8_s = 0.0, req_i8_s = 0.0;
  Rng rng(7);
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> bias(static_cast<std::size_t>(s.m));
    for (auto& x : a) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : b) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : bias) x = rng.uniform(-1.0f, 1.0f);

    const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
    const double t_naive = time_per_call(
        [&] {
          kernels::naive_gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(),
                              s.n, false, c.data(), s.n,
                              kernels::Epilogue::kBiasRow, bias.data());
        },
        target_ms);
    const double t_blocked = time_per_call(
        [&] {
          kernels::gemm_blocked(s.m, s.n, s.k, a.data(), s.k, false, b.data(),
                                s.n, false, c.data(), s.n,
                                kernels::Epilogue::kBiasRow, bias.data());
        },
        target_ms);

    // Native INT8, mirroring Conv2d::forward_int8: per-row weight scales +
    // prepacked weight panels, per-tensor activation quantization.
    const auto row_scales =
        kernels::per_row_scales_i8(s.m, s.k, a.data(), s.k, false);
    kernels::PackedPanelsI8 pa, pb;
    kernels::quantize_pack_a_i8(s.m, s.k, a.data(), s.k, false,
                                kernels::block_config().mr, row_scales.data(),
                                pa);
    kernels::quantize_pack_b_i8_tensor(s.k, s.n, b.data(), s.n, false, pb);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s.m * s.n));
    const double t_i8 = time_per_call(
        [&] {
          kernels::gemm_i8(s.m, s.n, s.k, pa, pb, acc.data(), s.n);
          kernels::requantize_rows(s.m, s.n, acc.data(), s.n,
                                   row_scales.data(), pb.scale[0], bias.data(),
                                   c.data(), s.n);
        },
        target_ms);

    // Static-calibration per-pass cost, phase by phase. The frozen scales
    // stand in for a calibration file: activation scale from the operand's
    // absmax (paid ONCE here, like the golden calibration pass), output
    // scale from the fp32 result the blocked kernel just produced.
    const float act_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        b.data(), static_cast<std::int64_t>(b.size())));
    const float out_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        c.data(), static_cast<std::int64_t>(c.size())));
    const double t_quant = time_per_call(
        [&] {
          kernels::quantize_pack_b_i8_static(s.k, s.n, b.data(), s.n, false,
                                             act_scale, pb);
        },
        target_ms);
    const double t_gemm = time_per_call(
        [&] { kernels::gemm_i8(s.m, s.n, s.k, pa, pb, acc.data(), s.n); },
        target_ms);
    const double t_req = time_per_call(
        [&] {
          kernels::requantize_rows_grid(s.m, s.n, acc.data(), s.n,
                                        row_scales.data(), pb.scale[0],
                                        bias.data(), out_scale, true, c.data(),
                                        s.n);
        },
        target_ms);
    const double t_i8_path = t_quant + t_gemm + t_req;

    // conv-fwd: the representative conv's own forward, fp32 then static
    // INT8 (scales frozen from this input and the fp32 output), and its
    // gathers alone. Per forward the conv runs one GEMM per group.
    nn::Conv2d& conv = *s.conv;
    const auto& o = conv.options();
    const Tensor& x = s.input;
    const std::int64_t groups = o.groups;
    const nn::Im2col im(o.in_channels / groups, x.size(2), x.size(3),
                        o.kernel, o.stride, o.padding);
    const std::int64_t slice = im.rows() / (o.kernel * o.kernel) *
                               x.size(2) * x.size(3);
    Tensor y;
    const double t_fwd_f32 = time_per_call([&] { y = conv.forward(x); },
                                           target_ms);
    std::vector<float> col(static_cast<std::size_t>(im.rows() * im.cols()));
    const double t_gather_f32 = time_per_call(
        [&] {
          for (std::int64_t g = 0; g < groups; ++g) {
            im.gather(x.data().data() + g * slice, 0, im.cols(), col.data(),
                      im.cols());
          }
        },
        target_ms);
    const float in_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        x.data().data(), x.numel()));
    const float y_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        y.data().data(), y.numel()));
    conv.set_native_dtype(kernels::LowPrec::kInt8);
    conv.set_static_act(in_scale, y_scale);
    const double t_fwd_i8 = time_per_call([&] { y = conv.forward(x); },
                                          target_ms);
    conv.set_native_dtype(kernels::LowPrec::kNone);
    conv.clear_static_act();
    std::vector<float> tile_buf(
        static_cast<std::size_t>(im.rows() * kernels::kNR));
    const float* group_src = x.data().data();
    const kernels::BTileFn tile = [&](std::int64_t col0, int w, float* dst) {
      im.gather(group_src, col0, w, dst, w);
    };
    const double t_gather_i8 = time_per_call(
        [&] {
          for (std::int64_t g = 0; g < groups; ++g) {
            group_src = x.data().data() + g * slice;
            for (std::int64_t c0 = 0; c0 < im.cols(); c0 += kernels::kNR) {
              const int w = static_cast<int>(
                  std::min<std::int64_t>(kernels::kNR, im.cols() - c0));
              tile(c0, w, tile_buf.data());
            }
          }
        },
        target_ms);
    const double t_stream = time_per_call(
        [&] {
          for (std::int64_t g = 0; g < groups; ++g) {
            group_src = x.data().data() + g * slice;
            kernels::quantize_pack_b_i8_stream(im.rows(), im.cols(), in_scale,
                                               tile, pb);
          }
        },
        target_ms);

    std::printf(
        "%-34s %6lld %6lld %6lld | %9.2f %9.2f %9.2f %9.2f | %6.2fx %6.2fx\n",
        s.layer.c_str(), static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k),
        flops / t_naive * 1e-9, flops / t_blocked * 1e-9, flops / t_i8 * 1e-9,
        flops / t_i8_path * 1e-9, t_naive / t_blocked, t_blocked / t_i8);

    const double w = static_cast<double>(s.weight);
    naive_total_s += t_naive * w;
    blocked_total_s += t_blocked * w;
    i8_total_s += t_i8 * w;
    i8_path_total_s += t_i8_path * w;
    quant_total_s += t_quant * w;
    gemm_total_s += t_gemm * w;
    req_total_s += t_req * w;
    flops_total += flops * w;
    // The conv-fwd times already cover every group of one conv.
    const double wc = w / static_cast<double>(groups);
    fwd_f32_s += t_fwd_f32 * wc;
    gather_f32_s += t_gather_f32 * wc;
    fwd_i8_s += t_fwd_i8 * wc;
    gather_i8_s += t_gather_i8 * wc;
    pack_i8_s += std::max(0.0, t_stream - t_gather_i8) * wc;
    gemm_i8_s += t_gemm * w;
    req_i8_s += t_req * w;
  }

  std::printf("\nweighted total (all conv GEMMs, one forward each):\n");
  std::printf("  naive     : %8.2f GFLOP/s\n",
              flops_total / naive_total_s * 1e-9);
  std::printf("  blocked   : %8.2f GFLOP/s\n",
              flops_total / blocked_total_s * 1e-9);
  std::printf("  int8-gemm : %8.2f GOP/s\n", flops_total / i8_total_s * 1e-9);
  std::printf("  int8-path : %8.2f GOP/s\n",
              flops_total / i8_path_total_s * 1e-9);
  std::printf("  blocked vs naive   : %6.2fx\n",
              naive_total_s / blocked_total_s);
  std::printf("  int8-gemm vs blocked: %6.2fx\n", blocked_total_s / i8_total_s);
  std::printf("  int8-path vs blocked: %6.2fx\n",
              blocked_total_s / i8_path_total_s);
  std::printf("  int8-path phases (weighted): quantize+pack %.1f%%, gemm "
              "%.1f%%, requantize %.1f%%\n",
              100.0 * quant_total_s / i8_path_total_s,
              100.0 * gemm_total_s / i8_path_total_s,
              100.0 * req_total_s / i8_path_total_s);

  std::printf("\nconv-fwd (Conv2d::forward on the first conv of each shape, "
              "batch 1, weighted):\n");
  std::printf("  fp32        : %8.3f ms per forward, %8.2f GFLOP/s  "
              "(gather %.1f%%, rest %.1f%%)\n",
              fwd_f32_s * 1e3, flops_total / fwd_f32_s * 1e-9,
              100.0 * gather_f32_s / fwd_f32_s,
              100.0 * (fwd_f32_s - gather_f32_s) / fwd_f32_s);
  const double other_i8_s =
      fwd_i8_s - gather_i8_s - pack_i8_s - gemm_i8_s - req_i8_s;
  std::printf("  static int8 : %8.3f ms per forward, %8.2f GOP/s    "
              "(gather %.1f%%, quantize+pack %.1f%%, gemm %.1f%%, "
              "requantize %.1f%%, other %.1f%%)\n",
              fwd_i8_s * 1e3, flops_total / fwd_i8_s * 1e-9,
              100.0 * gather_i8_s / fwd_i8_s, 100.0 * pack_i8_s / fwd_i8_s,
              100.0 * gemm_i8_s / fwd_i8_s, 100.0 * req_i8_s / fwd_i8_s,
              100.0 * other_i8_s / fwd_i8_s);
  std::printf("  int8 vs fp32: %6.2fx\n", fwd_f32_s / fwd_i8_s);
  return 0;
}
