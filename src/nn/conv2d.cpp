#include "nn/conv2d.hpp"

#include <cmath>

#include "nn/init.hpp"

namespace pfi::nn {

Conv2d::Conv2d(Conv2dOptions opts, Rng& rng) : opts_(opts) {
  PFI_CHECK(opts_.in_channels > 0 && opts_.out_channels > 0)
      << "Conv2d channels must be positive";
  PFI_CHECK(opts_.kernel > 0 && opts_.stride > 0 && opts_.padding >= 0)
      << "Conv2d geometry invalid: k=" << opts_.kernel << " s=" << opts_.stride
      << " p=" << opts_.padding;
  PFI_CHECK(opts_.groups > 0 && opts_.in_channels % opts_.groups == 0 &&
            opts_.out_channels % opts_.groups == 0)
      << "Conv2d groups=" << opts_.groups << " must divide in="
      << opts_.in_channels << " and out=" << opts_.out_channels;

  packed_.resize(static_cast<std::size_t>(opts_.groups));
  const auto cin_g = opts_.in_channels / opts_.groups;
  weight_.name = "weight";
  weight_.value =
      Tensor({opts_.out_channels, cin_g, opts_.kernel, opts_.kernel});
  weight_.grad = Tensor(weight_.value.shape());
  kaiming_normal_(weight_.value, cin_g * opts_.kernel * opts_.kernel, rng);
  if (opts_.bias) {
    bias_.name = "bias";
    bias_.value = Tensor({opts_.out_channels});
    bias_.grad = Tensor({opts_.out_channels});
  }
}

std::vector<Parameter*> Conv2d::local_parameters() {
  std::vector<Parameter*> out{&weight_};
  if (opts_.bias) out.push_back(&bias_);
  return out;
}

void Conv2d::set_native_dtype(kernels::LowPrec native,
                              std::vector<float> out_channel_scales) {
  PFI_CHECK(out_channel_scales.empty() || native == kernels::LowPrec::kInt8)
      << kind() << "::set_native_dtype: channel scales only apply to kInt8";
  PFI_CHECK(out_channel_scales.empty() ||
            out_channel_scales.size() ==
                static_cast<std::size_t>(opts_.out_channels))
      << kind() << "::set_native_dtype: got " << out_channel_scales.size()
      << " channel scales for " << opts_.out_channels << " output channels";
  for (const float s : out_channel_scales) {
    PFI_CHECK(std::isfinite(s) && s > 0.0f)
        << kind() << "::set_native_dtype: channel scale " << s
        << " must be finite and positive";
  }
  native_ = native;
  native_scales_ = std::move(out_channel_scales);
  for (auto& p : lowp_packed_) p.invalidate();
}

void Conv2d::set_static_act(float in_scale, float out_scale) {
  PFI_CHECK(std::isfinite(in_scale) && in_scale > 0.0f &&
            std::isfinite(out_scale) && out_scale > 0.0f)
      << kind() << "::set_static_act: scales in=" << in_scale
      << " out=" << out_scale << " must be finite and positive";
  static_act_ = true;
  static_in_scale_ = in_scale;
  static_out_scale_ = out_scale;
}

Im2col Conv2d::im2col_for(const Tensor& input) const {
  return Im2col(opts_.in_channels / opts_.groups, input.size(2), input.size(3),
                opts_.kernel, opts_.stride, opts_.padding);
}

std::int64_t Conv2d::slice_offset(const Tensor& input, std::int64_t n,
                                  std::int64_t group) const {
  const auto cin_g = opts_.in_channels / opts_.groups;
  return (n * opts_.in_channels + group * cin_g) * input.size(2) *
         input.size(3);
}

Tensor Conv2d::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 4) << kind() << " expects NCHW, got "
                              << input.to_string();
  PFI_CHECK(input.size(1) == opts_.in_channels)
      << kind() << " expects " << opts_.in_channels << " channels, got "
      << input.to_string();
  const auto n_batch = input.size(0);
  const auto h_out = out_size(input.size(2));
  const auto w_out = out_size(input.size(3));
  PFI_CHECK(h_out > 0 && w_out > 0)
      << kind() << " output would be empty for input " << input.to_string();

  cached_input_ = input;
  if (native_ == kernels::LowPrec::kInt8) {
    return forward_int8(input, h_out, w_out);
  }
  if (native_ != kernels::LowPrec::kNone) {
    return forward_16(input, h_out, w_out);
  }
  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;

  const auto spatial = h_out * w_out;
  const Im2col im2col = im2col_for(input);
  const float* in = input.data().data();
  Tensor output({n_batch, opts_.out_channels, h_out, w_out});
  Tensor col({col_rows, spatial});
  // Weight viewed per group as [cout_g, col_rows]: the GEMM's A operand.
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  const bool blocked = kernels::active_impl() == kernels::Impl::kBlocked;
  // Fused conv->ReLU fast path: when the gate is open (no forward hook
  // needs the pre-activation, eval mode) the GEMM epilogue rectifies the
  // finished tiles and the downstream ReLU passes through — bit-identical
  // to the unfused pair (kernels.hpp, kReluZero).
  const bool fuse = relu_fused_output();
  const auto epilogue =
      opts_.bias
          ? (fuse ? kernels::Epilogue::kReluBiasRow : kernels::Epilogue::kBiasRow)
          : (fuse ? kernels::Epilogue::kReluZero : kernels::Epilogue::kZero);

  // Group-outer so the packed weight panels are looked up once per group
  // (cache hit: a fingerprint check; miss: one repack) and reused across the
  // batch.
  for (std::int64_t grp = 0; grp < g; ++grp) {
    const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
    const float* bp =
        opts_.bias ? bias_.value.data().data() + grp * cout_g : nullptr;
    const kernels::PackedPanels* pa = nullptr;
    if (blocked) {
      pa = &packed_[static_cast<std::size_t>(grp)].packed_a(
          cout_g, col_rows, wp, col_rows, false);
    }
    for (std::int64_t n = 0; n < n_batch; ++n) {
      im2col.gather(in + slice_offset(input, n, grp), 0, spatial,
                    col.data().data(), spatial);
      auto* op = output.data().data() +
                 (n * opts_.out_channels + grp * cout_g) * spatial;
      if (blocked) {
        kernels::gemm_prepacked_a(cout_g, spatial, col_rows, *pa,
                                  col.data().data(), spatial, false, op,
                                  spatial, epilogue, bp);
      } else {
        kernels::naive_gemm(cout_g, spatial, col_rows, wp, col_rows, false,
                            col.data().data(), spatial, false, op, spatial,
                            epilogue, bp);
      }
    }
  }
  return output;
}

// Native INT8 forward: weights carry frozen per-output-channel symmetric
// scales (golden-calibrated by the injector, or lazily calibrated here on
// first use); the im2col operand is quantized with either one dynamic
// per-tensor scale per (sample, group) or the frozen static input scale,
// and streamed tile-by-tile straight into the packed panels — the full
// col_rows x spatial column matrix is never materialized. The integer
// GEMM's exact i32 accumulators are requantized as fma(sw[oc] * sa, acc,
// bias[oc]); under static calibration the result is immediately re-quantized
// onto the frozen output grid (optionally rectified on codes — the fused
// conv->ReLU boundary), so chains of static layers carry exactly int8
// information. Everything downstream of the quantizers is integer
// arithmetic, so the output is bit-identical at any thread count, block
// config, or INT8 ISA.
Tensor Conv2d::forward_int8(const Tensor& input, std::int64_t h_out,
                            std::int64_t w_out) {
  const auto n_batch = input.size(0);
  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;
  const auto spatial = h_out * w_out;

  Tensor output({n_batch, opts_.out_channels, h_out, w_out});
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  if (lowp_packed_.size() != static_cast<std::size_t>(g)) {
    lowp_packed_.resize(static_cast<std::size_t>(g));
  }
  if (native_scales_.empty()) {
    native_scales_ = kernels::per_row_scales_i8(
        opts_.out_channels, col_rows, w_mat.data().data(), col_rows, false);
  }
  const bool fuse = relu_fused_output();
  const Im2col im2col = im2col_for(input);
  const float* in = input.data().data();

  std::vector<std::int32_t> acc(static_cast<std::size_t>(cout_g * spatial));
  kernels::PackedPanelsI8 colq;
  for (std::int64_t grp = 0; grp < g; ++grp) {
    const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
    const float* bp =
        opts_.bias ? bias_.value.data().data() + grp * cout_g : nullptr;
    const auto& pa =
        lowp_packed_[static_cast<std::size_t>(grp)].packed_a_i8(
            cout_g, col_rows, wp, col_rows, false,
            native_scales_.data() + grp * cout_g);
    for (std::int64_t n = 0; n < n_batch; ++n) {
      const float* slice = in + slice_offset(input, n, grp);
      const kernels::BTileFn tile = [&](std::int64_t col0, int w, float* dst) {
        im2col.gather(slice, col0, w, dst, w);
      };
      // Dynamic calibration pays one extra streaming pass for the absmax;
      // static calibration skips it entirely — that pass is the cost the
      // frozen scales exist to eliminate.
      const float in_scale =
          static_act_
              ? static_in_scale_
              : kernels::scale_from_absmax(
                    kernels::finite_absmax_stream(col_rows, spatial, tile));
      kernels::quantize_pack_b_i8_stream(col_rows, spatial, in_scale, tile,
                                         colq);
      kernels::gemm_i8(cout_g, spatial, col_rows, pa, colq, acc.data(),
                       spatial);
      auto* op = output.data().data() +
                 (n * opts_.out_channels + grp * cout_g) * spatial;
      if (static_act_) {
        kernels::requantize_rows_grid(cout_g, spatial, acc.data(), spatial,
                                      pa.scale.data(), in_scale, bp,
                                      static_out_scale_, fuse, op, spatial);
      } else {
        kernels::requantize_rows(cout_g, spatial, acc.data(), spatial,
                                 pa.scale.data(), in_scale, bp, op, spatial);
      }
    }
  }
  return output;
}

// Native fp16/bf16 forward: weights, activations, and bias are stored as
// 16-bit codes and widened (exactly) into the fp32 blocked kernels, so the
// result equals the fp32 GEMM over pre-narrowed operands and inherits the
// fp32 determinism guarantees.
Tensor Conv2d::forward_16(const Tensor& input, std::int64_t h_out,
                          std::int64_t w_out) {
  const auto fmt = native_ == kernels::LowPrec::kFp16
                       ? kernels::Storage16::kFp16
                       : kernels::Storage16::kBf16;
  const auto n_batch = input.size(0);
  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;
  const auto spatial = h_out * w_out;

  const Im2col im2col = im2col_for(input);
  const float* in = input.data().data();
  Tensor output({n_batch, opts_.out_channels, h_out, w_out});
  Tensor col({col_rows, spatial});
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  if (lowp_packed_.size() != static_cast<std::size_t>(g)) {
    lowp_packed_.resize(static_cast<std::size_t>(g));
  }
  const auto epilogue =
      opts_.bias ? kernels::Epilogue::kBiasRow : kernels::Epilogue::kZero;

  kernels::PackedPanels wa;
  std::vector<std::uint16_t> codes;
  std::vector<float> colw;
  std::vector<float> bias_w(static_cast<std::size_t>(opts_.bias ? cout_g : 0));
  for (std::int64_t grp = 0; grp < g; ++grp) {
    const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
    const auto& ph = lowp_packed_[static_cast<std::size_t>(grp)].packed_a_16(
        cout_g, col_rows, wp, col_rows, false, fmt);
    kernels::widen_pack(ph, wa);
    if (opts_.bias) {
      const float* bp = bias_.value.data().data() + grp * cout_g;
      for (std::int64_t i = 0; i < cout_g; ++i) {
        bias_w[static_cast<std::size_t>(i)] =
            kernels::widen16(kernels::narrow16(bp[i], fmt), fmt);
      }
    }
    for (std::int64_t n = 0; n < n_batch; ++n) {
      im2col.gather(in + slice_offset(input, n, grp), 0, spatial,
                    col.data().data(), spatial);
      kernels::narrow_buffer(col.data().data(), col_rows * spatial, fmt,
                             codes);
      kernels::widen_buffer(codes.data(), col_rows * spatial, fmt, colw);
      auto* op = output.data().data() +
                 (n * opts_.out_channels + grp * cout_g) * spatial;
      kernels::gemm_prepacked_a(cout_g, spatial, col_rows, wa, colw.data(),
                                spatial, false, op, spatial, epilogue,
                                opts_.bias ? bias_w.data() : nullptr);
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_input_.defined())
      << kind() << "::backward without a preceding forward";
  const Tensor& input = cached_input_;
  const auto n_batch = input.size(0);
  const auto h_out = grad_output.size(2);
  const auto w_out = grad_output.size(3);
  PFI_CHECK(grad_output.size(0) == n_batch &&
            grad_output.size(1) == opts_.out_channels)
      << kind() << "::backward grad shape " << grad_output.to_string();

  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;
  const auto spatial = h_out * w_out;

  const Im2col im2col = im2col_for(input);
  PFI_CHECK(im2col.h_out() == h_out && im2col.w_out() == w_out)
      << kind() << "::backward grad shape " << grad_output.to_string()
      << " does not match the forward input " << input.to_string();
  Tensor grad_input(input.shape());
  Tensor col({col_rows, spatial});
  Tensor grad_col({col_rows, spatial});
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  Tensor gw_mat = weight_.grad.reshape({opts_.out_channels, col_rows});

  for (std::int64_t n = 0; n < n_batch; ++n) {
    for (std::int64_t grp = 0; grp < g; ++grp) {
      const auto slice = slice_offset(input, n, grp);
      im2col.gather(input.data().data() + slice, 0, spatial, col.data().data(),
                    spatial);
      const auto* go = grad_output.data().data() +
                       (n * opts_.out_channels + grp * cout_g) * spatial;
      const auto* cp = col.data().data();
      const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
      auto* gwp = gw_mat.data().data() + grp * cout_g * col_rows;

      // grad_weight += grad_out x col^T (GEMM-T: B is the transposed column
      // matrix); grad_bias += sum(grad_out).
      kernels::gemm(cout_g, col_rows, spatial, go, spatial, false, cp, spatial,
                    true, gwp, col_rows, kernels::Epilogue::kAccumulate);
      if (opts_.bias) {
        for (std::int64_t oc = 0; oc < cout_g; ++oc) {
          const float* grow = go + oc * spatial;
          float acc = 0.0f;
          for (std::int64_t j = 0; j < spatial; ++j) acc += grow[j];
          bias_.grad[grp * cout_g + oc] += acc;
        }
      }

      // grad_col = W^T x grad_out, then scatter back to grad_input.
      auto* gcp = grad_col.data().data();
      kernels::gemm(col_rows, spatial, cout_g, wp, col_rows, true, go, spatial,
                    false, gcp, spatial, kernels::Epilogue::kZero);
      im2col.scatter_add(gcp, grad_input.data().data() + slice);
    }
  }
  return grad_input;
}

}  // namespace pfi::nn
