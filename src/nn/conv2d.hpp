// 2-D convolution with stride, zero padding, and groups.
//
// Convolutions are the layer class the paper instruments: "PyTorchFI allows
// users to perform neural network perturbations in weights and/or neurons in
// convolutional operations of DNNs during execution" (Sec. I). Groups are
// supported because the Fig. 3 model zoo includes grouped (ResNeXt) and
// depthwise (MobileNet) convolutions.
//
// Implementation: im2col + GEMM per (sample, group), routed through
// pfi::kernels (cache-blocked, register-tiled, deterministic at any thread
// count; see kernels/kernels.hpp). Every path feeds its GEMM from one gather,
// nn::Im2col (nn/im2col.hpp), built once per forward: it splits a column
// range into runs within one output row, clips each kernel column to its
// precomputed in-bounds span, zero-fills the padded ends and copies the
// interior without per-element division or bounds tests. The fp32 and
// fp16/bf16 forwards gather the whole column matrix per (sample, group); the
// INT8 forward gathers kNR-column tiles straight into the packed INT8 panels
// (kernels::quantize_pack_b_i8_stream), so its column matrix is never
// materialized. The packed weight panels the blocked GEMM consumes are
// cached per group and invalidated on weight mutation — the FaultInjector's
// weight injection/restore paths call invalidate_weight_packs(), and a
// digest of the weight bits (kernels::pack_digest, 8 parallel FNV-1a lanes)
// re-checked on every forward catches mutation through tensor aliases.
// Backward re-gathers the column matrix rather than caching it, trading
// FLOPs for memory, and scatters its gradient back through the same spans
// (Im2col::scatter_add).
#pragma once

#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "nn/im2col.hpp"
#include "nn/module.hpp"
#include "util/rng.hpp"

namespace pfi::nn {

/// Convolution hyperparameters.
struct Conv2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t groups = 1;
  bool bias = true;
};

class Conv2d final : public Module {
 public:
  Conv2d(Conv2dOptions opts, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::string kind() const override { return "Conv2d"; }
  std::shared_ptr<Module> clone_structure() const override {
    Rng rng(0);  // throwaway init; clone_model overwrites the parameters
    return std::make_shared<Conv2d>(opts_, rng);
  }
  std::vector<Parameter*> local_parameters() override;

  const Conv2dOptions& options() const { return opts_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return opts_.bias; }

  /// Output spatial size for a given input spatial size.
  std::int64_t out_size(std::int64_t in) const {
    return (in + 2 * opts_.padding - opts_.kernel) / opts_.stride + 1;
  }

  /// Drop the cached packed-weight panels. Call after mutating the weight
  /// tensor (weight injection, restore) so repeated forwards never consume a
  /// stale pack; forwards also verify a weight digest, so this is an
  /// eager-release hook, not the only line of defense.
  void invalidate_weight_packs() {
    for (auto& p : packed_) p.invalidate();
    for (auto& p : lowp_packed_) p.invalidate();
  }

  /// Switch the forward path to a native low-precision representation.
  /// kInt8 runs im2col -> per-tensor dynamic activation quantization ->
  /// integer GEMM against per-output-channel-quantized weights -> fp32
  /// requantize; kFp16/kBf16 store weights and activations as 16-bit codes
  /// widened on the fly into the fp32 kernels. `out_channel_scales`
  /// optionally freezes the per-channel weight scales (the FaultInjector
  /// passes golden-calibrated scales so a weight fault flips exactly one
  /// deployed code without re-calibrating the channel); empty means
  /// calibrate lazily from the current weights at first pack. Backward is
  /// unchanged (fp32) — campaigns only run inference.
  void set_native_dtype(kernels::LowPrec native,
                        std::vector<float> out_channel_scales = {});
  kernels::LowPrec native_dtype() const { return native_; }
  /// Per-output-channel weight scales of the native INT8 path (empty until
  /// set or first lazily-calibrated forward).
  const std::vector<float>& native_scales() const { return native_scales_; }

  /// Freeze the INT8 activation scales (static calibration,
  /// quant::StaticActQuant): `in_scale` quantizes the im2col operand —
  /// eliminating the per-forward absmax pass — and `out_scale` is the grid
  /// the fused epilogue re-quantizes the output onto, so the boundary
  /// carries exactly int8 information (requantize_rows_grid). Scales must
  /// be finite and positive; clear_static_act() returns to dynamic
  /// per-forward calibration.
  void set_static_act(float in_scale, float out_scale);
  void clear_static_act() { static_act_ = false; }
  bool has_static_act() const { return static_act_; }
  float static_in_scale() const { return static_in_scale_; }
  float static_out_scale() const { return static_out_scale_; }

  /// nn::fuse_relu marks this conv as immediately followed by a ReLU. The
  /// rectification then runs inside the GEMM epilogue when the gate in
  /// relu_fused_output() is open; the downstream ReLU becomes a
  /// passthrough.
  void set_fuse_relu(bool on) { fuse_relu_ = on; }
  bool fuse_relu() const { return fuse_relu_; }
  /// Gate, re-evaluated per forward: fp32 fuses only when no forward hook
  /// observes the pre-activation; the static-INT8 path fuses
  /// unconditionally (the hook's injection domain IS the post-ReLU
  /// resident codes — see FaultInjector). Dynamic INT8 and fp16/bf16 never
  /// fuse.
  bool relu_fused_output() const override {
    if (!fuse_relu_ || training_) return false;
    if (native_ == kernels::LowPrec::kInt8) return static_act_;
    return native_ == kernels::LowPrec::kNone && forward_hook_count() == 0;
  }

 private:
  /// The gather for this conv over `input`'s spatial size (one group's
  /// channels); built once per forward and shared by every (sample, group).
  Im2col im2col_for(const Tensor& input) const;
  /// Flat offset of sample `n`'s group-`group` channel slice in an NCHW
  /// tensor of this conv's input shape.
  std::int64_t slice_offset(const Tensor& input, std::int64_t n,
                            std::int64_t group) const;

  Tensor forward_int8(const Tensor& input, std::int64_t h_out,
                      std::int64_t w_out);
  Tensor forward_16(const Tensor& input, std::int64_t h_out,
                    std::int64_t w_out);

  Conv2dOptions opts_;
  Parameter weight_;  // [out_channels, in_channels/groups, k, k]
  Parameter bias_;    // [out_channels]
  Tensor cached_input_;
  // Packed weight panels for the blocked GEMM, one cache per group.
  std::vector<kernels::WeightPackCache> packed_;
  // Native low-precision state: quantized/16-bit pack caches (one per
  // group) and the frozen per-output-channel INT8 scales.
  kernels::LowPrec native_ = kernels::LowPrec::kNone;
  std::vector<float> native_scales_;
  std::vector<kernels::LowPrecPackCache> lowp_packed_;
  // Static activation calibration + ReLU fusion state.
  bool static_act_ = false;
  float static_in_scale_ = 0.0f;
  float static_out_scale_ = 0.0f;
  bool fuse_relu_ = false;
};

}  // namespace pfi::nn
