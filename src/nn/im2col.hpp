// The im2col gather shared by every Conv2d path.
//
// A k x k convolution over `channels` input planes is a GEMM against the
// column matrix col[(c*k + kh)*k + kw, oh*w_out + ow] =
// in[c, oh*stride - padding + kh, ow*stride - padding + kw], with zero taps
// where the kernel overhangs the padded edge. Im2col precomputes, per kernel
// column kw, the span [ow_lo, ow_hi) of output columns whose tap lands inside
// the input row; a gather then splits its column range into runs that lie in
// one output row (one division per call, not per element), zero-fills each
// run's padded ends and copies the interior branch-free — contiguous at
// stride 1, strided otherwise. The fp32 and fp16/bf16 forwards gather the
// whole matrix, the INT8 forward gathers kNR-column tiles straight into its
// packed panels, and backward gathers and scatters with the same spans.
#pragma once

#include <cstdint>
#include <vector>

namespace pfi::nn {

class Im2col {
 public:
  /// Geometry of one (sample, group) slice: `channels` consecutive planes
  /// of h_in x w_in. The output size must be positive (Conv2d checks it).
  Im2col(std::int64_t channels, std::int64_t h_in, std::int64_t w_in,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding);

  std::int64_t h_out() const { return h_out_; }
  std::int64_t w_out() const { return w_out_; }
  /// Column-matrix shape: channels * k * k rows by h_out * w_out columns.
  std::int64_t rows() const { return channels_ * k_ * k_; }
  std::int64_t cols() const { return h_out_ * w_out_; }

  /// Write columns [col0, col0 + ncols) of the column matrix of `src` (the
  /// slice's first plane) into `dst` with row stride `ld`:
  /// dst[r*ld + c] = col(r, col0 + c). Padding taps are +0.0f.
  void gather(const float* src, std::int64_t col0, std::int64_t ncols,
              float* dst, std::int64_t ld) const;

  /// The adjoint of a full gather: add every in-bounds entry of the
  /// rows() x cols() matrix `col` (row stride cols()) back into the input
  /// position it was gathered from. Each input element receives its
  /// contributions in row order, so the sums are deterministic.
  void scatter_add(const float* col, float* dst) const;

 private:
  std::int64_t channels_, h_in_, w_in_, k_, s_, p_, h_out_, w_out_;
  // Per kernel column kw: output columns ow in [ow_lo_[kw], ow_hi_[kw]) tap
  // input column ow*s - p + kw inside [0, w_in).
  std::vector<std::int64_t> ow_lo_, ow_hi_;
};

}  // namespace pfi::nn
