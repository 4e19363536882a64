#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace pfi::nn {
namespace {

// ceil(x / s) for the span bounds, clamped into [0, w_out].
std::int64_t span_bound(std::int64_t x, std::int64_t s, std::int64_t w_out) {
  if (x <= 0) return 0;
  return std::min((x + s - 1) / s, w_out);
}

// Short runs dominate (a streamed tile is 16 columns), so copies and fills
// use fixed 8- and 4-float blocks, the last one overlapping, instead of a
// library call per run. Both return d + n.
float* copy_run(float* d, const float* s, std::int64_t n) {
  if (n >= 8) {
    for (std::int64_t i = 0; i + 8 <= n; i += 8) std::memcpy(d + i, s + i, 32);
    std::memcpy(d + n - 8, s + n - 8, 32);
  } else if (n >= 4) {
    std::memcpy(d, s, 16);
    std::memcpy(d + n - 4, s + n - 4, 16);
  } else {
    if (n > 0) d[0] = s[0];
    if (n > 1) d[1] = s[1];
    if (n > 2) d[2] = s[2];
  }
  return d + n;
}

float* zero_run(float* d, std::int64_t n) {
  if (n >= 8) {
    for (std::int64_t i = 0; i + 8 <= n; i += 8) std::memset(d + i, 0, 32);
    std::memset(d + n - 8, 0, 32);
  } else if (n >= 4) {
    std::memset(d, 0, 16);
    std::memset(d + n - 4, 0, 16);
  } else {
    if (n > 0) d[0] = 0.0f;
    if (n > 1) d[1] = 0.0f;
    if (n > 2) d[2] = 0.0f;
  }
  return d + n;
}

}  // namespace

Im2col::Im2col(std::int64_t channels, std::int64_t h_in, std::int64_t w_in,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding)
    : channels_(channels),
      h_in_(h_in),
      w_in_(w_in),
      k_(kernel),
      s_(stride),
      p_(padding) {
  PFI_CHECK(channels > 0 && kernel > 0 && stride > 0 && padding >= 0 &&
            h_in + 2 * padding >= kernel && w_in + 2 * padding >= kernel)
      << "Im2col geometry invalid: c=" << channels << " " << h_in << "x"
      << w_in << " k=" << kernel << " s=" << stride << " p=" << padding;
  h_out_ = (h_in + 2 * padding - kernel) / stride + 1;
  w_out_ = (w_in + 2 * padding - kernel) / stride + 1;
  ow_lo_.resize(static_cast<std::size_t>(k_));
  ow_hi_.resize(static_cast<std::size_t>(k_));
  for (std::int64_t kw = 0; kw < k_; ++kw) {
    // First ow with ow*s - p + kw >= 0, first ow with it >= w_in.
    const std::int64_t lo = span_bound(p_ - kw, s_, w_out_);
    const std::int64_t hi = span_bound(w_in_ + p_ - kw, s_, w_out_);
    ow_lo_[static_cast<std::size_t>(kw)] = lo;
    ow_hi_[static_cast<std::size_t>(kw)] = std::max(lo, hi);
  }
}

void Im2col::gather(const float* src, std::int64_t col0, std::int64_t ncols,
                    float* dst, std::int64_t ld) const {
  const std::int64_t oh0 = col0 / w_out_, ow0 = col0 % w_out_;
  const std::int64_t plane = h_in_ * w_in_;
  float* drow = dst;
  for (std::int64_t c = 0; c < channels_; ++c) {
    for (std::int64_t kh = 0; kh < k_; ++kh) {
      for (std::int64_t kw = 0; kw < k_; ++kw, drow += ld) {
        const std::int64_t lo = ow_lo_[static_cast<std::size_t>(kw)];
        const std::int64_t hi = ow_hi_[static_cast<std::size_t>(kw)];
        // Output column ow taps src[base + ih*w_in + ow*s]; only in-span
        // offsets are ever formed into pointers.
        const std::int64_t base = c * plane + kw - p_;
        float* d = drow;
        std::int64_t ih = oh0 * s_ - p_ + kh;
        std::int64_t a = ow0;
        for (std::int64_t left = ncols; left > 0; ih += s_, a = 0) {
          // One run: output columns [a, b) of one output row.
          const std::int64_t b = std::min(w_out_, a + left);
          left -= b - a;
          if (ih < 0 || ih >= h_in_) {
            d = zero_run(d, b - a);
            continue;
          }
          const std::int64_t vlo = std::clamp(lo, a, b);
          const std::int64_t vhi = std::clamp(hi, vlo, b);
          d = zero_run(d, vlo - a);
          if (vhi > vlo) {
            const float* sp = src + (base + ih * w_in_ + vlo * s_);
            if (s_ == 1) {
              d = copy_run(d, sp, vhi - vlo);
            } else {
              for (std::int64_t i = 0; i < vhi - vlo; ++i) *d++ = sp[i * s_];
            }
          }
          d = zero_run(d, b - vhi);
        }
      }
    }
  }
}

void Im2col::scatter_add(const float* col, float* dst) const {
  const std::int64_t plane = h_in_ * w_in_;
  const std::int64_t spatial = cols();
  const float* crow = col;
  for (std::int64_t c = 0; c < channels_; ++c) {
    for (std::int64_t kh = 0; kh < k_; ++kh) {
      for (std::int64_t kw = 0; kw < k_; ++kw, crow += spatial) {
        const std::int64_t lo = ow_lo_[static_cast<std::size_t>(kw)];
        const std::int64_t hi = ow_hi_[static_cast<std::size_t>(kw)];
        const std::int64_t base = c * plane + kw - p_;
        for (std::int64_t oh = 0; oh < h_out_; ++oh) {
          const std::int64_t ih = oh * s_ - p_ + kh;
          if (ih < 0 || ih >= h_in_) continue;
          const std::int64_t at = base + ih * w_in_;
          const float* run = crow + oh * w_out_;
          for (std::int64_t ow = lo; ow < hi; ++ow) dst[at + ow * s_] += run[ow];
        }
      }
    }
  }
}

}  // namespace pfi::nn
