// Differential tests for nn::Im2col, the gather every Conv2d path feeds its
// GEMM from.
//
// The gather must reproduce, bit for bit, the naive per-element definition
//   col[(c*k + kh)*k + kw, oh*w_out + ow] =
//       in[c, oh*s - p + kh, ow*s - p + kw]   (0.0f outside the input)
// over the whole column matrix (fp32/fp16/bf16 forwards, backward) and over
// every kNR-column tile the INT8 forward streams into its packed panels. The
// geometry matrix targets what square-input conv sweeps miss: h != w,
// w_out < kNR (a tile spans several output rows), w_out a multiple of kNR
// and not, ragged last panels, padding >= kernel (kernel rows that see only
// padding), stride > kernel, grouped and depthwise slices, and the 1x1
// stride-2 shortcut. Every destination buffer is sized exactly, so an
// out-of-bounds write or read is an AddressSanitizer report.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace pfi::nn {
namespace {

struct Geometry {
  std::int64_t cin_g, groups, h, w, k, s, p;
};

std::string describe(const Geometry& g) {
  return "cin_g=" + std::to_string(g.cin_g) + " groups=" +
         std::to_string(g.groups) + " " + std::to_string(g.h) + "x" +
         std::to_string(g.w) + " k=" + std::to_string(g.k) + " s=" +
         std::to_string(g.s) + " p=" + std::to_string(g.p);
}

const std::vector<Geometry>& geometries() {
  static const std::vector<Geometry> all = {
      {3, 1, 5, 9, 3, 1, 1},     // h != w, w_out = 9 < kNR
      {2, 1, 7, 4, 3, 1, 1},     // w_out = 4: a tile spans four rows
      {2, 1, 6, 32, 3, 1, 1},    // w_out = 32, a multiple of kNR
      {2, 1, 5, 20, 3, 1, 1},    // w_out = 20, not a multiple
      {2, 1, 3, 11, 3, 1, 0},    // spatial 9: one ragged panel only
      {2, 1, 4, 3, 2, 1, 3},     // padding > kernel: all-padding rows/cols
      {1, 1, 3, 5, 1, 1, 2},     // 1x1 with padding 2: padded border only
      {2, 1, 2, 2, 3, 1, 3},     // padding = kernel on a 2x2 input
      {2, 1, 11, 13, 2, 3, 0},   // stride > kernel
      {2, 1, 9, 10, 1, 3, 1},    // 1x1, stride 3, padded
      {4, 2, 6, 7, 3, 2, 1},     // grouped, stride 2, odd sizes
      {1, 6, 8, 5, 3, 1, 1},     // depthwise
      {1, 4, 9, 6, 3, 2, 1},     // depthwise, stride 2
      {4, 1, 8, 8, 1, 2, 0},     // 1x1 stride-2 shortcut
      {3, 1, 7, 9, 1, 2, 0},     // 1x1 stride-2 shortcut, odd sizes
      {2, 1, 13, 6, 5, 2, 2},    // 5x5 stride 2
      {3, 1, 16, 12, 7, 2, 3},   // 7x7 stride-2 stem
      {2, 1, 1, 40, 3, 1, 1},    // one input row, w_out = 40
      {2, 2, 34, 17, 3, 1, 1},   // w_out = 17: panels straddle every row
  };
  return all;
}

/// Restores the GEMM implementation a test selects.
class KernelsIm2col : public ::testing::Test {
 protected:
  void TearDown() override { kernels::set_impl(kernels::Impl::kBlocked); }
};

Im2col make(const Geometry& g) {
  return Im2col(g.cin_g, g.h, g.w, g.k, g.s, g.p);
}

/// Naive per-element reference: column (row, j) of `slice`.
float reference(const Geometry& g, const Im2col& im, const float* slice,
                std::int64_t row, std::int64_t j) {
  const std::int64_t c = row / (g.k * g.k);
  const std::int64_t kh = row / g.k % g.k, kw = row % g.k;
  const std::int64_t oh = j / im.w_out(), ow = j % im.w_out();
  const std::int64_t ih = oh * g.s - g.p + kh, iw = ow * g.s - g.p + kw;
  if (ih < 0 || ih >= g.h || iw < 0 || iw >= g.w) return 0.0f;
  return slice[(c * g.h + ih) * g.w + iw];
}

std::vector<float> random_input(const Geometry& g, std::int64_t batch,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(
      static_cast<std::size_t>(batch * g.groups * g.cin_g * g.h * g.w));
  for (auto& x : v) x = rng.uniform(-3.0f, 3.0f);
  return v;
}

const float* slice_of(const Geometry& g, const std::vector<float>& in,
                      std::int64_t n, std::int64_t grp) {
  return in.data() + (n * g.groups + grp) * g.cin_g * g.h * g.w;
}

/// Bitwise comparison of gathered columns [col0, col0 + ncols) in `got`
/// (row stride ld) against the reference.
void expect_block(const Geometry& g, const Im2col& im, const float* slice,
                  std::int64_t col0, std::int64_t ncols,
                  const std::vector<float>& got, std::int64_t ld,
                  const std::string& where) {
  for (std::int64_t r = 0; r < im.rows(); ++r) {
    for (std::int64_t c = 0; c < ncols; ++c) {
      const float want = reference(g, im, slice, r, col0 + c);
      const float have = got[static_cast<std::size_t>(r * ld + c)];
      ASSERT_EQ(float_to_bits(have), float_to_bits(want))
          << where << " row " << r << " col " << col0 + c << ": got " << have
          << ", want " << want;
    }
  }
}

TEST_F(KernelsIm2col, SpansMatchTheOutputSize) {
  for (const Geometry& g : geometries()) {
    const Im2col im = make(g);
    EXPECT_EQ(im.h_out(), (g.h + 2 * g.p - g.k) / g.s + 1) << describe(g);
    EXPECT_EQ(im.w_out(), (g.w + 2 * g.p - g.k) / g.s + 1) << describe(g);
    EXPECT_EQ(im.rows(), g.cin_g * g.k * g.k);
    EXPECT_EQ(im.cols(), im.h_out() * im.w_out());
  }
  EXPECT_THROW(Im2col(1, 2, 2, 5, 1, 1), Error);  // empty output
  EXPECT_THROW(Im2col(1, 4, 4, 3, 0, 1), Error);  // zero stride
}

TEST_F(KernelsIm2col, FullGatherMatchesNaiveReference) {
  for (const Geometry& g : geometries()) {
    const Im2col im = make(g);
    const auto in = random_input(g, 2, 7);
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t grp = 0; grp < g.groups; ++grp) {
        // NaN-filled so any column the gather skips fails the comparison.
        std::vector<float> col(static_cast<std::size_t>(im.rows() * im.cols()),
                               std::numeric_limits<float>::quiet_NaN());
        im.gather(slice_of(g, in, n, grp), 0, im.cols(), col.data(),
                  im.cols());
        expect_block(g, im, slice_of(g, in, n, grp), 0, im.cols(), col,
                     im.cols(),
                     describe(g) + " n=" + std::to_string(n) + " group=" +
                         std::to_string(grp));
      }
    }
  }
}

TEST_F(KernelsIm2col, EveryStreamedTileMatchesNaiveReference) {
  using kernels::kNR;
  for (const Geometry& g : geometries()) {
    const Im2col im = make(g);
    const auto in = random_input(g, 1, 8);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      const float* slice = slice_of(g, in, 0, grp);
      for (std::int64_t col0 = 0; col0 < im.cols(); col0 += kNR) {
        const std::int64_t w = std::min<std::int64_t>(kNR, im.cols() - col0);
        std::vector<float> tile(static_cast<std::size_t>(im.rows() * w),
                                std::numeric_limits<float>::quiet_NaN());
        im.gather(slice, col0, w, tile.data(), w);
        expect_block(g, im, slice, col0, w, tile, w,
                     describe(g) + " tile@" + std::to_string(col0));
      }
    }
  }
}

// Arbitrary column windows into a wider destination: the gather writes
// exactly ncols entries per row and leaves the rest of each row alone.
TEST_F(KernelsIm2col, ArbitraryWindowsWriteOnlyTheirColumns) {
  Rng pick(9);
  for (const Geometry& g : geometries()) {
    const Im2col im = make(g);
    const auto in = random_input(g, 1, 10);
    const float* slice = slice_of(g, in, 0, 0);
    for (int trial = 0; trial < 8; ++trial) {
      const std::int64_t col0 = pick.next_int(0, im.cols() - 1);
      const std::int64_t ncols = pick.next_int(1, im.cols() - col0);
      const std::int64_t ld = ncols + 3;
      std::vector<float> buf(static_cast<std::size_t>(im.rows() * ld), -7.5f);
      im.gather(slice, col0, ncols, buf.data(), ld);
      expect_block(g, im, slice, col0, ncols, buf, ld,
                   describe(g) + " window@" + std::to_string(col0) + "+" +
                       std::to_string(ncols));
      for (std::int64_t r = 0; r < im.rows(); ++r) {
        for (std::int64_t c = ncols; c < ld; ++c) {
          ASSERT_EQ(buf[static_cast<std::size_t>(r * ld + c)], -7.5f)
              << describe(g) << " wrote past its window at row " << r;
        }
      }
    }
  }
}

// scatter_add must add each column entry into the input position the
// reference gathers it from, in row order, so backward sums match a
// per-element scatter bit for bit.
TEST_F(KernelsIm2col, ScatterAddIsTheAdjointOfTheReference) {
  for (const Geometry& g : geometries()) {
    const Im2col im = make(g);
    Rng rng(11);
    std::vector<float> col(static_cast<std::size_t>(im.rows() * im.cols()));
    for (auto& x : col) x = rng.uniform(-1.0f, 1.0f);
    std::vector<float> want(static_cast<std::size_t>(g.cin_g * g.h * g.w),
                            0.25f);
    std::vector<float> got = want;
    for (std::int64_t r = 0; r < im.rows(); ++r) {
      const std::int64_t c = r / (g.k * g.k);
      const std::int64_t kh = r / g.k % g.k, kw = r % g.k;
      for (std::int64_t j = 0; j < im.cols(); ++j) {
        const std::int64_t ih = j / im.w_out() * g.s - g.p + kh;
        const std::int64_t iw = j % im.w_out() * g.s - g.p + kw;
        if (ih < 0 || ih >= g.h || iw < 0 || iw >= g.w) continue;
        want[static_cast<std::size_t>((c * g.h + ih) * g.w + iw)] +=
            col[static_cast<std::size_t>(r * im.cols() + j)];
      }
    }
    im.scatter_add(col.data(), got.data());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(float_to_bits(got[i]), float_to_bits(want[i]))
          << describe(g) << " input element " << i;
    }
  }
}

// The INT8 forward's streamed pack over gather tiles must equal the static
// pack of the materialized reference matrix, byte for byte.
TEST_F(KernelsIm2col, StreamedInt8PackEqualsMaterializedReference) {
  for (const Geometry& g : geometries()) {
    const Im2col im = make(g);
    const auto in = random_input(g, 1, 12);
    const float* slice = slice_of(g, in, 0, g.groups - 1);
    std::vector<float> ref(static_cast<std::size_t>(im.rows() * im.cols()));
    for (std::int64_t r = 0; r < im.rows(); ++r) {
      for (std::int64_t j = 0; j < im.cols(); ++j) {
        ref[static_cast<std::size_t>(r * im.cols() + j)] =
            reference(g, im, slice, r, j);
      }
    }
    kernels::PackedPanelsI8 streamed, materialized;
    const kernels::BTileFn tile = [&](std::int64_t col0, int w, float* dst) {
      im.gather(slice, col0, w, dst, w);
    };
    const float scale = kernels::scale_from_absmax(
        kernels::finite_absmax_stream(im.rows(), im.cols(), tile));
    kernels::quantize_pack_b_i8_stream(im.rows(), im.cols(), scale, tile,
                                       streamed);
    kernels::quantize_pack_b_i8_static(im.rows(), im.cols(), ref.data(),
                                       im.cols(), false, scale, materialized);
    EXPECT_EQ(streamed.data, materialized.data) << describe(g);
    EXPECT_EQ(streamed.kp, materialized.kp) << describe(g);
  }
}

// End to end through Conv2d (naive GEMM, so the comparison is exact): every
// group of every sample equals the naive GEMM over the reference matrix.
TEST_F(KernelsIm2col, ConvForwardEqualsGemmOverReferenceColumns) {
  kernels::set_impl(kernels::Impl::kNaive);
  for (const Geometry& g : geometries()) {
    Rng rng(13);
    Conv2d conv({.in_channels = g.cin_g * g.groups,
                 .out_channels = 2 * g.groups,
                 .kernel = g.k,
                 .stride = g.s,
                 .padding = g.p,
                 .groups = g.groups},
                rng);
    for (auto& b : conv.bias().value.data()) b = rng.uniform(-0.5f, 0.5f);
    const auto in = random_input(g, 2, 14);
    Tensor x({2, g.cin_g * g.groups, g.h, g.w});
    std::copy(in.begin(), in.end(), x.data().begin());
    const Tensor y = conv.forward(x);

    const Im2col im = make(g);
    const std::int64_t rows = im.rows(), cols = im.cols();
    std::vector<float> ref(static_cast<std::size_t>(rows * cols));
    std::vector<float> want(static_cast<std::size_t>(2 * cols));
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t grp = 0; grp < g.groups; ++grp) {
        const float* slice = slice_of(g, in, n, grp);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t j = 0; j < cols; ++j) {
            ref[static_cast<std::size_t>(r * cols + j)] =
                reference(g, im, slice, r, j);
          }
        }
        kernels::naive_gemm(2, cols, rows,
                            conv.weight().value.data().data() + grp * 2 * rows,
                            rows, false, ref.data(), cols, false, want.data(),
                            cols, kernels::Epilogue::kBiasRow,
                            conv.bias().value.data().data() + grp * 2);
        const float* have =
            y.data().data() + (n * g.groups + grp) * 2 * cols;
        ASSERT_EQ(std::memcmp(have, want.data(), want.size() * sizeof(float)),
                  0)
            << describe(g) << " n=" << n << " group=" << grp;
      }
    }
  }
}

}  // namespace
}  // namespace pfi::nn
