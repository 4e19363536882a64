// Cross-ISA bit identity of the fp32 kernels, and the pack-cache digest.
//
// The scalar, AVX2 and AVX-512 microkernels all run each output element's
// single ascending-k fma chain, so forcing any one of them with
// kernels::set_f32_isa must give byte-identical GEMMs, model forwards and
// campaign outputs. Each SIMD leg is compared with scalar when the CPU has
// it (AVX2+FMA, avx512f) and skipped otherwise.
//
// The digest tests pin the two hashes' contracts: pack_digest (the
// in-process validity check of every weight pack cache) must catch any
// single flipped bit, in every lane and in the serial tail, and
// kernels::fingerprint (persisted through static-calibration weight_fp)
// must keep its exact value.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/fault_injector.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "models/zoo.hpp"
#include "nn/nn.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace pfi::kernels {
namespace {

/// Restores every kernel setting a test may force.
class KernelsIsa : public ::testing::Test {
 protected:
  void TearDown() override {
    set_f32_isa(F32Isa::kAuto);
    set_block_config(BlockConfig{});
    set_impl(Impl::kBlocked);
  }
};
using KernelsDigest = KernelsIsa;

bool cpu_has(F32Isa isa) {
  try {
    set_f32_isa(isa);
  } catch (const Error&) {
    return false;
  }
  set_f32_isa(F32Isa::kAuto);
  return true;
}

template <typename T>
void append_bytes(std::string& out, const T* p, std::size_t n) {
  out.append(reinterpret_cast<const char*>(p), n * sizeof(T));
}

std::string tensor_bytes(const Tensor& t) {
  std::string out;
  append_bytes(out, t.data().data(), t.data().size());
  return out;
}

/// Runs `fn` under the scalar microkernels and under each SIMD ISA the CPU
/// has, expecting the same bytes from each. Returns the names of the ISAs
/// it had to skip ("" when every leg ran).
std::string expect_same_bytes_across_isas(
    const std::function<std::string()>& fn, const std::string& what) {
  set_f32_isa(F32Isa::kScalar);
  const std::string scalar = fn();
  EXPECT_FALSE(scalar.empty()) << what;
  std::string skipped;
  for (const auto& [isa, name] : {std::pair{F32Isa::kAvx2, "AVX2"},
                                  std::pair{F32Isa::kAvx512, "AVX-512"}}) {
    if (!cpu_has(isa)) {
      skipped += skipped.empty() ? name : std::string(", ") + name;
      continue;
    }
    set_f32_isa(isa);
    EXPECT_TRUE(fn() == scalar) << what << ": " << name << " differs from scalar";
  }
  set_f32_isa(F32Isa::kAuto);
  return skipped;
}

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-2.0f, 2.0f);
  return v;
}

/// Every epilogue over a shape sweep with edge rows (m not a multiple of
/// mr) and edge columns (n not a multiple of kNR), K across k-panel boundaries, both transposes, packed and
/// raw B, every panel height and a small-block config; C has padded rows.
std::string gemm_sweep_bytes() {
  constexpr Epilogue kEpilogues[] = {
      Epilogue::kZero,    Epilogue::kAccumulate, Epilogue::kBiasRow,
      Epilogue::kBiasCol, Epilogue::kReluZero,   Epilogue::kReluBiasRow};
  std::string out;
  Rng rng(4242);
  int shape = 0;
  for (const int mr : {4, 6, 8}) {
    for (const BlockConfig cfg :
         {BlockConfig{.mr = mr},
          BlockConfig{.mc = 8, .nc = 48, .kc = 5, .mr = mr}}) {
      set_block_config(cfg);
      for (const std::int64_t m : {1, 6, 13}) {
        for (const std::int64_t n : {1, 17, 32, 33, 250}) {
          for (const std::int64_t k : {1, 7, 300}) {
            const bool ta = (shape & 1) != 0, tb = (shape & 2) != 0;
            ++shape;
            const auto a = random_vec(m * k, rng), b = random_vec(k * n, rng);
            const auto bias = random_vec(std::max(m, n), rng);
            const std::int64_t lda = ta ? m : k, ldb = tb ? k : n;
            const std::int64_t ldc = n + 3;
            PackedPanels pa, pb;
            pack_a(m, k, a.data(), lda, ta, mr, pa);
            pack_b(k, n, b.data(), ldb, tb, pb);
            for (const Epilogue ep : kEpilogues) {
              for (const bool packed : {true, false}) {
                std::vector<float> c = random_vec(m * ldc, rng);
                if (packed) {
                  gemm_packed(m, n, k, pa, pb, c.data(), ldc, ep, bias.data());
                } else {
                  gemm_blocked(m, n, k, a.data(), lda, ta, b.data(), ldb, tb,
                               c.data(), ldc, ep, bias.data());
                }
                append_bytes(out, c.data(), c.size());
              }
            }
          }
        }
      }
    }
  }
  set_block_config(BlockConfig{});
  return out;
}

TEST_F(KernelsIsa, GemmSweepBitIdenticalAcrossIsas) {
  const std::string skipped =
      expect_same_bytes_across_isas(gemm_sweep_bytes, "gemm sweep");
  if (!skipped.empty()) GTEST_SKIP() << "CPU lacks " << skipped;
}

std::string zoo_forward_bytes(const std::string& name, std::int64_t batch) {
  Rng rng(7);
  auto model = models::make_model(name, {.num_classes = 10}, rng);
  model->eval();
  const Tensor x = Tensor::rand({batch, 3, 32, 32}, rng, -1.0f, 1.0f);
  return tensor_bytes((*model)(x));
}

TEST_F(KernelsIsa, ZooForwardsBitIdenticalAcrossIsas) {
  std::string skipped;
  for (const char* name : {"resnet18", "vgg19"}) {
    for (const std::int64_t batch : {1, 4}) {
      skipped = expect_same_bytes_across_isas(
          [&] { return zoo_forward_bytes(name, batch); },
          std::string(name) + " batch " + std::to_string(batch));
    }
  }
  if (!skipped.empty()) GTEST_SKIP() << "CPU lacks " << skipped;
}

/// A uniform resnet18 campaign's counts followed by its trace JSONL.
std::string uniform_campaign_bytes() {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = models::make_model("resnet18", {.num_classes = 10}, rng);
  core::FaultInjector fi(
      model, {.input_shape = {3, 32, 32}, .batch_size = 4});
  trace::TraceSink sink;
  core::CampaignConfig cfg;
  cfg.trials = 12;
  cfg.error_model = core::single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = 1;
  cfg.trace = &sink;
  const core::CampaignResult r = core::run_classification_campaign(fi, ds, cfg);
  return "trials=" + std::to_string(r.trials) +
         " skipped=" + std::to_string(r.skipped) +
         " corruptions=" + std::to_string(r.corruptions) +
         " non_finite=" + std::to_string(r.non_finite) +
         " gave_up=" + std::to_string(r.gave_up) + "\n" +
         trace::trace_to_jsonl(sink.events());
}

TEST_F(KernelsIsa, UniformCampaignCountsAndTraceIdenticalAcrossIsas) {
  const std::string skipped =
      expect_same_bytes_across_isas(uniform_campaign_bytes, "uniform campaign");
  if (!skipped.empty()) GTEST_SKIP() << "CPU lacks " << skipped;
}

// ---------------------------------------------------------------- digests ----

TEST_F(KernelsDigest, PackDigestDetectsEveryBitFlipInEveryLaneAndTheTail) {
  // 29 = three 8-word lane blocks + a 5-word tail; 8 has no tail; 5 is all
  // tail. Every single flip must change the digest.
  Rng rng(5);
  for (const std::int64_t n : {29, 8, 5}) {
    std::vector<float> w = random_vec(n, rng);
    const std::uint64_t d0 = pack_digest(w.data(), n);
    for (std::int64_t at = 0; at < n; ++at) {
      const float saved = w[at];
      for (int bit = 0; bit < 32; ++bit) {
        w[at] = bits_to_float(float_to_bits(saved) ^ (1u << bit));
        EXPECT_NE(pack_digest(w.data(), n), d0)
            << "n=" << n << ": bit " << bit << " of word " << at
            << " not detected";
      }
      w[at] = saved;
    }
    EXPECT_EQ(pack_digest(w.data(), n), d0);
  }
}

TEST_F(KernelsDigest, FingerprintValueIsPinned) {
  // kernels::fingerprint is persisted (static-calibration weight_fp, and
  // through it campaign fingerprints and checkpoints): its value on a
  // fixed vector must never move.
  std::vector<float> v(37);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(i) * 0.25f - 3.0f;
  }
  v[5] = -0.0f;
  EXPECT_EQ(fingerprint(v.data(), static_cast<std::int64_t>(v.size())),
            0x9f1c0ae58fa6ae29ull);
  EXPECT_EQ(fingerprint(v.data(), 0), 1469598103934665603ull);
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && tensor_bytes(a) == tensor_bytes(b);
}

/// Mutates weight element `at` through an alias (no invalidate(), like the
/// fault injector), expects `forward` to see it, then restores it.
void expect_mutation_seen(Tensor alias, std::int64_t at, float delta,
                          const std::function<Tensor()>& forward,
                          const std::string& what) {
  const Tensor y0 = forward().clone();
  EXPECT_TRUE(bit_equal(y0, forward().clone())) << what;  // cached pack
  const float golden = alias[at];
  alias[at] = golden + delta;
  EXPECT_FALSE(bit_equal(y0, forward().clone()))
      << what << ": stale pack served after aliased mutation of element "
      << at;
  alias[at] = golden;
  EXPECT_TRUE(bit_equal(y0, forward().clone()))
      << what << ": restoring the weight bits must restore the output bits";
}

TEST_F(KernelsDigest, LowPrecisionPacksNeverServedStaleAfterAliasedMutation) {
  // Weight counts (54 and 30) are not multiples of 8, so the last element
  // lives in the digest's serial tail and the first in lane 0.
  Rng rng(33);
  nn::Conv2d conv(
      nn::Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  nn::Linear fc(6, 5, rng);
  const Tensor xc = Tensor::rand({1, 2, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor xf = Tensor::rand({2, 6}, rng, -1.0f, 1.0f);
  const auto conv_fwd = [&] { return conv(xc); };
  const auto fc_fwd = [&] { return fc(xf); };

  for (const LowPrec native : {LowPrec::kFp16, LowPrec::kBf16}) {
    const std::string tag = native == LowPrec::kFp16 ? "fp16" : "bf16";
    conv.set_native_dtype(native);
    fc.set_native_dtype(native);
    for (const std::int64_t at : {std::int64_t{0}, std::int64_t{53}}) {
      expect_mutation_seen(conv.weight().value, at, 1.0f, conv_fwd,
                           tag + " conv");
    }
    for (const std::int64_t at : {std::int64_t{0}, std::int64_t{29}}) {
      expect_mutation_seen(fc.weight().value, at, 1.0f, fc_fwd,
                           tag + " linear");
    }
  }

  // INT8: the change must move the deployed code under the frozen scale.
  conv.set_native_dtype(LowPrec::kInt8);
  fc.set_native_dtype(LowPrec::kInt8);
  conv_fwd();
  fc_fwd();  // calibrate the scales lazily
  // Step 64 codes toward zero so the mutated code cannot clamp back onto
  // the golden one.
  const auto toward_zero = [](const Tensor& w, std::int64_t at, float scale) {
    return w[at] > 0.0f ? -64.0f * scale : 64.0f * scale;
  };
  for (const std::int64_t at : {std::int64_t{0}, std::int64_t{53}}) {
    const float scale = conv.native_scales()[static_cast<std::size_t>(at / 18)];
    expect_mutation_seen(conv.weight().value, at,
                         toward_zero(conv.weight().value, at, scale), conv_fwd,
                         "int8 conv");
  }
  for (const std::int64_t at : {std::int64_t{0}, std::int64_t{29}}) {
    const float scale = fc.native_scales()[static_cast<std::size_t>(at / 6)];
    expect_mutation_seen(fc.weight().value, at,
                         toward_zero(fc.weight().value, at, scale), fc_fwd,
                         "int8 linear");
  }
}

}  // namespace
}  // namespace pfi::kernels
