#include "core/error_models.hpp"

#include <cstdio>
#include <utility>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace pfi::core {

std::string dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return "fp32";
    case DType::kFloat16: return "fp16";
    case DType::kInt8: return "int8";
    case DType::kBFloat16: return "bf16";
  }
  PFI_CHECK(false) << "unreachable dtype";
}

int dtype_bit_width(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return kFloatBits;
    case DType::kFloat16: return kHalfBits;
    case DType::kInt8: return kInt8Bits;
    case DType::kBFloat16: return kBf16Bits;
  }
  PFI_CHECK(false) << "unreachable dtype";
}

namespace {

// IEEE-754 binary32: sign 31, exponent 30..23, mantissa 22..0. The mantissa
// splits at its midpoint so "barely perceptible" and "up to ~2x relative"
// flips land in different strata.
constexpr BitClassSpec kFp32Classes[] = {
    {"mant_lo", 0, 11},
    {"mant_hi", 12, 22},
    {"exponent", 23, 30},
    {"sign", 31, 31},
};

// IEEE-754 binary16: sign 15, exponent 14..10, mantissa 9..0.
constexpr BitClassSpec kFp16Classes[] = {
    {"mant_lo", 0, 4},
    {"mant_hi", 5, 9},
    {"exponent", 10, 14},
    {"sign", 15, 15},
};

// Two's-complement INT8 codes: bit 7 decides sign, the rest is magnitude
// (split so the top magnitude bits — flips of +/- 16..64 codes — separate
// from the near-LSB ones).
constexpr BitClassSpec kInt8Classes[] = {
    {"low", 0, 3},
    {"high", 4, 6},
    {"sign", 7, 7},
};

// bfloat16: sign 15, exponent 14..7, mantissa 6..0.
constexpr BitClassSpec kBf16Classes[] = {
    {"mant_lo", 0, 3},
    {"mant_hi", 4, 6},
    {"exponent", 7, 14},
    {"sign", 15, 15},
};

}  // namespace

std::span<const BitClassSpec> bit_classes(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return kFp32Classes;
    case DType::kFloat16: return kFp16Classes;
    case DType::kInt8: return kInt8Classes;
    case DType::kBFloat16: return kBf16Classes;
  }
  PFI_CHECK(false) << "unreachable dtype";
}

int bit_class_of(DType dtype, int bit) {
  PFI_CHECK(bit >= 0 && bit < dtype_bit_width(dtype))
      << "bit " << bit << " out of range for " << dtype_name(dtype);
  const auto classes = bit_classes(dtype);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (bit >= classes[i].lo && bit <= classes[i].hi) {
      return static_cast<int>(i);
    }
  }
  PFI_CHECK(false) << "bit " << bit << " not covered by any class (bug)";
}

std::string error_model_identity(const ErrorModel& model) {
  if (model.params.empty()) return model.name;
  std::string id = model.name + "#";
  char hex[9];
  for (std::size_t i = 0; i < model.params.size(); ++i) {
    std::snprintf(hex, sizeof hex, "%08x", float_to_bits(model.params[i]));
    if (i > 0) id += ",";
    id += hex;
  }
  return id;
}

ErrorModel random_value(float lo, float hi) {
  PFI_CHECK(lo < hi) << "random_value range [" << lo << ", " << hi << ")";
  return {"random_value[" + std::to_string(lo) + "," + std::to_string(hi) + "]",
          [lo, hi](float, const InjectionContext& ctx) {
            return ctx.rng->uniform(lo, hi);
          },
          {lo, hi}};
}

ErrorModel zero_value() {
  return {"zero_value", [](float, const InjectionContext&) { return 0.0f; }};
}

ErrorModel constant_value(float v) {
  return {"constant_value[" + std::to_string(v) + "]",
          [v](float, const InjectionContext&) { return v; },
          {v}};
}

ErrorModel single_bit_flip(int bit) {
  PFI_CHECK(bit >= -1 && bit < kFloatBits) << "single_bit_flip bit=" << bit;
  const std::string name =
      bit < 0 ? "single_bit_flip[random]"
              : "single_bit_flip[" + std::to_string(bit) + "]";
  return {name, [bit](float v, const InjectionContext& ctx) {
            switch (ctx.dtype) {
              case DType::kFloat32: {
                const int b = bit >= 0
                                  ? bit
                                  : static_cast<int>(ctx.rng->next_below(
                                        kFloatBits));
                return flip_float_bit(v, b);
              }
              case DType::kFloat16: {
                const int b =
                    bit >= 0 ? bit
                             : static_cast<int>(ctx.rng->next_below(kHalfBits));
                PFI_CHECK(b < kHalfBits)
                    << "bit " << b << " out of range for fp16";
                return flip_fp16_bit(v, b);
              }
              case DType::kInt8: {
                const int b =
                    bit >= 0 ? bit
                             : static_cast<int>(ctx.rng->next_below(kInt8Bits));
                PFI_CHECK(b < kInt8Bits)
                    << "bit " << b << " out of range for int8";
                return quant::flip_bit_int8(v, b, ctx.qparams);
              }
              case DType::kBFloat16: {
                const int b =
                    bit >= 0 ? bit
                             : static_cast<int>(ctx.rng->next_below(kBf16Bits));
                PFI_CHECK(b < kBf16Bits)
                    << "bit " << b << " out of range for bf16";
                return flip_bf16_bit(v, b);
              }
            }
            PFI_CHECK(false) << "unreachable dtype";
          }};
}

ErrorModel scale_value(float gain) {
  return {"scale_value[" + std::to_string(gain) + "]",
          [gain](float v, const InjectionContext&) { return gain * v; },
          {gain}};
}

ErrorModel multi_bit_flip(int bits) {
  PFI_CHECK(bits >= 1 && bits <= kFloatBits) << "multi_bit_flip bits=" << bits;
  return {"multi_bit_flip[" + std::to_string(bits) + "]",
          [bits](float v, const InjectionContext& ctx) {
            const int width = dtype_bit_width(ctx.dtype);
            PFI_CHECK(bits <= width)
                << "multi_bit_flip: " << bits << " bits exceed "
                << dtype_name(ctx.dtype) << " width " << width;
            // Choose `bits` distinct positions (partial Fisher-Yates).
            int positions[kFloatBits];
            for (int i = 0; i < width; ++i) positions[i] = i;
            float out = v;
            for (int i = 0; i < bits; ++i) {
              const int j =
                  i + static_cast<int>(ctx.rng->next_below(
                          static_cast<std::uint64_t>(width - i)));
              std::swap(positions[i], positions[j]);
              switch (ctx.dtype) {
                case DType::kFloat32:
                  out = flip_float_bit(out, positions[i]);
                  break;
                case DType::kFloat16:
                  out = flip_fp16_bit(out, positions[i]);
                  break;
                case DType::kInt8:
                  out = quant::flip_bit_int8(out, positions[i], ctx.qparams);
                  break;
                case DType::kBFloat16:
                  out = flip_bf16_bit(out, positions[i]);
                  break;
              }
            }
            return out;
          }};
}

ErrorModel sign_flip() {
  return {"sign_flip", [](float v, const InjectionContext&) { return -v; }};
}

ErrorModel saturate(float limit) {
  PFI_CHECK(limit > 0.0f) << "saturate limit=" << limit;
  return {"saturate[" + std::to_string(limit) + "]",
          [limit](float v, const InjectionContext&) {
            return v > limit ? limit : (v < -limit ? -limit : v);
          },
          {limit}};
}

float force_bit(float v, int bit, int value, DType dtype,
                const quant::QuantParams& qparams) {
  PFI_CHECK(value >= -1 && value <= 1)
      << "force_bit value=" << value << " must be -1 (flip), 0, or 1";
  PFI_CHECK(bit >= 0 && bit < dtype_bit_width(dtype))
      << "bit " << bit << " out of range for " << dtype_name(dtype);
  const auto apply32 = [&](std::uint32_t bits) {
    const std::uint32_t mask = 1u << bit;
    if (value < 0) return bits ^ mask;
    return value != 0 ? (bits | mask) : (bits & ~mask);
  };
  switch (dtype) {
    case DType::kFloat32:
      return bits_to_float(apply32(float_to_bits(v)));
    case DType::kFloat16:
      return float_from_f16_bits(
          static_cast<std::uint16_t>(apply32(f16_bits_from_float(v))));
    case DType::kBFloat16:
      return float_from_bf16_bits(
          static_cast<std::uint16_t>(apply32(bf16_bits_from_float(v))));
    case DType::kInt8: {
      const auto code =
          static_cast<std::uint8_t>(quant::quantize_value(v, qparams));
      return quant::dequantize_value(
          static_cast<std::int8_t>(static_cast<std::uint8_t>(apply32(code))),
          qparams);
    }
  }
  PFI_CHECK(false) << "unreachable dtype";
}

ErrorModel stuck_at_bit(int bit, int value) {
  PFI_CHECK(bit >= 0 && bit < kFloatBits) << "stuck_at_bit bit=" << bit;
  PFI_CHECK(value == 0 || value == 1) << "stuck_at_bit value=" << value;
  return {"stuck_at_bit[" + std::to_string(bit) + "=" + std::to_string(value) +
              "]",
          [bit, value](float v, const InjectionContext& ctx) {
            PFI_CHECK(bit < dtype_bit_width(ctx.dtype))
                << "stuck_at_bit: bit " << bit << " out of range for "
                << dtype_name(ctx.dtype);
            return force_bit(v, bit, value, ctx.dtype, ctx.qparams);
          }};
}

ErrorModel additive_noise(float magnitude) {
  PFI_CHECK(magnitude > 0.0f) << "additive_noise magnitude=" << magnitude;
  return {"additive_noise[" + std::to_string(magnitude) + "]",
          [magnitude](float v, const InjectionContext& ctx) {
            return v + ctx.rng->uniform(-magnitude, magnitude);
          },
          {magnitude}};
}

}  // namespace pfi::core
