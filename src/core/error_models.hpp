// Perturbation (error) models — the library of value transformations the
// fault injector applies to neurons and weights.
//
// The paper ships "a default set of perturbation models for the user to
// select from, such as a random value, a single bit flip, or zero value"
// and lets users "easily implement their own perturbation model"
// (Sec. III-B step 3). An ErrorModel here is exactly that: a named functor
// from (current value, injection context) to corrupted value.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "quant/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace pfi::core {

/// Numeric representation the model's activations are treated as.
/// Mirrors the paper's "model data type (e.g., FP32 or FP16)" init option,
/// extended with INT8 for the Sec. IV-A quantized campaigns and bfloat16
/// for the truncated-binary32 training/inference formats.
enum class DType { kFloat32, kFloat16, kInt8, kBFloat16 };

/// String name of a dtype ("fp32" / "fp16" / "bf16" / "int8").
std::string dtype_name(DType dtype);

/// Representation width in bits (32 / 16 / 8) — the sample space of a
/// uniformly random single_bit_flip in that dtype.
int dtype_bit_width(DType dtype);

/// One contiguous class of bit positions within a dtype's representation.
/// Bit flips within a class have comparable corruption behaviour (a sign
/// flip, an exponent flip, a high- or low-mantissa flip), which is what
/// makes (layer x bit class) the right granularity for stratified campaign
/// sampling (core/sampling.hpp): strata are homogeneous enough that most of
/// them resolve to near-zero corruption probability with few samples.
struct BitClassSpec {
  const char* name;  ///< "sign" / "exponent" / "mant_hi" / "mant_lo" ...
  int lo = 0;        ///< lowest bit position in the class (inclusive)
  int hi = 0;        ///< highest bit position in the class (inclusive)

  int width() const { return hi - lo + 1; }
};

/// The dtype's bit classes, lowest positions first, covering every bit
/// exactly once. FP32/FP16 partition into mantissa-low / mantissa-high /
/// exponent / sign; INT8 (two's-complement quantized codes) into low / high
/// magnitude bits and the sign bit.
std::span<const BitClassSpec> bit_classes(DType dtype);

/// Index into bit_classes(dtype) of the class containing `bit`.
int bit_class_of(DType dtype, int bit);

/// Context handed to an error model at injection time.
struct InjectionContext {
  std::int64_t layer = 0;       ///< instrumented layer index
  std::int64_t flat_index = 0;  ///< flat position within the output tensor
  DType dtype = DType::kFloat32;
  /// Quantization parameters of the surrounding tensor (meaningful when
  /// dtype == kInt8; calibrated per layer by the injector).
  quant::QuantParams qparams;
  Rng* rng = nullptr;  ///< non-owning; always set by the injector
};

/// A named perturbation model.
struct ErrorModel {
  std::string name;
  std::function<float(float, const InjectionContext&)> apply;
  /// Exact real-valued parameters, in declaration order. The display name
  /// prints them with 6 decimals, so it cannot tell 1e-7 from 2e-7; campaign
  /// fingerprints fold these bits in (error_model_identity). Empty for
  /// parameterless and bit-index models, whose name is already exact.
  std::vector<float> params = {};
};

/// The model's campaign identity: its name, followed by the bit patterns of
/// `params` in hex when it has any ("random_value[...]#00000000,33d6bf95").
std::string error_model_identity(const ErrorModel& model);

// -- The paper's built-in model library ----------------------------------------

/// Uniform random replacement in [lo, hi]. With defaults, this is the
/// paper's default model: "a uniform, random value between [-1,1]"
/// (Sec. III-C).
ErrorModel random_value(float lo = -1.0f, float hi = 1.0f);

/// Stuck-at-zero.
ErrorModel zero_value();

/// Replace with a fixed constant (e.g. the 10,000 used by the Fig. 7
/// interpretability study).
ErrorModel constant_value(float v);

/// Single bit flip in the representation selected by the context dtype:
/// FP32 -> one of 32 bits, FP16 -> one of 16, INT8 -> one of 8 flipped in
/// the quantized domain. `bit` = -1 flips a uniformly random bit.
ErrorModel single_bit_flip(int bit = -1);

/// Multiply the value by a constant gain (a "scaling" perturbation).
ErrorModel scale_value(float gain);

/// Add uniform noise in [-magnitude, magnitude] (adversarial-style additive
/// perturbation rather than replacement).
ErrorModel additive_noise(float magnitude);

/// Flip `bits` distinct random bits of the value's representation (in the
/// context dtype) — a multi-bit upset within one word, e.g. an MBU from a
/// single particle strike. `bits` must fit the dtype's width.
ErrorModel multi_bit_flip(int bits);

/// Flip the value's sign (dtype-independent); a common abstract model for
/// datapath sign errors.
ErrorModel sign_flip();

/// Clamp-saturate to [-limit, limit] — a stuck-at-rail / saturation model.
ErrorModel saturate(float limit);

/// Force bit `bit` of the value's representation (in the context dtype) to
/// `value` (0 or 1) — the per-write half of a persistent stuck-at memory
/// fault (core/persistent.hpp re-asserts it across inferences). Idempotent:
/// a value whose bit already reads `value` is returned unchanged. `bit` must
/// fit every dtype the model is applied under (checked at injection time).
ErrorModel stuck_at_bit(int bit, int value);

/// The raw transformation behind stuck_at_bit, shared with the injector's
/// persistent-write path: `v` with bit `bit` of its `dtype` representation
/// forced to `value` (0/1), or flipped when `value` is -1. INT8 operates on
/// the quantized code under `qparams`.
float force_bit(float v, int bit, int value, DType dtype,
                const quant::QuantParams& qparams);

}  // namespace pfi::core
