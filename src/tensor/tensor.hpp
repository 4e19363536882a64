// A minimal dense float tensor with PyTorch-like shared-storage semantics.
//
// Design notes:
//  * Row-major, always contiguous. Rank 1..4; CNN activations use NCHW.
//  * Copying a Tensor is cheap and SHARES storage (like torch.Tensor). This
//    is load-bearing for the fault injector: mutating a module's weight
//    tensor through any alias perturbs the module, exactly the mechanism the
//    paper uses for offline weight corruption (Sec. III-B).
//  * clone() deep-copies. Use it when snapshotting golden weights to undo an
//    injection.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pfi {

/// Tensor shape: sizes per dimension, outermost first.
using Shape = std::vector<std::int64_t>;

/// Render a shape as "[N, C, H, W]" for error messages.
std::string shape_to_string(const Shape& s);

/// Dense float32 tensor with shared storage.
class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Uninitialized-to-zero tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor wrapping the given values (must match the shape's element count).
  Tensor(Shape shape, std::vector<float> values);

  // -- Factories ------------------------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// Uniform random values in [lo, hi).
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  /// Normal random values with the given mean / stddev.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(std::int64_t n);

  // -- Introspection ---------------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  /// Size of dimension d (supports negative indexing from the back).
  std::int64_t size(std::int64_t d) const;
  std::int64_t numel() const { return numel_; }
  bool defined() const { return storage_ != nullptr; }
  /// True when both tensors alias the same storage.
  bool shares_storage_with(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  // -- Element access ---------------------------------------------------------
  std::span<float> data() { return {storage_->data(), storage_->size()}; }
  std::span<const float> data() const {
    return {storage_->data(), storage_->size()};
  }
  float& operator[](std::int64_t i) { return (*storage_)[check_index(i)]; }
  float operator[](std::int64_t i) const { return (*storage_)[check_index(i)]; }

  /// 4-D NCHW accessor with bounds checking.
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const;
  /// 2-D accessor with bounds checking.
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;

  /// Flat offset of an NCHW coordinate (bounds-checked).
  std::int64_t offset_of(std::int64_t n, std::int64_t c, std::int64_t h,
                         std::int64_t w) const;

  // -- Whole-tensor operations -------------------------------------------------
  /// Deep copy with fresh storage.
  Tensor clone() const;
  /// Same storage, new shape (element count must match).
  Tensor reshape(Shape new_shape) const;
  /// Deep copy of row `n` of dimension 0, keeping a leading dimension of 1
  /// ([N, ...] -> [1, ...]).
  Tensor batch_row(std::int64_t n) const;
  /// Overwrite row `n` of dimension 0 from `src`, a [1, ...] tensor whose
  /// remaining dimensions match.
  void copy_row_from(std::int64_t n, const Tensor& src);
  /// Fill every element with v.
  void fill(float v);
  /// Overwrite this tensor's contents from another of identical shape.
  void copy_from(const Tensor& src);
  /// Add alpha * src element-wise into this tensor (same shape).
  void add_(const Tensor& src, float alpha = 1.0f);
  /// Multiply every element by s.
  void scale_(float s);
  /// Apply f element-wise in place.
  template <typename F>
  void apply_(F&& f) {
    for (auto& v : *storage_) v = f(v);
  }

  // -- Reductions ---------------------------------------------------------------
  float sum() const;
  float mean() const;
  float max() const;
  float min() const;
  /// Index of the maximum element (flat).
  std::int64_t argmax() const;
  /// Squared L2 norm of all elements.
  float squared_norm() const;
  /// Largest absolute element-wise difference vs other (same shape).
  float max_abs_diff(const Tensor& other) const;

  /// Pretty one-line description, e.g. "Tensor[2, 3, 8, 8]".
  std::string to_string() const;

 private:
  std::int64_t check_index(std::int64_t i) const {
    PFI_CHECK(storage_ && i >= 0 && i < numel_)
        << "flat index " << i << " out of range for " << to_string();
    return i;
  }

  Shape shape_;
  std::int64_t numel_ = 0;
  std::shared_ptr<std::vector<float>> storage_;
};

/// Element count implied by a shape (product of dims; 1 for rank 0).
std::int64_t shape_numel(const Shape& s);

// -- Free-function ops used across the library ---------------------------------

/// C = A(MxK) * B(KxN), row-major. Shapes validated.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Element-wise sum of two same-shaped tensors.
Tensor add(const Tensor& a, const Tensor& b);

/// Element-wise product of two same-shaped tensors.
Tensor mul(const Tensor& a, const Tensor& b);

/// True when shapes are identical and all elements differ by <= atol.
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace pfi
