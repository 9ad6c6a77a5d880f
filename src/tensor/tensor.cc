#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "tensor/gemm.h"

namespace ba::tensor {

Tensor Tensor::RandomUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                             float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::RandomNormal(std::vector<int64_t> shape, Rng* rng, float mean,
                            float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

Tensor Tensor::XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform({fan_in, fan_out}, rng, -bound, bound);
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor([";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]) [";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << "]";
  return os.str();
}

// The three matmul entry points delegate to the blocked kernel layer
// in gemm.cc (register-tiled, ISA-dispatched, row-panel threaded for
// large shapes). Layout differences are absorbed here: strides for the
// transposed-A view, an explicit transpose into scratch for
// transposed-B so the inner loops always stream B rows contiguously.

Tensor MatMulValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  internal::GemmDispatch(a.data(), /*as_i=*/k, /*as_p=*/1, b.data(), c.data(),
                         m, k, n);
  return c;
}

Tensor MatMulTransposeAValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  // A is (k,m): element (p, i) sits at p*m + i, i.e. unit stride across
  // the micro-kernel's rows — no transpose copy needed.
  internal::GemmDispatch(a.data(), /*as_i=*/1, /*as_p=*/m, b.data(), c.data(),
                         m, k, n);
  return c;
}

Tensor MatMulTransposeBValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  if (m == 0 || k == 0 || n == 0) return c;
  // B arrives (n,k); the old kernel walked it as per-output dot
  // products, a serial reduction the vectorizer cannot touch under
  // strict FP. Transposing into (k,n) scratch up front costs O(n·k)
  // against the O(m·n·k) multiply and restores contiguous row access.
  // The scratch is thread_local and reused: at 512² it crosses glibc's
  // mmap threshold, and a fresh mmap + page-fault-zero + munmap per
  // call costs more than the transpose itself.
  thread_local std::vector<float> bt;
  bt.resize(static_cast<size_t>(k) * static_cast<size_t>(n));
  const float* bd = b.data();
  constexpr int64_t kBlk = 32;  // tiles keep both sides cache-resident
  for (int64_t j0 = 0; j0 < n; j0 += kBlk) {
    const int64_t j1 = std::min(n, j0 + kBlk);
    for (int64_t p0 = 0; p0 < k; p0 += kBlk) {
      const int64_t p1 = std::min(k, p0 + kBlk);
      for (int64_t j = j0; j < j1; ++j) {
        for (int64_t p = p0; p < p1; ++p) {
          bt[static_cast<size_t>(p * n + j)] = bd[j * k + p];
        }
      }
    }
  }
  internal::GemmDispatch(a.data(), /*as_i=*/k, /*as_p=*/1, bt.data(), c.data(),
                         m, k, n);
  return c;
}

Tensor AddValue(Tensor a, const Tensor& b) {
  if (a.SameShape(b)) {
    a.AddInPlace(b);
    return a;
  }
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(b.dim(0), 1);
  BA_CHECK_EQ(b.dim(1), a.dim(1));
  const int64_t m = a.dim(0), n = a.dim(1);
  float* v = a.data();
  const float* bias = b.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) v[i * n + j] += bias[j];
  }
  return a;
}

Tensor SubValue(Tensor a, const Tensor& b) {
  BA_CHECK(a.SameShape(b));
  for (int64_t i = 0; i < a.numel(); ++i) a.data()[i] -= b.data()[i];
  return a;
}

Tensor MulValue(Tensor a, const Tensor& b) {
  BA_CHECK(a.SameShape(b));
  for (int64_t i = 0; i < a.numel(); ++i) a.data()[i] *= b.data()[i];
  return a;
}

Tensor ScaleValue(Tensor a, float s) {
  a.ScaleInPlace(s);
  return a;
}

Tensor ReluValue(Tensor a) {
  for (int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = std::max(0.0f, a.data()[i]);
  }
  return a;
}

Tensor SigmoidValue(Tensor a) {
  for (int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = 1.0f / (1.0f + std::exp(-a.data()[i]));
  }
  return a;
}

Tensor TanhValue(Tensor a) {
  for (int64_t i = 0; i < a.numel(); ++i) a.data()[i] = std::tanh(a.data()[i]);
  return a;
}

Tensor SoftmaxValue(Tensor a, int axis) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK(axis == 0 || axis == 1);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor value = std::move(a);
  auto softmax_span = [](float* base, int64_t count, int64_t stride) {
    float max_v = base[0];
    for (int64_t i = 1; i < count; ++i) {
      max_v = std::max(max_v, base[i * stride]);
    }
    float total = 0.0f;
    for (int64_t i = 0; i < count; ++i) {
      base[i * stride] = std::exp(base[i * stride] - max_v);
      total += base[i * stride];
    }
    for (int64_t i = 0; i < count; ++i) base[i * stride] /= total;
  };
  if (axis == 1) {
    for (int64_t i = 0; i < m; ++i) softmax_span(value.data() + i * n, n, 1);
  } else {
    for (int64_t j = 0; j < n; ++j) softmax_span(value.data() + j, m, n);
  }
  return value;
}

Tensor ConcatRowsValue(const std::vector<const Tensor*>& parts) {
  BA_CHECK(!parts.empty());
  const int64_t cols = parts[0]->dim(1);
  int64_t rows = 0;
  for (const Tensor* p : parts) {
    BA_CHECK_EQ(p->rank(), 2);
    BA_CHECK_EQ(p->dim(1), cols);
    rows += p->dim(0);
  }
  Tensor value({rows, cols});
  int64_t offset = 0;
  for (const Tensor* p : parts) {
    std::copy(p->data(), p->data() + p->numel(), value.data() + offset * cols);
    offset += p->dim(0);
  }
  return value;
}

Tensor ConcatColsValue(const std::vector<const Tensor*>& parts) {
  BA_CHECK(!parts.empty());
  const int64_t rows = parts[0]->dim(0);
  int64_t cols = 0;
  for (const Tensor* p : parts) {
    BA_CHECK_EQ(p->rank(), 2);
    BA_CHECK_EQ(p->dim(0), rows);
    cols += p->dim(1);
  }
  Tensor value({rows, cols});
  int64_t offset = 0;
  for (const Tensor* p : parts) {
    const int64_t pc = p->dim(1);
    for (int64_t i = 0; i < rows; ++i) {
      std::copy(p->data() + i * pc, p->data() + (i + 1) * pc,
                value.data() + i * cols + offset);
    }
    offset += pc;
  }
  return value;
}

Tensor SumRowsValue(const Tensor& a) {
  BA_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor value({1, n});
  float* v = value.data();
  const float* x = a.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) v[j] += x[i * n + j];
  }
  return value;
}

Tensor MeanRowsValue(const Tensor& a) {
  return ScaleValue(SumRowsValue(a), 1.0f / static_cast<float>(a.dim(0)));
}

Tensor MaxRowsValue(const Tensor& a, std::vector<int64_t>* argmax) {
  BA_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  BA_CHECK_GT(m, 0);
  Tensor value({1, n});
  if (argmax != nullptr) argmax->assign(static_cast<size_t>(n), 0);
  for (int64_t j = 0; j < n; ++j) {
    float best = a.at(0, j);
    int64_t best_i = 0;
    for (int64_t i = 1; i < m; ++i) {
      if (a.at(i, j) > best) {
        best = a.at(i, j);
        best_i = i;
      }
    }
    value.at(0, j) = best;
    if (argmax != nullptr) (*argmax)[static_cast<size_t>(j)] = best_i;
  }
  return value;
}

Tensor SliceRowsValue(const Tensor& a, int64_t begin, int64_t end) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_GE(begin, 0);
  BA_CHECK_LE(end, a.dim(0));
  BA_CHECK_LT(begin, end);
  const int64_t n = a.dim(1);
  Tensor value({end - begin, n});
  std::copy(a.data() + begin * n, a.data() + end * n, value.data());
  return value;
}

Tensor TransposeValue(const Tensor& a) {
  BA_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor value({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) value.at(j, i) = a.at(i, j);
  }
  return value;
}

}  // namespace ba::tensor
