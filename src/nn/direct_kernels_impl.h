// The direct kernels of nn/direct_kernels.h, written once over a vector
// traits type V and instantiated per dispatch tier. Deliberately no
// #pragma once and no includes: each tier translation unit includes its
// dependencies (<algorithm>, <cstdint>, <utility>, nn/direct_kernels.h)
// first and then this file inside its own `#pragma GCC target` region, so
// every function below is compiled for that tier's ISA.
//
// V provides:
//   T                       one vector of kLanes floats
//   kLanes, kMaxCols        lanes per vector; widest tile in output columns
//                           (even, so pooled tiles cover whole windows)
//   Zero, Set1, Load, Store
//   Fma(a, b, c)            a·b + c with a single rounding
//   Add, Mul
//   SelectPositive(v, o)    v > 0 ? v : o  (ordered: NaN takes o)
//   KeepGreater(v, best)    v > best ? v : best  (NaN keeps best)

namespace fluid::nn::direct_detail {

// Same floor as MaxPool2d: a window keeps a value only when it compares
// greater, so NaNs and values at or below the floor never win.
inline constexpr float kPoolFloor = -3.4e38F;

template <class V>
struct Direct {
  using T = typename V::T;
  static constexpr int L = V::kLanes;
  static constexpr int kMaxCols = V::kMaxCols;
  static_assert(kMaxCols % 2 == 0, "pooled tiles need whole windows");
  static_assert(kDirectLanes % L == 0, "lane groups must tile out_pad");

  static T Activate(const DirectConvArgs& a, T v) {
    switch (a.act) {
      case DirectAct::kRelu:
        return V::SelectPositive(v, V::Zero());
      case DirectAct::kLeaky:
        return V::SelectPositive(v, V::Mul(V::Set1(a.slope), v));
      case DirectAct::kNone:
        break;
    }
    return v;
  }

  // One register tile: ROWS conv rows (2 when pooling) × R conv columns
  // starting at (y0, x0), for the L output channels from lane0. Every
  // accumulator runs its own FMA chain from 0 over the patch in
  // (cin, ky, kx) order — the im2col row order core::Gemm reduces in.
  template <bool POOL, int R>
  static void Tile(const DirectConvArgs& a, std::int64_t lane0,
                   std::int64_t y0, std::int64_t x0) {
    constexpr int ROWS = POOL ? 2 : 1;
    // Fully unrolled (R and ROWS are compile-time), so the accumulators
    // live in vector registers for the whole patch.
    T acc[ROWS][R];
#pragma GCC unroll 16
    for (int r = 0; r < ROWS; ++r) {
#pragma GCC unroll 16
      for (int c = 0; c < R; ++c) acc[r][c] = V::Zero();
    }
    const std::int64_t plane = a.hp * a.wp;
    const float* w = a.w + lane0;
    for (std::int64_t ci = 0; ci < a.cin; ++ci) {
      const float* base = a.in + ci * plane + y0 * a.wp + x0;
      for (std::int64_t ky = 0; ky < a.kernel; ++ky) {
        const float* row0 = base + ky * a.wp;
        const float* row1 = row0 + a.wp;
        for (std::int64_t kx = 0; kx < a.kernel; ++kx, w += a.out_pad) {
          const T wv = V::Load(w);
#pragma GCC unroll 16
          for (int c = 0; c < R; ++c) {
            acc[0][c] = V::Fma(V::Set1(row0[kx + c]), wv, acc[0][c]);
          }
          if constexpr (POOL) {
#pragma GCC unroll 16
            for (int c = 0; c < R; ++c) {
              acc[1][c] = V::Fma(V::Set1(row1[kx + c]), wv, acc[1][c]);
            }
          }
        }
      }
    }

    // Epilogue: (0 + acc) + bias, activation, then the pool's
    // `v > best` in MaxPool2d's window order (row-major), staged per
    // output pixel and stored transposed into the NCHW planes.
    const T bias = V::Load(a.bias + lane0);
    alignas(64) float stage[(POOL ? R / 2 : R) * L];
    const auto value = [&](int r, int c) {
      return Activate(a, V::Add(V::Add(V::Zero(), acc[r][c]), bias));
    };
    if constexpr (POOL) {
#pragma GCC unroll 16
      for (int j = 0; j < R / 2; ++j) {
        T best = V::Set1(kPoolFloor);
        best = V::KeepGreater(value(0, 2 * j), best);
        best = V::KeepGreater(value(0, 2 * j + 1), best);
        best = V::KeepGreater(value(1, 2 * j), best);
        best = V::KeepGreater(value(1, 2 * j + 1), best);
        V::Store(stage + j * L, best);
      }
    } else {
#pragma GCC unroll 16
      for (int c = 0; c < R; ++c) V::Store(stage + c * L, value(0, c));
    }
    constexpr int kPix = POOL ? R / 2 : R;
    const std::int64_t out_h = POOL ? a.oh / 2 : a.oh;
    const std::int64_t out_w = POOL ? a.ow / 2 : a.ow;
    const std::int64_t oy = POOL ? y0 / 2 : y0;
    const std::int64_t ox = POOL ? x0 / 2 : x0;
    const std::int64_t lanes = std::min<std::int64_t>(L, a.cout - lane0);
    for (std::int64_t l = 0; l < lanes; ++l) {
      float* dst = a.out + (lane0 + l) * out_h * out_w + oy * out_w + ox;
      for (int j = 0; j < kPix; ++j) dst[j] = stage[j * L + l];
    }
  }

  using TileFn = void (*)(const DirectConvArgs&, std::int64_t, std::int64_t,
                          std::int64_t);

  template <bool POOL, std::size_t... I>
  static constexpr auto MakeTiles(std::index_sequence<I...>) {
    // Index 0 is never called (a tile has at least one column).
    return std::array<TileFn, sizeof...(I)>{
        (I == 0 ? nullptr : &Tile<POOL, (I == 0 ? 1 : static_cast<int>(I))>)...};
  }

  static void Conv(const DirectConvArgs& a) {
    static constexpr auto kPlain =
        MakeTiles<false>(std::make_index_sequence<kMaxCols + 1>{});
    static constexpr auto kPooled =
        MakeTiles<true>(std::make_index_sequence<kMaxCols + 1>{});
    const auto& tiles = a.pool ? kPooled : kPlain;
    // Pooling computes only the conv rows/columns some window reads.
    const std::int64_t rows = a.pool ? a.oh / 2 : a.oh;
    const std::int64_t cols = a.pool ? a.ow / 2 * 2 : a.ow;
    for (std::int64_t lane0 = 0; lane0 < a.cout; lane0 += L) {
      for (std::int64_t oy = 0; oy < rows; ++oy) {
        const std::int64_t y0 = a.pool ? 2 * oy : oy;
        for (std::int64_t x0 = 0; x0 < cols;) {
          const std::int64_t r = std::min<std::int64_t>(kMaxCols, cols - x0);
          tiles[static_cast<std::size_t>(r)](a, lane0, y0, x0);
          x0 += r;
        }
      }
    }
  }

  static void Dense(const DirectDenseArgs& a) {
    alignas(64) float stage[L];
    for (std::int64_t n = 0; n < a.rows; ++n) {
      const float* x = a.in + n * a.in_features;
      float* y = a.out + n * a.out_features;
      for (std::int64_t lane0 = 0; lane0 < a.out_features; lane0 += L) {
        const float* w = a.w + lane0;
        T total = V::Zero();
        for (std::int64_t p0 = 0; p0 < a.in_features; p0 += a.kc) {
          const std::int64_t p1 = std::min(a.in_features, p0 + a.kc);
          T acc = V::Zero();
          for (std::int64_t p = p0; p < p1; ++p) {
            acc = V::Fma(V::Set1(x[p]), V::Load(w + p * a.out_pad), acc);
          }
          total = V::Add(total, acc);
        }
        V::Store(stage, V::Add(total, V::Load(a.bias + lane0)));
        const std::int64_t lanes =
            std::min<std::int64_t>(L, a.out_features - lane0);
        for (std::int64_t l = 0; l < lanes; ++l) y[lane0 + l] = stage[l];
      }
    }
  }
};

}  // namespace fluid::nn::direct_detail
