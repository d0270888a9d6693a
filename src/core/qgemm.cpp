#include "core/qgemm.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/simd/qgemm_kernel.h"

namespace fluid::core {

namespace {

// Writes (pc == 0) or accumulates (later k blocks) the rows×cols corner
// of the int32 accumulator tile into C.
inline void QWriteBack(const std::int32_t* acc, std::int64_t acc_ld,
                       bool overwrite, std::int64_t rows, std::int64_t cols,
                       std::int32_t* c, std::int64_t ldc) {
  for (std::int64_t mr = 0; mr < rows; ++mr) {
    std::int32_t* crow = c + mr * ldc;
    const std::int32_t* arow = acc + mr * acc_ld;
    if (overwrite) {
      for (std::int64_t nr = 0; nr < cols; ++nr) crow[nr] = arow[nr];
    } else {
      for (std::int64_t nr = 0; nr < cols; ++nr) crow[nr] += arow[nr];
    }
  }
}

// Per-thread packing scratch, grow-only like the fp32 driver's. Byte
// vectors: panel layout is the kernel's own (int16 pairs for the pmaddwd
// tiers, biased u8/s8 quads + comp row for vnni); the driver only strides
// between panels using the kernel's *_panel_bytes.
// Packed A is static TLS sized for the largest block of any tier, for
// the reason given in gemm.cpp: a pool thread's first task must not
// allocate.
constexpr std::int64_t kQApackBytes = 48 * 128 * 4;
alignas(64) thread_local std::uint8_t tl_qapack[kQApackBytes];
thread_local std::vector<std::uint8_t> tl_qbpack;

// Packed-A reuse tags (see gemm.cpp): several (row block × jr group)
// tasks on one thread share a row block; repack only on a block change.
std::atomic<std::uint64_t> g_qpack_epoch{0};
thread_local std::uint64_t tl_qapack_epoch = 0;
thread_local std::int64_t tl_qapack_blk = -1;

}  // namespace

void QGemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
               const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
               std::int64_t ldb, std::int32_t* c, std::int64_t ldc) {
  FLUID_CHECK_MSG(m >= 0 && n >= 0 && k >= 0, "QGemmInt8: negative dimension");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    ParallelFor(0, m, 16, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0);
      }
    });
    return;
  }

  const simd::QGemmKernel& kern = simd::ActiveQGemmKernel();
  const std::int64_t MR = kern.mr, NR = kern.nr;
  const std::int64_t KC = kern.kc, MC = kern.mc, NC = kern.nc;

  auto& bpack = tl_qbpack;
  {
    // kc/nc only shrink on tail blocks, so the first block's panel count
    // and stride bound every later one.
    const std::int64_t kc0 = std::min(KC, k);
    const std::int64_t nc0 = (std::min(NC, n) + NR - 1) / NR * NR;
    EnsureScratch(bpack, (nc0 / NR) * kern.b_panel_bytes(kc0));
  }
  const std::int64_t m_blocks = (m + MC - 1) / MC;
  const std::int64_t jr_task_cols = 4 * NR;

  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    const std::int64_t nc_padded = (nc + NR - 1) / NR * NR;
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      const std::int64_t a_panel = kern.a_panel_bytes(kc);
      const std::int64_t b_panel = kern.b_panel_bytes(kc);
      kern.pack_b(b, ldb, pc, jc, kc, nc, bpack.data());

      const std::uint64_t epoch =
          g_qpack_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
      const std::int64_t jr_tasks =
          (nc_padded + jr_task_cols - 1) / jr_task_cols;
      const bool overwrite = pc == 0;
      ParallelForEach(0, m_blocks * jr_tasks, 1, [&](std::int64_t task) {
        const std::int64_t blk = task / jr_tasks;
        const std::int64_t jt = task % jr_tasks;
        const std::int64_t ic = blk * MC;
        const std::int64_t mc = std::min(MC, m - ic);
        const std::int64_t mc_padded = (mc + MR - 1) / MR * MR;
        std::uint8_t* apack = tl_qapack;
        if (tl_qapack_epoch != epoch || tl_qapack_blk != blk) {
          FLUID_CHECK_MSG((mc_padded / MR) * a_panel <= kQApackBytes,
                          "QGemmInt8: packed A block exceeds its scratch");
          kern.pack_a(a, lda, ic, pc, mc, kc, apack);
          tl_qapack_epoch = epoch;
          tl_qapack_blk = blk;
        }

        alignas(64) std::int32_t acc[simd::kMaxQMr * simd::kMaxQNr];
        const std::int64_t jr_end =
            std::min(jr_task_cols * (jt + 1), nc_padded);
        for (std::int64_t jr = jt * jr_task_cols; jr < jr_end; jr += NR) {
          const std::uint8_t* bp = bpack.data() + (jr / NR) * b_panel;
          const std::int64_t cols = std::min(NR, nc - jr);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t rows = std::min(MR, mc - ir);
            kern.micro(kc, apack + (ir / MR) * a_panel, bp, acc);
            QWriteBack(acc, NR, overwrite, rows, cols,
                       c + (ic + ir) * ldc + jc + jr, ldc);
          }
        }
      });
    }
  }
}

}  // namespace fluid::core
