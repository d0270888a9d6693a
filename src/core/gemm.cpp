#include "core/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/simd/gemm_kernel.h"

namespace fluid::core {

namespace {

// Accumulates alpha·acc into the rows×cols corner of C at the given
// pointer. `acc_ld` is the kernel's NR (the packed accumulator stride).
inline void WriteBack(const float* acc, std::int64_t acc_ld, float alpha,
                      std::int64_t rows, std::int64_t cols, float* c,
                      std::int64_t ldc) {
  for (std::int64_t mr = 0; mr < rows; ++mr) {
    float* crow = c + mr * ldc;
    const float* arow = acc + mr * acc_ld;
    for (std::int64_t nr = 0; nr < cols; ++nr) {
      crow[nr] += alpha * arow[nr];
    }
  }
}

// Per-thread packing scratch; reused across calls so small GEMMs (the
// library's common case: 16×144-ish conv lowerings) never allocate.
// Packed A is static TLS sized for the largest MC×KC block of any tier:
// it exists from thread start, so no pool thread ever allocates on its
// first task — which task lands on which thread is decided dynamically,
// and a grow-on-demand buffer made "allocation-free in steady state"
// depend on that draw. Packed B is the caller's, sized per problem.
constexpr std::int64_t kApackFloats = 96 * 192;
alignas(64) thread_local float tl_apack[kApackFloats];
thread_local std::vector<float> tl_bpack;

// Tags for the packed-A cache: parallel tasks are (row block × jr group)
// pairs, so several tasks on one thread may share a row block. Each
// (jc, pc) iteration gets a fresh epoch; a task repacks A only when its
// thread's scratch holds a different (epoch, block). Task indices are
// blk-major, so consecutive tasks on a thread usually hit the cache and a
// single-threaded run packs each A block exactly once, like the pure
// M-partitioned driver did.
std::atomic<std::uint64_t> g_pack_epoch{0};
thread_local std::uint64_t tl_apack_epoch = 0;
thread_local std::int64_t tl_apack_blk = -1;

}  // namespace

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  FLUID_CHECK_MSG(m >= 0 && n >= 0 && k >= 0, "Gemm: negative dimension");
  if (m == 0 || n == 0) return;

  // Scale / clear C first so the accumulation passes are pure adds.
  // (beta == 0 overwrites C even if it holds garbage or NaN; beta == 1
  // skips the pass — accumulate-GEMMs shouldn't pay a pool dispatch for
  // an empty loop.)
  if (beta != 1.0F) {
    ParallelFor(0, m, 16, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        float* row = c + i * ldc;
        if (beta == 0.0F) {
          for (std::int64_t j = 0; j < n; ++j) row[j] = 0.0F;
        } else {
          for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
        }
      }
    });
  }
  if (k == 0 || alpha == 0.0F) return;

  // Blocking parameters, pack formats, and the microkernel all come from
  // the dispatch entry (CPUID-selected once, FLUID_SIMD override); the
  // driver below is tier-agnostic. Within a tier the blocking constants
  // are fixed, so every C element's accumulation order — and therefore
  // the result — is bitwise independent of the thread count.
  const simd::GemmKernel& kern = simd::ActiveGemmKernel();
  const std::int64_t MR = kern.mr, NR = kern.nr;
  const std::int64_t KC = kern.kc, MC = kern.mc, NC = kern.nc;

  // Shared packed-B block, sized to the actual problem (not the blocking
  // maxima). The buffer is only read inside the parallel region below, and
  // each (jc, pc) block finishes before the next is packed, so sharing the
  // caller's thread-local buffer is safe.
  auto& bpack = tl_bpack;
  core::EnsureScratch(bpack, std::min(KC, k) *
                                 ((std::min(NC, n) + NR - 1) / NR * NR));
  const std::int64_t m_blocks = (m + MC - 1) / MC;
  // Parallel tasks are (MC row block × jr panel group) pairs, so short,
  // wide GEMMs — the fused conv lowerings have only Cout ≤ MC rows —
  // still spread across cores. Group extent is a fixed multiple of NR,
  // so task boundaries never depend on the thread count.
  const std::int64_t jr_task_cols = 4 * NR;

  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    const std::int64_t nc_padded = (nc + NR - 1) / NR * NR;
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      kern.pack_b(b, ldb, trans_b, pc, jc, kc, nc, bpack.data());

      // Tasks own disjoint (row block, column group) tiles of C; packed B
      // is shared read-only. Every C element is accumulated by exactly
      // one task, in strictly increasing k order, so the floating-point
      // order per element never depends on the thread count.
      const std::uint64_t epoch =
          g_pack_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
      const std::int64_t jr_tasks =
          (nc_padded + jr_task_cols - 1) / jr_task_cols;
      ParallelForEach(0, m_blocks * jr_tasks, 1, [&](std::int64_t task) {
        const std::int64_t blk = task / jr_tasks;
        const std::int64_t jt = task % jr_tasks;
        const std::int64_t ic = blk * MC;
        const std::int64_t mc = std::min(MC, m - ic);
        const std::int64_t mc_padded = (mc + MR - 1) / MR * MR;
        float* apack = tl_apack;
        if (tl_apack_epoch != epoch || tl_apack_blk != blk) {
          FLUID_CHECK_MSG(mc_padded * kc <= kApackFloats,
                          "Gemm: packed A block exceeds its scratch");
          kern.pack_a(a, lda, trans_a, ic, pc, mc, kc, apack);
          tl_apack_epoch = epoch;
          tl_apack_blk = blk;
        }

        alignas(64) float acc[simd::kMaxMr * simd::kMaxNr];
        const std::int64_t jr_end =
            std::min(jr_task_cols * (jt + 1), nc_padded);
        for (std::int64_t jr = jt * jr_task_cols; jr < jr_end; jr += NR) {
          const float* bp = bpack.data() + jr * kc;
          const std::int64_t cols = std::min(NR, nc - jr);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t rows = std::min(MR, mc - ir);
            kern.micro(kc, apack + ir * kc, bp, acc);
            WriteBack(acc, NR, alpha, rows, cols,
                      c + (ic + ir) * ldc + jc + jr, ldc);
          }
        }
      });
    }
  }
}

}  // namespace fluid::core
