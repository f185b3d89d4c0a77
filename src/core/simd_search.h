// Branchless / SIMD in-node search over sorted Label arrays.
//
// Every descent level of both hot trees (the counted B+-tree's key arrays,
// the virtual store's entry runs) boils down to one primitive: the index of
// the first key >= (or >) a probe inside a short sorted array that now
// lives contiguously in the node's cache lines. For arrays this small
// (node order <= 64), a branch-free linear "count keys below the probe" is
// faster than std::lower_bound's unpredictable binary-search branches, and
// vectorizes naturally: AVX2 compares four labels per step.
//
// Kernels (all return exactly std::lower_bound / std::upper_bound indices;
// the array MUST be sorted ascending — the linear forms count comparisons,
// which only equals the bound index on sorted input):
//  * kScalar     — std::lower_bound reference (differential baseline only;
//    dispatch never selects it).
//  * kBranchless — branch-free linear sum; the portable fallback cpuid
//    dispatch selects on hosts without AVX2.
//  * kAvx2       — 4 labels/vector via _mm256_cmpgt_epi64 + sign flip.
//
// Dispatch is resolved once, on first use, from cpuid
// (__builtin_cpu_supports) — overridable by the LTREE_SEARCH_KERNEL env
// var (scalar|branchless|avx2) or SetKernelForTest(), which CI uses to
// exercise the branchless fallback on AVX2 hosts. The resolved function
// pointers live in relaxed atomics: initialization is idempotent, so a racy
// first call from two readers is benign (and TSan-clean).

#ifndef LTREE_CORE_SIMD_SEARCH_H_
#define LTREE_CORE_SIMD_SEARCH_H_

#include <cstdint>

#include "core/params.h"

namespace ltree {
namespace search {

enum class Kernel : uint8_t { kScalar = 0, kBranchless, kAvx2 };

/// Index of the first element >= key (std::lower_bound). `keys` must be
/// sorted ascending; n is the element count (node orders keep n <= 65, but
/// any length works). Dispatches to the resolved kernel.
uint32_t LowerBound(const Label* keys, uint32_t n, Label key);

/// Index of the first element > key (std::upper_bound).
uint32_t UpperBound(const Label* keys, uint32_t n, Label key);

// Per-kernel entry points for the differential test and the micro-bench.
// The AVX2 variants must only be called when KernelAvailable() says so.
uint32_t LowerBoundScalar(const Label* keys, uint32_t n, Label key);
uint32_t UpperBoundScalar(const Label* keys, uint32_t n, Label key);
uint32_t LowerBoundBranchless(const Label* keys, uint32_t n, Label key);
uint32_t UpperBoundBranchless(const Label* keys, uint32_t n, Label key);
uint32_t LowerBoundAvx2(const Label* keys, uint32_t n, Label key);
uint32_t UpperBoundAvx2(const Label* keys, uint32_t n, Label key);

/// True if this host can run `k`.
bool KernelAvailable(Kernel k);

/// The kernel the dispatcher resolved (forcing resolution if needed).
Kernel ActiveKernel();

/// "scalar" / "branchless" / "avx2".
const char* KernelName(Kernel k);

/// Forces the dispatcher to `k` (must be available). Used by the
/// differential test to cover every path and by LTREE_SEARCH_KERNEL.
void SetKernelForTest(Kernel k);

/// Re-resolves from cpuid + environment (undoes SetKernelForTest).
void ResetKernel();

/// Branch-free lower_bound over any sorted strided array via a key
/// projection: binary-narrows the window until it is scan-sized, then
/// finishes with a branch-free linear count. This is the AoS counterpart
/// of LowerBound for runs of {key, payload} structs (virtual L-Tree entry
/// runs, query-side tag buckets) that can be large — the binary phase keeps
/// O(log n), the final scan trades the last ~5 unpredictable branches for
/// predictable ALU work.
template <typename T, typename KeyFn>
inline uint32_t LowerBoundBy(const T* data, uint32_t n, Label key,
                             KeyFn key_of) {
  uint32_t lo = 0;
  uint32_t hi = n;
  while (hi - lo > 32) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (key_of(data[mid]) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  uint32_t pos = lo;
  for (uint32_t i = lo; i < hi; ++i) {
    pos += key_of(data[i]) < key ? 1u : 0u;
  }
  return pos;
}

}  // namespace search
}  // namespace ltree

#endif  // LTREE_CORE_SIMD_SEARCH_H_
