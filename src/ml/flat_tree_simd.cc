// AVX2 flat-tree traversal kernels. This translation unit is the only one
// compiled with -mavx2 (and only when the HOTSPOT_SIMD CMake option is ON
// and the compiler accepts the flag); everything else in the library stays
// portable. Callers must gate on FlatForest::SimdSupported() — the CPUID
// check — before dispatching here; without AVX2 the stubs below forward to
// the scalar kernels, which are bitwise identical.
#include "ml/flat_tree.h"

#include "util/logging.h"

#if defined(HOTSPOT_SIMD_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#endif

// GCC expands the no-source-operand gather intrinsics with an undefined
// accumulator register, which -Wmaybe-uninitialized flags inside the
// intrinsic headers themselves; silence that one diagnostic here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace hotspot::ml::flat_detail {

#if defined(HOTSPOT_SIMD_AVX2) && defined(__AVX2__)

// The AVX-512 upgrade rides along in this TU via per-function target
// attributes (the TU itself stays -mavx2, so no AVX-512 instruction can
// leak into the AVX2 paths); it is gated at runtime on AVX-512F.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HOTSPOT_FLAT_AVX512 1
#endif

bool Avx2Compiled() { return true; }

bool Avx512Compiled() {
#if defined(HOTSPOT_FLAT_AVX512)
  return true;
#else
  return false;
#endif
}

namespace {

/// Adds the gathered leaf values (f64) for the 8 lanes of `node` into the
/// two 4-lane accumulators.
inline void AccumulateLeaves(const double* leaf_value, __m256i node,
                             __m256d* acc_lo, __m256d* acc_hi) {
  const __m128i node_lo = _mm256_castsi256_si128(node);
  const __m128i node_hi = _mm256_extracti128_si256(node, 1);
  *acc_lo = _mm256_add_pd(*acc_lo,
                          _mm256_i32gather_pd(leaf_value, node_lo, 8));
  *acc_hi = _mm256_add_pd(*acc_hi,
                          _mm256_i32gather_pd(leaf_value, node_hi, 8));
}

/// One traversal level for 8 row lanes of one tree. `packed` is the
/// already-gathered packed word for `node` ((feature << 1) | miss_bit,
/// -1 at leaves) and `active` its leaf mask; returns the next node vector
/// (inactive lanes keep their leaf). Three gathers per level — packed is
/// gathered by the caller so two trees' loads can issue back to back.
inline __m256i AdvanceLevel(const FlatView& view, const float* rows,
                            __m256i lane_offset, __m256i node, __m256i packed,
                            __m256i active) {
  // feature = packed >> 1 (arithmetic, so leaf lanes stay -1); clamp leaf
  // lanes to feature 0 so the masked gather address is always in-bounds —
  // those lanes are masked off anyway.
  const __m256i safe_feat = _mm256_max_epi32(_mm256_srai_epi32(packed, 1),
                                             _mm256_setzero_si256());
  const __m256i value_index = _mm256_add_epi32(lane_offset, safe_feat);
  const __m256 value = _mm256_mask_i32gather_ps(
      _mm256_setzero_ps(), rows, value_index, _mm256_castsi256_ps(active), 4);
  const __m256 threshold = _mm256_i32gather_ps(view.threshold, node, 4);
  const __m256i left = _mm256_i32gather_epi32(view.left, node, 4);
  // miss_left as an all-ones mask: broadcast bit 0 of packed through the
  // sign position.
  const __m256i miss =
      _mm256_srai_epi32(_mm256_slli_epi32(packed, 31), 31);
  // go_left = (v <= threshold) | (isnan(v) & miss_left) — the same
  // decision as the scalar kernel; LE_OQ is false for NaN operands
  // exactly like the scalar comparison.
  const __m256 is_nan = _mm256_cmp_ps(value, value, _CMP_UNORD_Q);
  const __m256 le = _mm256_cmp_ps(value, threshold, _CMP_LE_OQ);
  const __m256 go_left =
      _mm256_or_ps(le, _mm256_and_ps(is_nan, _mm256_castsi256_ps(miss)));
  // Adjacent-sibling layout: right == left + 1, so the right child is an
  // add instead of a gather.
  const __m256i step = _mm256_andnot_si256(_mm256_castps_si256(go_left),
                                           _mm256_set1_epi32(1));
  const __m256i next = _mm256_add_epi32(left, step);
  return _mm256_blendv_epi8(node, next, active);
}

#if defined(HOTSPOT_FLAT_AVX512)

/// One tree's node arrays held in zmm registers. With at most 32 nodes per
/// tree every per-level node lookup becomes a two-table register permute
/// (vpermi2d, ~1 cycle) instead of a memory gather; the only gather left
/// per level is the per-lane feature value load. Node indices are kept
/// relative to the tree base so they fit the 5-bit permute selector.
struct TreeTables {
  __m512i packed_lo, packed_hi;
  __m512i thr_lo, thr_hi;    ///< float threshold bits
  __m512i left_lo, left_hi;  ///< left child relative to the tree base
  int32_t base;
};

__attribute__((target("avx512f"))) inline TreeTables LoadTreeTables(
    const FlatView& view, int32_t tree) {
  TreeTables tables;
  const int32_t base = view.roots[tree];
  const int32_t end =
      tree + 1 < view.num_trees ? view.roots[tree + 1] : view.num_nodes;
  const int32_t count = end - base;
  tables.base = base;
  // Masked loads fault-suppress the lanes past the tree's node count, so
  // short trees never read out of bounds; those table slots are never
  // selected (node indices stay below `count`).
  const __mmask16 lo = count >= 16
                           ? static_cast<__mmask16>(0xFFFFu)
                           : static_cast<__mmask16>((1u << count) - 1u);
  const __mmask16 hi =
      count > 16 ? static_cast<__mmask16>((1u << (count - 16)) - 1u)
                 : static_cast<__mmask16>(0);
  const __m512i vbase = _mm512_set1_epi32(base);
  tables.packed_lo = _mm512_maskz_loadu_epi32(lo, view.packed + base);
  tables.thr_lo = _mm512_maskz_loadu_epi32(lo, view.threshold + base);
  tables.left_lo = _mm512_sub_epi32(
      _mm512_maskz_loadu_epi32(lo, view.left + base), vbase);
  if (hi != 0) {
    tables.packed_hi = _mm512_maskz_loadu_epi32(hi, view.packed + base + 16);
    tables.thr_hi = _mm512_maskz_loadu_epi32(hi, view.threshold + base + 16);
    tables.left_hi = _mm512_sub_epi32(
        _mm512_maskz_loadu_epi32(hi, view.left + base + 16), vbase);
  } else {
    tables.packed_hi = _mm512_setzero_si512();
    tables.thr_hi = _mm512_setzero_si512();
    tables.left_hi = _mm512_setzero_si512();
  }
  return tables;
}

/// 16-lane sibling of AdvanceLevel, with the node arrays in registers.
/// Same decision, same blend discipline — bitwise identical scores.
__attribute__((target("avx512f"))) inline __m512i Advance16(
    const TreeTables& tables, const float* rows, __m512i lane_offset,
    __m512i node, __m512i packed, __mmask16 active) {
  const __m512i safe_feat = _mm512_max_epi32(_mm512_srai_epi32(packed, 1),
                                             _mm512_setzero_si512());
  const __m512i value_index = _mm512_add_epi32(lane_offset, safe_feat);
  const __m512 value = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), active,
                                                value_index, rows, 4);
  const __m512 threshold = _mm512_castsi512_ps(
      _mm512_permutex2var_epi32(tables.thr_lo, node, tables.thr_hi));
  const __m512i left =
      _mm512_permutex2var_epi32(tables.left_lo, node, tables.left_hi);
  const __mmask16 is_nan = _mm512_cmp_ps_mask(value, value, _CMP_UNORD_Q);
  const __mmask16 le = _mm512_cmp_ps_mask(value, threshold, _CMP_LE_OQ);
  const __mmask16 miss =
      _mm512_test_epi32_mask(packed, _mm512_set1_epi32(1));
  const __mmask16 go_left =
      static_cast<__mmask16>(le | (is_nan & miss));
  // Adjacent-sibling layout: right == left + 1.
  const __m512i next = _mm512_mask_add_epi32(
      left, static_cast<__mmask16>(~go_left), left, _mm512_set1_epi32(1));
  return _mm512_mask_blend_epi32(active, node, next);
}

/// Adds the gathered leaf values (f64) for the 16 lanes of `node` (absolute
/// indices) into the two 8-lane accumulators.
__attribute__((target("avx512f"))) inline void Accumulate16(
    const double* leaf_value, __m512i node, __m512d* acc_lo,
    __m512d* acc_hi) {
  const __m256i node_lo = _mm512_castsi512_si256(node);
  const __m256i node_hi = _mm512_extracti64x4_epi64(node, 1);
  *acc_lo =
      _mm512_add_pd(*acc_lo, _mm512_i32gather_pd(node_lo, leaf_value, 8));
  *acc_hi =
      _mm512_add_pd(*acc_hi, _mm512_i32gather_pd(node_hi, leaf_value, 8));
}

/// 16-row traversal for forests whose largest tree fits the
/// register tables. Trees are traversed in pairs (independent chains hide
/// the value-gather latency) and leaf values still accumulate in tree
/// order, so the per-lane float addition sequence — and therefore the
/// scores — stays bitwise identical to the scalar kernel.
__attribute__((target("avx512f"))) void TraverseBlock16Avx512(
    const FlatView& view, const float* rows, int stride, double* acc) {
  const __m512i lane_offset = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                        15),
      _mm512_set1_epi32(stride));
  const __m512i minus_one = _mm512_set1_epi32(-1);
  __m512d acc_lo = _mm512_loadu_pd(acc);
  __m512d acc_hi = _mm512_loadu_pd(acc + 8);
  int32_t t = 0;
  for (; t + 1 < view.num_trees; t += 2) {
    const TreeTables t0 = LoadTreeTables(view, t);
    const TreeTables t1 = LoadTreeTables(view, t + 1);
    // The root is slot 0 of its tree, so relative node indices start at 0.
    __m512i node0 = _mm512_setzero_si512();
    __m512i node1 = _mm512_setzero_si512();
    for (;;) {
      const __m512i packed0 =
          _mm512_permutex2var_epi32(t0.packed_lo, node0, t0.packed_hi);
      const __m512i packed1 =
          _mm512_permutex2var_epi32(t1.packed_lo, node1, t1.packed_hi);
      const __mmask16 active0 = _mm512_cmpgt_epi32_mask(packed0, minus_one);
      const __mmask16 active1 = _mm512_cmpgt_epi32_mask(packed1, minus_one);
      if (static_cast<__mmask16>(active0 | active1) == 0) break;
      node0 = Advance16(t0, rows, lane_offset, node0, packed0, active0);
      node1 = Advance16(t1, rows, lane_offset, node1, packed1, active1);
    }
    Accumulate16(view.leaf_value,
                 _mm512_add_epi32(node0, _mm512_set1_epi32(t0.base)),
                 &acc_lo, &acc_hi);
    Accumulate16(view.leaf_value,
                 _mm512_add_epi32(node1, _mm512_set1_epi32(t1.base)),
                 &acc_lo, &acc_hi);
  }
  for (; t < view.num_trees; ++t) {
    const TreeTables tables = LoadTreeTables(view, t);
    __m512i node = _mm512_setzero_si512();
    for (;;) {
      const __m512i packed = _mm512_permutex2var_epi32(tables.packed_lo,
                                                       node,
                                                       tables.packed_hi);
      const __mmask16 active = _mm512_cmpgt_epi32_mask(packed, minus_one);
      if (active == 0) break;
      node = Advance16(tables, rows, lane_offset, node, packed, active);
    }
    Accumulate16(view.leaf_value,
                 _mm512_add_epi32(node, _mm512_set1_epi32(tables.base)),
                 &acc_lo, &acc_hi);
  }
  _mm512_storeu_pd(acc, acc_lo);
  _mm512_storeu_pd(acc + 8, acc_hi);
}

#endif  // HOTSPOT_FLAT_AVX512

}  // namespace

void TraverseBlockAvx2(const FlatView& view, const float* rows, int n,
                       int stride, double* acc) {
#if defined(HOTSPOT_FLAT_AVX512)
  // The forest asks for 16 rows only when this kernel is live and every
  // tree fits the register tables (FlatForest::block_rows()).
  if (n == 2 * kBlockRows) {
    TraverseBlock16Avx512(view, rows, stride, acc);
    return;
  }
#endif
  HOTSPOT_CHECK_EQ(n, kBlockRows);
  const __m256i lane_offset =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(stride));
  const __m256i minus_one = _mm256_set1_epi32(-1);
  __m256d acc_lo = _mm256_loadu_pd(acc);
  __m256d acc_hi = _mm256_loadu_pd(acc + 4);
  int32_t t = 0;
  // Trees are traversed in pairs: the two traversals are independent, so
  // their gathers overlap and hide each other's latency. Leaf values still
  // accumulate in tree order (t before t + 1), keeping the per-lane float
  // addition sequence — and therefore the scores — bitwise identical to
  // the scalar kernel.
  for (; t + 1 < view.num_trees; t += 2) {
    __m256i node0 = _mm256_set1_epi32(view.roots[t]);
    __m256i node1 = _mm256_set1_epi32(view.roots[t + 1]);
    for (;;) {
      const __m256i packed0 = _mm256_i32gather_epi32(view.packed, node0, 4);
      const __m256i packed1 = _mm256_i32gather_epi32(view.packed, node1, 4);
      // A lane is active until it reaches a leaf (packed == -1).
      const __m256i active0 = _mm256_cmpgt_epi32(packed0, minus_one);
      const __m256i active1 = _mm256_cmpgt_epi32(packed1, minus_one);
      const __m256i any = _mm256_or_si256(active0, active1);
      if (_mm256_testz_si256(any, any)) break;
      node0 = AdvanceLevel(view, rows, lane_offset, node0, packed0, active0);
      node1 = AdvanceLevel(view, rows, lane_offset, node1, packed1, active1);
    }
    AccumulateLeaves(view.leaf_value, node0, &acc_lo, &acc_hi);
    AccumulateLeaves(view.leaf_value, node1, &acc_lo, &acc_hi);
  }
  for (; t < view.num_trees; ++t) {
    __m256i node = _mm256_set1_epi32(view.roots[t]);
    for (;;) {
      const __m256i packed = _mm256_i32gather_epi32(view.packed, node, 4);
      const __m256i active = _mm256_cmpgt_epi32(packed, minus_one);
      if (_mm256_testz_si256(active, active)) break;
      node = AdvanceLevel(view, rows, lane_offset, node, packed, active);
    }
    AccumulateLeaves(view.leaf_value, node, &acc_lo, &acc_hi);
  }
  _mm256_storeu_pd(acc, acc_lo);
  _mm256_storeu_pd(acc + 4, acc_hi);
}

#else  // !HOTSPOT_SIMD_AVX2

bool Avx2Compiled() { return false; }

bool Avx512Compiled() { return false; }

void TraverseBlockAvx2(const FlatView& view, const float* rows, int n,
                       int stride, double* acc) {
  TraverseBlockScalar(view, rows, n, stride, acc);
}

#endif  // HOTSPOT_SIMD_AVX2

}  // namespace hotspot::ml::flat_detail
