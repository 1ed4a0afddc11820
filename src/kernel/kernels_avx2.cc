// AVX2 kernel variants. This translation unit is compiled with -mavx2
// (see src/kernel/CMakeLists.txt) and only when the compiler accepts the
// flag; runtime CPU detection in dispatch.cc decides whether the table is
// ever used. Everything here must be bit-identical to the scalar table:
// the vector loops only batch work whose per-element result is exact
// (byte shuffles, integer compares, independent IEEE multiplies) and
// leave every order-sensitive reduction to the same sequential code the
// scalar table runs. The decoder must also fail closed exactly like the
// scalar one: it accepts the same blocks and rejects the rest as
// kDataLoss, with every load bounded by the block end (see GvDecodeAvx2).

#ifdef TEXTJOIN_HAVE_AVX2

#include <immintrin.h>

#include "kernel/kernels.h"
#include "kernel/kernels_common.h"

namespace textjoin {
namespace kernel {

namespace {

Status GvDecodeAvx2(const uint8_t* bytes, int64_t byte_length, int64_t count,
                    ICell* out, int64_t* consumed) {
  if (count <= 0) {
    if (consumed != nullptr) *consumed = 0;
    return count == 0 ? Status::OK()
                      : Status::DataLoss("negative posting block cell count");
  }
  const int64_t num_values = 2 * count;
  const int64_t ctrl_bytes = GvControlBytes(count);
  if (ctrl_bytes > byte_length) {
    return Status::DataLoss("group-varint control region overruns block");
  }
  const uint8_t* limit = bytes + byte_length;
  const GvTables& t = GetGvTables();
  internal::GvCursor cur;
  cur.p = bytes + ctrl_bytes;

  // Two groups per iteration: the second 16-byte lane loads at the first
  // group's payload end (a table lookup away), and one 256-bit shuffle
  // expands both groups to eight dwords — g0 w0 g1 w1 | g2 w2 g3 w3.
  // `p + 32 <= limit` bounds both lane loads (len0 <= 16), and covers
  // both groups' payload outright.
  //
  // The emit is vectorized too: gather the four gaps and four weights,
  // range-check them, prefix-sum the gaps in-register and interleave with
  // the weights into four 8-byte cells. All integer-exact. Fail-closed
  // acceptance is unchanged: scalar accepts iff every cumulative document
  // <= kMaxDocId and every weight <= 0xFFFF; here a gap > kMaxDocId
  // implies its cumulative document overruns (gaps are nonnegative), and
  // once every gap and the carry are <= kMaxDocId < 2^24 the four 32-bit
  // prefix sums cannot wrap (< 5 * 2^24), so the lane checks below accept
  // exactly the same blocks.
  const int64_t full_groups = num_values / 4;
  int64_t g = 0;
  const __m256i gather_gaps = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i gather_wts = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  const __m128i max_doc = _mm_set1_epi32(static_cast<int32_t>(kMaxDocId));
  const __m128i max_wt = _mm_set1_epi32(0xFFFF);
  while (g + 2 <= full_groups && cur.p + 32 <= limit) {
    const uint8_t c0 = bytes[g];
    const uint8_t c1 = bytes[g + 1];
    const int len0 = t.length[c0];
    const __m128i s0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur.p));
    const __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur.p + len0));
    const __m256i mask = _mm256_set_m128i(
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.shuffle[c1])),
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.shuffle[c0])));
    const __m256i x = _mm256_shuffle_epi8(_mm256_set_m128i(s1, s0), mask);
    const __m128i gaps = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(x, gather_gaps));
    const __m128i wts = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(x, gather_wts));
    // Unsigned range checks via min: ok lane <=> min(v, max) == v.
    const __m128i ok_in = _mm_and_si128(
        _mm_cmpeq_epi32(_mm_min_epu32(gaps, max_doc), gaps),
        _mm_cmpeq_epi32(_mm_min_epu32(wts, max_wt), wts));
    if (_mm_movemask_epi8(ok_in) != 0xFFFF) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    __m128i pre = _mm_add_epi32(gaps, _mm_slli_si128(gaps, 4));
    pre = _mm_add_epi32(pre, _mm_slli_si128(pre, 8));
    const __m128i docs = _mm_add_epi32(
        pre, _mm_set1_epi32(static_cast<int32_t>(cur.doc)));
    const __m128i ok_doc =
        _mm_cmpeq_epi32(_mm_min_epu32(docs, max_doc), docs);
    if (_mm_movemask_epi8(ok_doc) != 0xFFFF) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    ICell* o = out + (cur.v >> 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o),
                     _mm_unpacklo_epi32(docs, wts));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 2),
                     _mm_unpackhi_epi32(docs, wts));
    cur.doc = static_cast<uint32_t>(_mm_extract_epi32(docs, 3));
    cur.v += 8;
    cur.p += len0 + t.length[c1];
    g += 2;
  }
  TEXTJOIN_RETURN_IF_ERROR(internal::GvDecodeScalarGroups(
      bytes, g, ctrl_bytes, num_values, limit, &cur, out));
  if (consumed != nullptr) *consumed = cur.p - bytes;
  return Status::OK();
}

void ScaleCellsAvx2(const ICell* cells, int64_t n, double w2, double factor,
                    double* out) {
  const __m256d w2v = _mm256_set1_pd(w2);
  const __m256d fv = _mm256_set1_pd(factor);
  // Within each 128-bit lane (two 8-byte cells), gather the uint16
  // weights at byte offsets 4..5 and 12..13 into zero-extended dwords 0
  // and 1; the cross-lane permute then compacts the four weights.
  const __m256i shuf = _mm256_setr_epi8(
      4, 5, -128, -128, 12, 13, -128, -128, -128, -128, -128, -128, -128,
      -128, -128, -128, 4, 5, -128, -128, 12, 13, -128, -128, -128, -128,
      -128, -128, -128, -128, -128, -128);
  const __m256i pack = _mm256_setr_epi32(0, 1, 4, 5, 0, 0, 0, 0);
  int64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + k));
    const __m128i w4 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(v, shuf), pack));
    const __m256d w = _mm256_cvtepi32_pd(w4);
    _mm256_storeu_pd(out + k, _mm256_mul_pd(_mm256_mul_pd(w, w2v), fv));
  }
  internal::ScaleCellsScalarImpl(cells + k, n - k, w2, factor, out + k);
}

void PairBoundsAvx2(const double* cands, int64_t n, double fixed_max,
                    double fixed_sum, double fixed_norm, double fixed_inv,
                    bool fixed_is_a, double* out) {
  const __m256d fm = _mm256_set1_pd(fixed_max);
  const __m256d fs = _mm256_set1_pd(fixed_sum);
  const __m256d fn = _mm256_set1_pd(fixed_norm);
  const __m256d fi = _mm256_set1_pd(fixed_inv);
  int64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const double* c = cands + 4 * k;
    // 4x4 transpose of the DocBounds rows into field vectors.
    const __m256d r0 = _mm256_loadu_pd(c);
    const __m256d r1 = _mm256_loadu_pd(c + 4);
    const __m256d r2 = _mm256_loadu_pd(c + 8);
    const __m256d r3 = _mm256_loadu_pd(c + 12);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // max0 max1 norm0 norm1
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // sum0 sum1 inv0 inv1
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    const __m256d maxs = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d norms = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d sums = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d invs = _mm256_permute2f128_pd(t1, t3, 0x31);
    const __m256d h1 = _mm256_mul_pd(fm, sums);
    const __m256d h2 = _mm256_mul_pd(fs, maxs);
    const __m256d cs = _mm256_mul_pd(fn, norms);
    const __m256d m3 = _mm256_min_pd(_mm256_min_pd(h1, h2), cs);
    const __m256d r = fixed_is_a
                          ? _mm256_mul_pd(_mm256_mul_pd(m3, fi), invs)
                          : _mm256_mul_pd(_mm256_mul_pd(m3, invs), fi);
    _mm256_storeu_pd(out + k, r);
  }
  internal::PairBoundsScalarImpl(cands + 4 * k, n - k, fixed_max, fixed_sum,
                                 fixed_norm, fixed_inv, fixed_is_a, out + k);
}

}  // namespace

const KernelTable kAvx2Table = {"avx2", GvDecodeAvx2, ScaleCellsAvx2,
                                PairBoundsAvx2};

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_HAVE_AVX2
