//! AVX2 kernels for the 8×8 transforms and the fused quantiser.
//!
//! Each kernel runs the scalar kernel's arithmetic on eight `i32` lanes,
//! so it is exact wherever no lane overflows; the callers in [`crate::dct`]
//! and [`crate::quant`] send every other block to the scalar kernels.
//!
//! * **Forward AAN** — a block is eight row vectors. One 8×8 transpose
//!   turns them into column vectors, so one 8-lane butterfly runs the row
//!   pass on all eight rows; a second transpose sets up the column pass,
//!   whose output is already row-major. For samples in ±255
//!   ([`crate::dct::FDCT_I32_LIMIT`]) every product stays below
//!   `6.3·10^8`, so `mullo_epi32` + `srai` reproduce the scalar
//!   `i64` fixed-point multiply.
//! * **Inverse AAN** — coefficient rows already hold one column per lane,
//!   so the column pass needs no transpose; the row pass and the
//!   row-major output need one each. Sums stay in `i32` lanes and the
//!   `fmul64` steps use 64-bit `mul_epi32` products, exact while every
//!   `|coefficient| ≤ 2^20` ([`crate::dct::IDCT_I32_LIMIT`]).
//! * **Quantiser** — `|c|` is clamped to `FusedTables::sat` with an
//!   unsigned min, which keeps every product below `2^31` (see
//!   [`crate::quant::FusedTables`]); `sign_epi32` restores the sign.
//! * **Motion SAD** — two 16-pixel rows per `vpsadbw`, with the current
//!   macroblock held contiguously so each row pair is one 32-byte load.
//!   The running-best abort is checked after every row pair instead of
//!   every row: a candidate whose true SAD is below the limit still never
//!   aborts, so accepted candidates get exact sums and the search is
//!   unchanged (see [`crate::motion`]). Half-pel rows interpolate with
//!   `vpavgb` and the exact `u16` four-tap average, as the SSE2 rows do.
//!
//! An [`Avx2`] value is the proof that the host runs AVX2: it is built
//! only by [`Avx2::detect`], and the kernels are its methods.

#[cfg(not(target_arch = "x86_64"))]
use crate::{
    dct::IntBlock,
    quant::{FusedTables, QBlock},
};
use annolight_imgproc::KernelTier;

/// A token proving the host supports AVX2, for the kernel methods below.
/// Resolve it once per picture: the check then costs nothing per block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(Private);

#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Private;

/// Uninhabited off x86-64: no token exists, so no kernel can run.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
enum Private {}

impl Avx2 {
    /// The token when `tier` asks for AVX2 and the host has it
    /// ([`KernelTier::clamped`]), `None` otherwise.
    pub(crate) fn detect(tier: KernelTier) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if tier.clamped() == KernelTier::Avx2 {
            return Some(Self(Private));
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        None
    }
}

/// Off x86-64 no token exists, so these are never called.
#[cfg(not(target_arch = "x86_64"))]
impl Avx2 {
    pub(crate) fn forward_quantize(self, _: &IntBlock, _: &FusedTables) -> Option<QBlock> {
        match self.0 {}
    }

    pub(crate) fn quantize(self, _: &IntBlock, _: &FusedTables) -> QBlock {
        match self.0 {}
    }

    pub(crate) fn inverse(self, _: &IntBlock) -> Option<IntBlock> {
        match self.0 {}
    }

    pub(crate) fn dequantize_inverse(self, _: &QBlock, _: &FusedTables) -> Option<IntBlock> {
        match self.0 {}
    }

    pub(crate) fn sad16(self, _: &[u8; 256], _: &[u8], _: usize, _: u32) -> u32 {
        match self.0 {}
    }

    pub(crate) fn sad16_halfpel(
        self,
        _: &[u8; 256],
        _: &[u8],
        _: usize,
        _: (usize, usize),
        _: u32,
    ) -> u32 {
        match self.0 {}
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Avx2;
    use crate::dct::{
        IntBlock, FDCT_I32_LIMIT, FWD_EXTRA_BITS, F_0_3827, F_0_5412, F_0_7071, F_1_0824, F_1_3066,
        F_1_4142, F_1_8478, F_2_6131, IDCT_FRAC_BITS, IDCT_I32_LIMIT,
    };
    use crate::quant::{FusedTables, QBlock, RBITS, RHALF};
    use std::arch::x86_64::*;

    /// Eight row vectors of eight `i32` lanes: one 8×8 block.
    type Rows = [__m256i; 8];

    /// `FIX` (13 fraction bits) and its rounding half, as the butterflies
    /// in [`crate::dct`] use them.
    const FIX: i32 = 13;
    const FIX_HALF: i32 = 1 << (FIX - 1);

    #[allow(unsafe_code)]
    impl Avx2 {
        /// Fused forward AAN + quantiser, or `None` for a block with a
        /// sample outside ±[`FDCT_I32_LIMIT`].
        pub(crate) fn forward_quantize(
            self,
            block: &IntBlock,
            tables: &FusedTables,
        ) -> Option<QBlock> {
            // SAFETY: an `Avx2` exists only when the host supports AVX2.
            unsafe { forward_quantize(block, tables) }
        }

        /// [`crate::quant::quantize_aan`], for every `i32` input.
        pub(crate) fn quantize(self, coeffs: &IntBlock, tables: &FusedTables) -> QBlock {
            // SAFETY: an `Avx2` exists only when the host supports AVX2.
            unsafe { quantize(load(coeffs), tables) }
        }

        /// [`crate::dct::inverse_aan`], or `None` for a block with a
        /// coefficient outside ±[`IDCT_I32_LIMIT`].
        pub(crate) fn inverse(self, coeffs: &IntBlock) -> Option<IntBlock> {
            // SAFETY: an `Avx2` exists only when the host supports AVX2.
            unsafe { inverse(load(coeffs)) }
        }

        /// Fused dequantiser + inverse AAN, or `None` for a block whose
        /// dequantised coefficients leave ±[`IDCT_I32_LIMIT`].
        pub(crate) fn dequantize_inverse(
            self,
            levels: &QBlock,
            tables: &FusedTables,
        ) -> Option<IntBlock> {
            // SAFETY: an `Avx2` exists only when the host supports AVX2.
            unsafe { inverse(dequantize(levels, tables)) }
        }

        /// SAD of the 16×16 block `cur` (rows back to back) against the
        /// 16 rows of `reference` that start every `stride` bytes: exact
        /// when below `limit`, otherwise some partial sum `≥ limit`.
        pub(crate) fn sad16(
            self,
            cur: &[u8; 256],
            reference: &[u8],
            stride: usize,
            limit: u32,
        ) -> u32 {
            // SAFETY: an `Avx2` exists only when the host supports AVX2.
            unsafe { sad16_phase::<0, 0>(cur, reference, stride, limit) }
        }

        /// [`Avx2::sad16`] against the half-pel interpolation of phase
        /// `(fx, fy)`: `reference` must hold `16 + fy` rows of `16 + fx`
        /// pixels.
        pub(crate) fn sad16_halfpel(
            self,
            cur: &[u8; 256],
            reference: &[u8],
            stride: usize,
            phase: (usize, usize),
            limit: u32,
        ) -> u32 {
            // SAFETY: an `Avx2` exists only when the host supports AVX2.
            unsafe {
                match phase {
                    (0, 0) => sad16_phase::<0, 0>(cur, reference, stride, limit),
                    (1, 0) => sad16_phase::<1, 0>(cur, reference, stride, limit),
                    (0, 1) => sad16_phase::<0, 1>(cur, reference, stride, limit),
                    _ => sad16_phase::<1, 1>(cur, reference, stride, limit),
                }
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn load(block: &[i32; 64]) -> Rows {
        // SAFETY: each load reads 8 `i32`s (32 bytes) of a bounds-checked
        // 8-element subslice; `loadu` has no alignment requirement.
        std::array::from_fn(|r| unsafe {
            _mm256_loadu_si256(block[r * 8..r * 8 + 8].as_ptr().cast())
        })
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn store(rows: &Rows) -> IntBlock {
        let mut out = [0i32; 64];
        for (r, v) in rows.iter().enumerate() {
            // SAFETY: the store writes 32 bytes into a bounds-checked
            // 8-element subslice; `storeu` has no alignment requirement.
            unsafe { _mm256_storeu_si256(out[r * 8..r * 8 + 8].as_mut_ptr().cast(), *v) };
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn sub(a: __m256i, b: __m256i) -> __m256i {
        _mm256_sub_epi32(a, b)
    }

    /// `(a·c + 2^12) >> 13` per lane with a 32-bit product: exact while
    /// `|a|·c + 2^12 < 2^31`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fmul(a: __m256i, c: i32) -> __m256i {
        let p = _mm256_mullo_epi32(a, _mm256_set1_epi32(c));
        _mm256_srai_epi32::<FIX>(_mm256_add_epi32(p, _mm256_set1_epi32(FIX_HALF)))
    }

    /// `(a·c + 2^12) >> 13` per lane with a 64-bit product, as
    /// `dct::fmul64` computes it. A logical 64-bit shift leaves the same
    /// low 32 bits as the arithmetic one, which is the whole result
    /// whenever it fits `i32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fmul64(a: __m256i, c: i32) -> __m256i {
        let c = _mm256_set1_epi64x(i64::from(c));
        let half = _mm256_set1_epi64x(i64::from(FIX_HALF));
        // `mul_epi32` multiplies the sign-extended low half of each
        // 64-bit lane: the even `i32` lanes, then the odd ones.
        let even = _mm256_mul_epi32(a, c);
        let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(a), c);
        let even = _mm256_srli_epi64::<FIX>(_mm256_add_epi64(even, half));
        let odd = _mm256_srli_epi64::<FIX>(_mm256_add_epi64(odd, half));
        _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd))
    }

    /// 8×8 `i32` transpose: lane `c` of row `r` becomes lane `r` of row `c`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(r: Rows) -> Rows {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // u0: columns 0 | 4 of rows 0–3, u1: columns 1 | 5, …; u4–u7 the
        // same for rows 4–7.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// `dct::fdct_1d` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fdct8(d: Rows) -> Rows {
        let t0 = add(d[0], d[7]);
        let t7 = sub(d[0], d[7]);
        let t1 = add(d[1], d[6]);
        let t6 = sub(d[1], d[6]);
        let t2 = add(d[2], d[5]);
        let t5 = sub(d[2], d[5]);
        let t3 = add(d[3], d[4]);
        let t4 = sub(d[3], d[4]);

        // Even part.
        let t10 = add(t0, t3);
        let t13 = sub(t0, t3);
        let t11 = add(t1, t2);
        let t12 = sub(t1, t2);
        let o0 = add(t10, t11);
        let o4 = sub(t10, t11);
        let z1 = fmul(add(t12, t13), F_0_7071);
        let o2 = add(t13, z1);
        let o6 = sub(t13, z1);

        // Odd part.
        let t10 = add(t4, t5);
        let t11 = add(t5, t6);
        let t12 = add(t6, t7);
        let z5 = fmul(sub(t10, t12), F_0_3827);
        let z2 = add(fmul(t10, F_0_5412), z5);
        let z4 = add(fmul(t12, F_1_3066), z5);
        let z3 = fmul(t11, F_0_7071);
        let z11 = add(t7, z3);
        let z13 = sub(t7, z3);

        [
            o0,
            add(z11, z4),
            o2,
            sub(z13, z2),
            o4,
            add(z13, z2),
            o6,
            sub(z11, z4),
        ]
    }

    /// `dct::idct_1d` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn idct8(d: Rows) -> Rows {
        // Even part.
        let t10 = add(d[0], d[4]);
        let t11 = sub(d[0], d[4]);
        let t13 = add(d[2], d[6]);
        let t12 = sub(fmul64(sub(d[2], d[6]), F_1_4142), t13);
        let e0 = add(t10, t13);
        let e3 = sub(t10, t13);
        let e1 = add(t11, t12);
        let e2 = sub(t11, t12);

        // Odd part.
        let z13 = add(d[5], d[3]);
        let z10 = sub(d[5], d[3]);
        let z11 = add(d[1], d[7]);
        let z12 = sub(d[1], d[7]);
        let o7 = add(z11, z13);
        let t11 = fmul64(sub(z11, z13), F_1_4142);
        let z5 = fmul64(add(z10, z12), F_1_8478);
        let t10 = sub(fmul64(z12, F_1_0824), z5);
        let t12 = sub(z5, fmul64(z10, F_2_6131));
        let o6 = sub(t12, o7);
        let o5 = sub(t11, o6);
        let o4 = add(t10, o5);

        [
            add(e0, o7),
            add(e1, o6),
            add(e2, o5),
            sub(e3, o4),
            add(e3, o4),
            sub(e2, o5),
            sub(e1, o6),
            sub(e0, o7),
        ]
    }

    /// Whether every lane of every row has `|v| ≤ limit` (an unsigned max
    /// of the absolute values, so `|i32::MIN|` counts as `2^31`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn within(rows: &Rows, limit: i32) -> bool {
        let mut m = _mm256_abs_epi32(rows[0]);
        for r in &rows[1..] {
            m = _mm256_max_epu32(m, _mm256_abs_epi32(*r));
        }
        let lim = _mm256_set1_epi32(limit);
        _mm256_movemask_epi8(_mm256_cmpeq_epi32(_mm256_max_epu32(m, lim), lim)) == -1
    }

    /// The quantiser on row-major coefficient rows.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn quantize(c: Rows, t: &FusedTables) -> QBlock {
        let quant = load(&t.quant);
        let sat = load(&t.sat);
        let half = _mm256_set1_epi32(RHALF as i32);
        let level = |r: usize| {
            let mag = _mm256_min_epu32(_mm256_abs_epi32(c[r]), sat[r]);
            let l = _mm256_mullo_epi32(mag, quant[r]);
            let l = _mm256_srli_epi32::<{ RBITS as i32 }>(_mm256_add_epi32(l, half));
            _mm256_sign_epi32(l, c[r])
        };
        let mut out = [0i16; 64];
        for pair in 0..4 {
            // `packs` interleaves 128-bit halves; the permute restores
            // row order. Every level is within ±2047, so nothing saturates.
            let packed = _mm256_packs_epi32(level(2 * pair), level(2 * pair + 1));
            let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
            // SAFETY: the store writes 32 bytes into a bounds-checked
            // 16-element `i16` subslice; `storeu` has no alignment
            // requirement.
            unsafe {
                _mm256_storeu_si256(out[pair * 16..pair * 16 + 16].as_mut_ptr().cast(), packed)
            };
        }
        out
    }

    #[target_feature(enable = "avx2")]
    fn forward_quantize(block: &IntBlock, t: &FusedTables) -> Option<QBlock> {
        let rows = load(block);
        if !within(&rows, FDCT_I32_LIMIT) {
            return None;
        }
        let rows = rows.map(|r| _mm256_slli_epi32::<{ FWD_EXTRA_BITS as i32 }>(r));
        // Row pass on column vectors, then the column pass on row vectors.
        let rows = fdct8(transpose(rows));
        let coeffs = fdct8(transpose(rows));
        Some(quantize(coeffs, t))
    }

    /// The dequantiser on `i32` lanes: `mullo_epi32` keeps the low 32 bits
    /// of the product, exactly what the scalar `i64` product narrowed
    /// `as i32` keeps.
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn dequantize(levels: &QBlock, t: &FusedTables) -> Rows {
        let dequant = load(&t.dequant);
        std::array::from_fn(|r| {
            // SAFETY: the load reads 16 bytes of a bounds-checked
            // 8-element `i16` subslice; `loadu` has no alignment
            // requirement.
            let l = unsafe { _mm_loadu_si128(levels[r * 8..r * 8 + 8].as_ptr().cast()) };
            _mm256_mullo_epi32(_mm256_cvtepi16_epi32(l), dequant[r])
        })
    }

    #[target_feature(enable = "avx2")]
    fn inverse(coeffs: Rows) -> Option<IntBlock> {
        if !within(&coeffs, IDCT_I32_LIMIT) {
            return None;
        }
        // Column pass on the coefficient rows (one column per lane), then
        // the row pass on column vectors.
        let cols = transpose(idct8(coeffs));
        let half = _mm256_set1_epi32(1 << (IDCT_FRAC_BITS - 1));
        let out = idct8(cols)
            .map(|v| _mm256_srai_epi32::<{ IDCT_FRAC_BITS as i32 }>(_mm256_add_epi32(v, half)));
        Some(store(&transpose(out)))
    }

    /// Rows `y` and `y + 1` of `reference` from column `x`, 16 pixels
    /// each, as one vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn row_pair(reference: &[u8], stride: usize, x: usize, y: usize) -> __m256i {
        let lo = &reference[y * stride + x..][..16];
        let hi = &reference[(y + 1) * stride + x..][..16];
        // SAFETY: both loads read 16 bytes of bounds-checked 16-byte
        // subslices; `loadu` has no alignment requirement.
        unsafe {
            _mm256_inserti128_si256::<1>(
                _mm256_castsi128_si256(_mm_loadu_si128(lo.as_ptr().cast())),
                _mm_loadu_si128(hi.as_ptr().cast()),
            )
        }
    }

    /// Rows `2·pair` and `2·pair + 1` of the contiguous block `cur`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn cur_pair(cur: &[u8; 256], pair: usize) -> __m256i {
        // SAFETY: the load reads 32 bytes of a bounds-checked 32-byte
        // subslice; `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_si256(cur[pair * 32..pair * 32 + 32].as_ptr().cast()) }
    }

    /// The total of `vpsadbw` partial sums (four `u64` lanes, each far
    /// below `2^32`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sad_total(acc: __m256i) -> u32 {
        let x = _mm_add_epi64(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        (_mm_cvtsi128_si32(x) as u32).wrapping_add(_mm_extract_epi32::<2>(x) as u32)
    }

    /// Accumulates the SAD of each row pair `pred(pair)` against `cur`,
    /// returning once the running total reaches `limit`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sad16_pairs(cur: &[u8; 256], limit: u32, mut pred: impl FnMut(usize) -> __m256i) -> u32 {
        let mut acc = _mm256_setzero_si256();
        for pair in 0..8 {
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cur_pair(cur, pair), pred(pair)));
            let total = sad_total(acc);
            if total >= limit {
                return total;
            }
        }
        sad_total(acc)
    }

    /// SAD against the rows of half-pel phase `(FX, FY)` (`(0, 0)` is
    /// full-pel): `vpavgb` is exactly the codec's `(a + b + 1) >> 1`, and
    /// the four-tap phase widens to `u16` for `(a + b + c + d + 2) >> 2`
    /// (unpack and pack both work within 128-bit lanes, so row order
    /// survives).
    #[target_feature(enable = "avx2")]
    fn sad16_phase<const FX: usize, const FY: usize>(
        cur: &[u8; 256],
        reference: &[u8],
        stride: usize,
        limit: u32,
    ) -> u32 {
        sad16_pairs(cur, limit, |pair| {
            let y = 2 * pair;
            let a = row_pair(reference, stride, 0, y);
            match (FX, FY) {
                (0, 0) => a,
                (1, 0) => _mm256_avg_epu8(a, row_pair(reference, stride, 1, y)),
                (0, 1) => _mm256_avg_epu8(a, row_pair(reference, stride, 0, y + 1)),
                _ => {
                    let b = row_pair(reference, stride, 1, y);
                    let c = row_pair(reference, stride, 0, y + 1);
                    let d = row_pair(reference, stride, 1, y + 1);
                    let zero = _mm256_setzero_si256();
                    let two = _mm256_set1_epi16(2);
                    let widened = |lo: bool| {
                        let w = |v| {
                            if lo {
                                _mm256_unpacklo_epi8(v, zero)
                            } else {
                                _mm256_unpackhi_epi8(v, zero)
                            }
                        };
                        let sum = _mm256_add_epi16(
                            _mm256_add_epi16(w(a), w(b)),
                            _mm256_add_epi16(w(c), w(d)),
                        );
                        _mm256_srli_epi16::<2>(_mm256_add_epi16(sum, two))
                    };
                    _mm256_packus_epi16(widened(true), widened(false))
                }
            }
        })
    }
}
