//! 8×8 forward and inverse discrete cosine transform.
//!
//! Two implementations live here:
//!
//! * **Fast path** ([`forward_aan`] / [`inverse_aan`]): the
//!   Arai–Agui–Nakajima (AAN) factorisation in 13-bit fixed point — 5
//!   multiplies per 1-D forward pass instead of 64, with the
//!   per-coefficient AAN scale factors *folded into the quantisation
//!   tables* ([`crate::quant::FusedTables`]) so the transform itself is
//!   multiply-light. This is the canonical path: the encoder's
//!   reconstruction and the decoder run the *same* integer kernels, so
//!   encode→decode round-trip identity holds by construction.
//! * **Reference path** ([`forward_reference`] / [`inverse_reference`]):
//!   the classic orthonormal matrix DCT in `f32` with a memoized cosine
//!   basis. Retained as the numerical oracle (the fast path is verified
//!   against it to sub-LSB tolerance) and as the benchmark baseline.
//!
//! The AAN output convention: `forward_aan` returns the orthonormal DCT
//! coefficient scaled by `8 · sf(u) · sf(v) · 2^FWD_EXTRA_BITS`, where
//! `sf(0) = 1` and `sf(k) = √2·cos(kπ/16)` ([`aan_scale`]). `inverse_aan`
//! expects coefficients scaled by `sf(u)·sf(v)/8 · 2^IDCT_FRAC_BITS` —
//! exactly what [`crate::quant::dequantize_aan`] produces.
//!
//! The fast path also has AVX2 forms ([`inverse_aan_with`], and the fused
//! kernels in [`crate::quant`]) that run the same butterflies on eight
//! lanes of `i32`. They are exact — every output bit equals the scalar
//! kernel's — inside stated input bounds, which the tests derive by
//! interval propagation through the butterflies below; inputs outside
//! those bounds take the scalar kernel.

use crate::simd::Avx2;
use annolight_imgproc::KernelTier;
use std::ops::{Add, Sub};
use std::sync::OnceLock;

/// An 8×8 block of spatial samples or transform coefficients, row-major.
pub type Block = [f32; 64];

/// An 8×8 integer block for the fixed-point fast path, row-major.
pub type IntBlock = [i32; 64];

const N: usize = 8;

/// Extra scaling (in bits) applied to `forward_aan` inputs for precision;
/// folded into the fused quantiser reciprocals.
pub const FWD_EXTRA_BITS: u32 = 2;

/// Fraction bits carried by `inverse_aan` inputs (the fused dequantiser
/// multiplier scale).
pub const IDCT_FRAC_BITS: u32 = 12;

/// The AAN per-frequency scale factor: `sf(0) = 1`,
/// `sf(u) = √2·cos(uπ/16)` for `u > 0`.
#[must_use]
pub fn aan_scale(u: usize) -> f64 {
    if u == 0 {
        1.0
    } else {
        std::f64::consts::SQRT_2 * ((u as f64) * std::f64::consts::PI / 16.0).cos()
    }
}

/// Cosine basis `c[u][x] = α(u) · cos((2x+1)uπ/16)`, row = frequency.
/// Computed once per process (it used to be rebuilt on every transform
/// call — a silent trig tax on every block).
fn basis() -> &'static [[f32; N]; N] {
    static BASIS: OnceLock<[[f32; N]; N]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut b = [[0.0f32; N]; N];
        for (u, row) in b.iter_mut().enumerate() {
            let alpha = if u == 0 { (1.0 / N as f64).sqrt() } else { (2.0 / N as f64).sqrt() };
            for (x, v) in row.iter_mut().enumerate() {
                *v = (alpha
                    * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI
                        / (2.0 * N as f64))
                        .cos()) as f32;
            }
        }
        b
    })
}

/// Forward 8×8 DCT of `block` (spatial → frequency), reference matrix
/// implementation in `f32`.
pub fn forward_reference(block: &Block) -> Block {
    let b = basis();
    let mut tmp = [0.0f32; 64];
    // Rows.
    for y in 0..N {
        for u in 0..N {
            let mut acc = 0.0f32;
            for x in 0..N {
                acc += block[y * N + x] * b[u][x];
            }
            tmp[y * N + u] = acc;
        }
    }
    // Columns.
    let mut out = [0.0f32; 64];
    for u in 0..N {
        for v in 0..N {
            let mut acc = 0.0f32;
            for y in 0..N {
                acc += tmp[y * N + u] * b[v][y];
            }
            out[v * N + u] = acc;
        }
    }
    out
}

/// Inverse 8×8 DCT of `coeffs` (frequency → spatial), reference matrix
/// implementation in `f32`.
pub fn inverse_reference(coeffs: &Block) -> Block {
    let b = basis();
    let mut tmp = [0.0f32; 64];
    // Columns.
    for u in 0..N {
        for y in 0..N {
            let mut acc = 0.0f32;
            for v in 0..N {
                acc += coeffs[v * N + u] * b[v][y];
            }
            tmp[y * N + u] = acc;
        }
    }
    // Rows.
    let mut out = [0.0f32; 64];
    for y in 0..N {
        for x in 0..N {
            let mut acc = 0.0f32;
            for u in 0..N {
                acc += tmp[y * N + u] * b[u][x];
            }
            out[y * N + x] = acc;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fixed-point AAN fast path.
// ---------------------------------------------------------------------------

/// Fixed-point fraction bits of the butterfly multiplier constants.
const FIX: u32 = 13;
const FIX_HALF: i64 = 1 << (FIX - 1);

// round(c · 2^13) for each AAN butterfly constant.
pub(crate) const F_0_7071: i32 = 5793; // 0.707106781  = cos(4π/16)
pub(crate) const F_0_3827: i32 = 3135; // 0.382683433  = cos(6π/16)·√2 − …
pub(crate) const F_0_5412: i32 = 4433; // 0.541196100
pub(crate) const F_1_3066: i32 = 10703; // 1.306562965
pub(crate) const F_1_4142: i32 = 11585; // 1.414213562 = √2
pub(crate) const F_1_8478: i32 = 15137; // 1.847759065
pub(crate) const F_1_0824: i32 = 8867; // 1.082392200
pub(crate) const F_2_6131: i32 = 21407; // 2.613125930

/// Largest `|coefficient|` the AVX2 inverse transform takes. Interval
/// propagation through both [`idct_1d`] passes bounds every intermediate
/// by 1283 × the largest input magnitude (plus the descale's rounding
/// half), so at `2^20` each one stays inside `i32` (the `dct` tests derive
/// the bound); blocks above it take the scalar `i64` kernel.
pub(crate) const IDCT_I32_LIMIT: i32 = 1 << 20;

/// Largest `|sample|` the AVX2 forward transform takes: every intra
/// (`u8 − 128`) and residual (`u8 − u8`) block. Interval propagation
/// bounds its `i32` products below `6.3·10^8`.
pub(crate) const FDCT_I32_LIMIT: i32 = 255;

#[inline]
fn fmul(a: i32, c: i32) -> i32 {
    ((i64::from(a) * i64::from(c) + FIX_HALF) >> FIX) as i32
}

#[inline]
fn fmul64(a: i64, c: i32) -> i64 {
    (a * i64::from(c) + FIX_HALF) >> FIX
}

/// The arithmetic the AAN butterflies use. The scalar kernels run them on
/// `i32` (forward) and `i64` (inverse); the tests run the same code on
/// intervals to bound every intermediate the AVX2 kernels hold in `i32`.
trait Lane: Copy + Add<Output = Self> + Sub<Output = Self> {
    /// `(self · c + 2^12) >> 13`: a multiply by a 13-bit fixed-point
    /// butterfly constant.
    fn fmul(self, c: i32) -> Self;
}

impl Lane for i32 {
    #[inline]
    fn fmul(self, c: i32) -> Self {
        fmul(self, c)
    }
}

impl Lane for i64 {
    #[inline]
    fn fmul(self, c: i32) -> Self {
        fmul64(self, c)
    }
}

#[inline]
#[allow(clippy::many_single_char_names)]
fn fdct_1d<T: Lane>(d: [T; 8]) -> [T; 8] {
    let t0 = d[0] + d[7];
    let t7 = d[0] - d[7];
    let t1 = d[1] + d[6];
    let t6 = d[1] - d[6];
    let t2 = d[2] + d[5];
    let t5 = d[2] - d[5];
    let t3 = d[3] + d[4];
    let t4 = d[3] - d[4];

    // Even part.
    let t10 = t0 + t3;
    let t13 = t0 - t3;
    let t11 = t1 + t2;
    let t12 = t1 - t2;
    let o0 = t10 + t11;
    let o4 = t10 - t11;
    let z1 = (t12 + t13).fmul(F_0_7071);
    let o2 = t13 + z1;
    let o6 = t13 - z1;

    // Odd part.
    let t10 = t4 + t5;
    let t11 = t5 + t6;
    let t12 = t6 + t7;
    let z5 = (t10 - t12).fmul(F_0_3827);
    let z2 = t10.fmul(F_0_5412) + z5;
    let z4 = t12.fmul(F_1_3066) + z5;
    let z3 = t11.fmul(F_0_7071);
    let z11 = t7 + z3;
    let z13 = t7 - z3;
    let o5 = z13 + z2;
    let o3 = z13 - z2;
    let o1 = z11 + z4;
    let o7 = z11 - z4;

    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// Forward 8×8 DCT on integer samples via the AAN butterfly.
///
/// Output coefficient `(v, u)` equals the orthonormal DCT coefficient
/// times `8 · sf(v) · sf(u) · 2^FWD_EXTRA_BITS`; feed it straight into
/// [`crate::quant::quantize_aan`], whose fused reciprocals divide the
/// scale back out.
pub fn forward_aan(block: &IntBlock) -> IntBlock {
    let mut tmp = [0i32; 64];
    for y in 0..N {
        let mut d = [0i32; 8];
        for x in 0..N {
            d[x] = block[y * N + x] << FWD_EXTRA_BITS;
        }
        let o = fdct_1d(d);
        tmp[y * N..y * N + N].copy_from_slice(&o);
    }
    let mut out = [0i32; 64];
    for u in 0..N {
        let mut d = [0i32; 8];
        for (y, v) in d.iter_mut().enumerate() {
            *v = tmp[y * N + u];
        }
        let o = fdct_1d(d);
        for (v, val) in o.iter().enumerate() {
            out[v * N + u] = *val;
        }
    }
    out
}

#[inline]
#[allow(clippy::many_single_char_names)]
fn idct_1d<T: Lane>(d: [T; 8]) -> [T; 8] {
    // Even part.
    let t10 = d[0] + d[4];
    let t11 = d[0] - d[4];
    let t13 = d[2] + d[6];
    let t12 = (d[2] - d[6]).fmul(F_1_4142) - t13;
    let e0 = t10 + t13;
    let e3 = t10 - t13;
    let e1 = t11 + t12;
    let e2 = t11 - t12;

    // Odd part.
    let z13 = d[5] + d[3];
    let z10 = d[5] - d[3];
    let z11 = d[1] + d[7];
    let z12 = d[1] - d[7];
    let o7 = z11 + z13;
    let t11 = (z11 - z13).fmul(F_1_4142);
    let z5 = (z10 + z12).fmul(F_1_8478);
    let t10 = z12.fmul(F_1_0824) - z5;
    let t12 = z5 - z10.fmul(F_2_6131);
    let o6 = t12 - o7;
    let o5 = t11 - o6;
    let o4 = t10 + o5;

    [e0 + o7, e1 + o6, e2 + o5, e3 - o4, e3 + o4, e2 - o5, e1 - o6, e0 - o7]
}

/// Inverse 8×8 DCT via the AAN butterfly.
///
/// Input coefficient `(v, u)` must equal the orthonormal DCT coefficient
/// times `sf(v) · sf(u) / 8 · 2^IDCT_FRAC_BITS` — the fused dequantiser
/// output ([`crate::quant::dequantize_aan`]). Output is plain integer
/// spatial samples (level-shifted domain, rounded).
///
/// Internals run in `i64`, so even adversarial (malformed-bitstream)
/// coefficient magnitudes cannot overflow.
pub fn inverse_aan(coeffs: &IntBlock) -> IntBlock {
    let mut tmp = [0i64; 64];
    // Columns.
    for u in 0..N {
        let mut d = [0i64; 8];
        for (v, val) in d.iter_mut().enumerate() {
            *val = i64::from(coeffs[v * N + u]);
        }
        let o = idct_1d(d);
        for (y, val) in o.iter().enumerate() {
            tmp[y * N + u] = *val;
        }
    }
    // Rows.
    let mut out = [0i32; 64];
    let half = 1i64 << (IDCT_FRAC_BITS - 1);
    for y in 0..N {
        let mut d = [0i64; 8];
        d.copy_from_slice(&tmp[y * N..y * N + N]);
        let o = idct_1d(d);
        for (x, val) in o.iter().enumerate() {
            out[y * N + x] = ((val + half) >> IDCT_FRAC_BITS) as i32;
        }
    }
    out
}

/// [`inverse_aan`] at a chosen [`KernelTier`]: the AVX2 tier runs both
/// passes in `i32` lanes when every `|coefficient| ≤ 2^20`, and every
/// other tier or block runs the scalar `i64` kernel. The output is
/// bit-identical at every tier, for every input.
#[must_use]
pub fn inverse_aan_with(coeffs: &IntBlock, tier: KernelTier) -> IntBlock {
    inverse_aan_in(coeffs, Avx2::detect(tier))
}

/// [`inverse_aan_with`] with the tier already resolved.
#[inline]
pub(crate) fn inverse_aan_in(coeffs: &IntBlock, avx2: Option<Avx2>) -> IntBlock {
    avx2.and_then(|k| k.inverse(coeffs)).unwrap_or_else(|| inverse_aan(coeffs))
}

// ---------------------------------------------------------------------------
// Plane load/store helpers.
// ---------------------------------------------------------------------------

/// Loads an 8×8 block of `u8` samples (level-shifted by −128, as MPEG
/// intra coding does) from a plane, in `f32` for the reference path.
///
/// `stride` is the plane width; the block starts at `(bx·8, by·8)`.
pub fn load_block(plane: &[u8], stride: usize, bx: usize, by: usize) -> Block {
    let mut out = [0.0f32; 64];
    for y in 0..N {
        for x in 0..N {
            out[y * N + x] = f32::from(plane[(by * N + y) * stride + bx * N + x]) - 128.0;
        }
    }
    out
}

/// Integer twin of [`load_block`] for the fast path.
pub fn load_block_int(plane: &[u8], stride: usize, bx: usize, by: usize) -> IntBlock {
    let mut out = [0i32; 64];
    for y in 0..N {
        let row = &plane[(by * N + y) * stride + bx * N..];
        for x in 0..N {
            out[y * N + x] = i32::from(row[x]) - 128;
        }
    }
    out
}

/// Stores an 8×8 spatial block back into a plane, undoing the level shift
/// and clamping to `u8` (reference `f32` path).
pub fn store_block(plane: &mut [u8], stride: usize, bx: usize, by: usize, block: &Block) {
    for y in 0..N {
        for x in 0..N {
            let v = (block[y * N + x] + 128.0).round().clamp(0.0, 255.0) as u8;
            plane[(by * N + y) * stride + bx * N + x] = v;
        }
    }
}

/// Integer twin of [`store_block`]: undoes the −128 level shift and
/// clamps. The block starts at pixel `(px, py)` (not block coordinates).
pub fn store_block_int_at(plane: &mut [u8], stride: usize, px: usize, py: usize, block: &IntBlock) {
    for y in 0..N {
        let row = &mut plane[(py + y) * stride + px..];
        for x in 0..N {
            row[x] = (block[y * N + x] + 128).clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dequantize_aan, fused_tables, quantize_aan, QScale};

    fn max_abs_diff(a: &Block, b: &Block) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    fn sample_block(seed: i32) -> Block {
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as i32 * 37 + seed * 11) % 255) as f32 - 128.0;
        }
        block
    }

    #[test]
    fn roundtrip_identity() {
        let block = sample_block(0);
        let rt = inverse_reference(&forward_reference(&block));
        assert!(max_abs_diff(&block, &rt) < 0.01, "diff {}", max_abs_diff(&block, &rt));
    }

    #[test]
    fn flat_block_is_pure_dc() {
        let block = [50.0f32; 64];
        let c = forward_reference(&block);
        assert!((c[0] - 400.0).abs() < 0.01, "DC {}", c[0]); // 50 * 8
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.01, "AC[{i}] = {v}");
        }
    }

    #[test]
    fn dc_only_reconstructs_flat() {
        let mut c = [0.0f32; 64];
        c[0] = 80.0;
        let s = inverse_reference(&c);
        let expect = 80.0 / 8.0;
        for &v in &s {
            assert!((v - expect).abs() < 0.01);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (((i * 73) % 200) as f32) - 100.0;
        }
        let c = forward_reference(&block);
        let es: f32 = block.iter().map(|v| v * v).sum();
        let ec: f32 = c.iter().map(|v| v * v).sum();
        assert!((es - ec).abs() / es < 1e-4, "spatial {es} vs coeff {ec}");
    }

    #[test]
    fn horizontal_cosine_hits_single_bin() {
        // A pure horizontal basis function concentrates in one coefficient.
        let mut block = [0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                block[y * 8 + x] =
                    ((2.0 * x as f64 + 1.0) * 3.0 * std::f64::consts::PI / 16.0).cos() as f32;
            }
        }
        let c = forward_reference(&block);
        let (mut max_i, mut max_v) = (0, 0.0f32);
        for (i, &v) in c.iter().enumerate() {
            if v.abs() > max_v {
                max_v = v.abs();
                max_i = i;
            }
        }
        assert_eq!(max_i, 3, "energy should land in (u=3, v=0)");
    }

    #[test]
    fn load_store_roundtrip() {
        let stride = 16;
        let mut plane: Vec<u8> = (0..16 * 16).map(|i| (i % 251) as u8).collect();
        let orig = plane.clone();
        let b = load_block(&plane, stride, 1, 1);
        store_block(&mut plane, stride, 1, 1, &b);
        assert_eq!(plane, orig);
        let bi = load_block_int(&plane, stride, 1, 1);
        for i in 0..64 {
            assert_eq!(bi[i] as f32, b[i]);
        }
        store_block_int_at(&mut plane, stride, 8, 8, &bi);
        assert_eq!(plane, orig);
    }

    #[test]
    fn store_clamps() {
        let stride = 8;
        let mut plane = vec![0u8; 64];
        let mut b = [0.0f32; 64];
        b[0] = 500.0; // way past 255 after level shift
        b[1] = -500.0;
        store_block(&mut plane, stride, 0, 0, &b);
        assert_eq!(plane[0], 255);
        assert_eq!(plane[1], 0);
        let mut bi = [0i32; 64];
        bi[0] = 500;
        bi[1] = -500;
        store_block_int_at(&mut plane, stride, 0, 0, &bi);
        assert_eq!(plane[0], 255);
        assert_eq!(plane[1], 0);
    }

    /// The AAN forward output, descaled by its per-coefficient factors,
    /// matches the reference matrix DCT to well under one quantiser LSB.
    #[test]
    fn forward_aan_matches_reference_descaled() {
        for seed in 0..4 {
            let fb = sample_block(seed);
            let mut ib = [0i32; 64];
            for i in 0..64 {
                ib[i] = fb[i] as i32;
            }
            let reference = forward_reference(&fb);
            let fast = forward_aan(&ib);
            for i in 0..64 {
                let (r, c) = (i / 8, i % 8);
                let scale = 8.0 * aan_scale(r) * aan_scale(c) * f64::from(1u32 << FWD_EXTRA_BITS);
                let descaled = f64::from(fast[i]) / scale;
                let err = (descaled - f64::from(reference[i])).abs();
                assert!(err < 0.75, "seed {seed} coeff {i}: {descaled} vs {}", reference[i]);
            }
        }
    }

    /// Scaling reference coefficients into the AAN inverse's input
    /// convention reproduces the reference inverse to sub-LSB accuracy.
    #[test]
    fn inverse_aan_matches_reference() {
        for seed in 0..4 {
            let spatial = sample_block(seed);
            let coeffs = forward_reference(&spatial);
            let mut scaled = [0i32; 64];
            for i in 0..64 {
                let (r, c) = (i / 8, i % 8);
                let s = aan_scale(r) * aan_scale(c) / 8.0 * f64::from(1u32 << IDCT_FRAC_BITS);
                scaled[i] = (f64::from(coeffs[i]) * s).round() as i32;
            }
            let fast = inverse_aan(&scaled);
            let reference = inverse_reference(&coeffs);
            for i in 0..64 {
                let err = (f64::from(fast[i]) - f64::from(reference[i])).abs();
                assert!(err <= 1.0, "seed {seed} sample {i}: {} vs {}", fast[i], reference[i]);
            }
        }
    }

    /// Full integer encode-side chain: AAN forward → fused quant → fused
    /// dequant → AAN inverse reconstructs within the quantiser step.
    #[test]
    fn integer_chain_bounded_error() {
        let q = QScale::new(2);
        let t = fused_tables(q, true);
        for seed in 0..4 {
            let fb = sample_block(seed);
            let mut ib = [0i32; 64];
            for i in 0..64 {
                ib[i] = fb[i] as i32;
            }
            let rec = inverse_aan(&dequantize_aan(&quantize_aan(&forward_aan(&ib), t), t));
            for i in 0..64 {
                let err = (rec[i] - ib[i]).abs();
                // Worst intra step at qscale 2 is 83·2/8 ≈ 21; spatial
                // error stays far below the summed frequency bound.
                assert!(err <= 16, "seed {seed} sample {i}: {} vs {}", rec[i], ib[i]);
            }
        }
    }

    /// A value range `lo..=hi` carried through the butterflies, with the
    /// largest magnitude of any intermediate it came from (`peak`) and of
    /// any `a · c + 2^12` product a 32-bit multiply would hold
    /// (`product_peak`).
    #[derive(Debug, Clone, Copy)]
    struct Interval {
        lo: i64,
        hi: i64,
        peak: i64,
        product_peak: i64,
    }

    impl Interval {
        fn symmetric(m: i64) -> Self {
            Self { lo: -m, hi: m, peak: m, product_peak: 0 }
        }

        fn with(self, other: Self, lo: i64, hi: i64) -> Self {
            Self {
                lo,
                hi,
                peak: self.peak.max(other.peak).max(lo.abs()).max(hi.abs()),
                product_peak: self.product_peak.max(other.product_peak),
            }
        }
    }

    impl Add for Interval {
        type Output = Self;
        fn add(self, o: Self) -> Self {
            self.with(o, self.lo + o.lo, self.hi + o.hi)
        }
    }

    impl Sub for Interval {
        type Output = Self;
        fn sub(self, o: Self) -> Self {
            self.with(o, self.lo - o.hi, self.hi - o.lo)
        }
    }

    impl Lane for Interval {
        fn fmul(self, c: i32) -> Self {
            // Every butterfly constant is positive, so the rounded
            // multiply is monotone in its input.
            assert!(c > 0);
            let product = self.lo.abs().max(self.hi.abs()) * i64::from(c) + FIX_HALF;
            let out = self.with(self, fmul64(self.lo, c), fmul64(self.hi, c));
            Self { product_peak: out.product_peak.max(product), ..out }
        }
    }

    /// Both passes of a 2-D transform over blocks whose inputs all lie in
    /// `input`: the 1-D pass on eight such values, then on each of its
    /// eight outputs repeated (every column, or row, of the second pass
    /// holds one first-pass output position per lane), then the inverse
    /// transform's descale add. Returns the peaks over everything.
    fn transform_peaks(input: Interval, pass: fn([Interval; 8]) -> [Interval; 8]) -> (i64, i64) {
        let (mut peak, mut product_peak) = (0, 0);
        for first in pass([input; 8]) {
            for out in pass([first; 8]) {
                let half = 1 << (IDCT_FRAC_BITS - 1);
                let descaled = out + Interval { lo: half, hi: half, peak: 0, product_peak: 0 };
                peak = peak.max(descaled.peak);
                product_peak = product_peak.max(descaled.product_peak);
            }
        }
        (peak, product_peak)
    }

    /// The AVX2 inverse holds every intermediate of both passes in `i32`
    /// lanes (its products are 64-bit). Interval propagation through
    /// `idct_1d` bounds them by about 1283 × the largest coefficient, so
    /// at `IDCT_I32_LIMIT` every one fits, and twice the limit would not.
    #[test]
    fn idct_intermediates_fit_i32_up_to_the_limit() {
        let bound = |m: i64| transform_peaks(Interval::symmetric(m), idct_1d).0;
        let limit = i64::from(IDCT_I32_LIMIT);
        let peak = bound(limit);
        assert!(peak <= i64::from(i32::MAX), "peak {peak}");
        assert_eq!(peak / limit, 1283, "peak {peak}");
        assert!(bound(2 * limit) > i64::from(i32::MAX));
    }

    /// The AVX2 forward transform multiplies in 32 bits: for samples in
    /// ±`FDCT_I32_LIMIT` (shifted by `FWD_EXTRA_BITS`) every product and
    /// every intermediate stays inside `i32`.
    #[test]
    fn fdct_products_fit_i32_for_every_sample() {
        let input = Interval::symmetric(i64::from(FDCT_I32_LIMIT) << FWD_EXTRA_BITS);
        let (peak, product_peak) = transform_peaks(input, fdct_1d);
        assert!(product_peak < 630_000_000, "products reach {product_peak}");
        assert!(peak < product_peak, "intermediates reach {peak}");
    }

    #[test]
    fn aan_scale_values() {
        assert!((aan_scale(0) - 1.0).abs() < 1e-12);
        assert!((aan_scale(1) - 1.387_039_845).abs() < 1e-6);
        assert!((aan_scale(4) - 1.0).abs() < 1e-9); // √2·cos(π/4)
        assert!((aan_scale(7) - 0.275_899_379).abs() < 1e-6);
    }
}
