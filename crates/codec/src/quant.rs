//! MPEG-style coefficient quantisation.
//!
//! Intra blocks use the MPEG-1 default perceptual matrix (coarser at high
//! frequencies); inter (residual) blocks use a flat matrix, both scaled by
//! a per-picture `qscale` in `1..=31`.
//!
//! Two parallel implementations:
//!
//! * the float [`quantize`]/[`dequantize`] reference pair, operating on
//!   orthonormal DCT coefficients, and
//! * the fused fixed-point [`quantize_aan`]/[`dequantize_aan`] fast pair,
//!   whose [`FusedTables`] fold the AAN per-coefficient scale factors
//!   ([`crate::dct::aan_scale`]) *and* the quantiser step into a single
//!   reciprocal multiply per coefficient (libjpeg/ffmpeg lineage). The
//!   fused dequantiser emits coefficients already in the
//!   [`crate::dct::inverse_aan`] input convention
//!   (`sf(v)·sf(u)/8 · 2^IDCT_FRAC_BITS`), so the inverse transform needs
//!   no per-coefficient multiplies of its own.
//!
//! The fast pair also runs fused with the transforms —
//! [`forward_quantize_with`] (fDCT → quantise) and
//! [`dequantize_inverse_with`] (dequantise → iDCT) — at a chosen
//! [`KernelTier`]. The AVX2 tier is bit-identical to the scalar kernels for
//! every input; see [`FusedTables`] for why one 32-bit multiply per
//! coefficient suffices.

use crate::dct::{self, Block, IntBlock};
use crate::simd::Avx2;
use annolight_imgproc::KernelTier;
use std::sync::OnceLock;

/// The MPEG-1 default intra quantisation matrix (zig-zag-free, row-major).
pub const INTRA_MATRIX: [u16; 64] = [
    8, 16, 19, 22, 26, 27, 29, 34,
    16, 16, 22, 24, 27, 29, 34, 37,
    19, 22, 26, 27, 29, 34, 34, 38,
    22, 22, 26, 27, 29, 34, 37, 40,
    22, 26, 27, 29, 32, 35, 40, 48,
    26, 27, 29, 32, 35, 40, 48, 58,
    26, 27, 29, 34, 38, 46, 56, 69,
    27, 29, 35, 38, 46, 56, 69, 83,
];

/// The flat inter (residual) matrix.
pub const INTER_MATRIX: [u16; 64] = [16; 64];

/// Per-picture quantiser scale, `1..=31` (MPEG-1 range). Larger = coarser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QScale(u8);

impl QScale {
    /// Creates a quantiser scale.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ q ≤ 31`.
    pub fn new(q: u8) -> Self {
        assert!((1..=31).contains(&q), "qscale {q} outside 1..=31");
        Self(q)
    }

    /// The raw scale value.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl Default for QScale {
    fn default() -> Self {
        Self(8)
    }
}

/// Quantised coefficients (integer levels).
pub type QBlock = [i16; 64];

/// Quantises a DCT coefficient block.
///
/// The DC coefficient of intra blocks is quantised with a fixed divisor of
/// 8 (as in MPEG-1, where intra DC has its own precision) so that average
/// brightness survives even at coarse scales.
pub fn quantize(coeffs: &Block, matrix: &[u16; 64], qscale: QScale, intra: bool) -> QBlock {
    let mut out = [0i16; 64];
    for i in 0..64 {
        let div = if intra && i == 0 {
            8.0
        } else {
            f32::from(matrix[i]) * f32::from(qscale.value()) / 8.0
        };
        out[i] = (coeffs[i] / div).round().clamp(-2047.0, 2047.0) as i16;
    }
    out
}

/// Reconstructs DCT coefficients from quantised levels.
pub fn dequantize(levels: &QBlock, matrix: &[u16; 64], qscale: QScale, intra: bool) -> Block {
    let mut out = [0.0f32; 64];
    for i in 0..64 {
        let mul = if intra && i == 0 {
            8.0
        } else {
            f32::from(matrix[i]) * f32::from(qscale.value()) / 8.0
        };
        out[i] = f32::from(levels[i]) * mul;
    }
    out
}

// ---------------------------------------------------------------------------
// Fused fixed-point quantisation (AAN fast path).
// ---------------------------------------------------------------------------

/// Fraction bits of the fused quantiser reciprocals.
pub(crate) const RBITS: u32 = 20;
pub(crate) const RHALF: i64 = 1 << (RBITS - 1);
/// The largest level magnitude the quantiser emits (the entropy coder's
/// range).
const MAX_LEVEL: i64 = 2047;

/// Per-`(qscale, intra)` fused tables: one reciprocal multiplier per
/// coefficient on the quantise side, one step multiplier on the dequantise
/// side, both with the AAN scale factors and the forward transform's
/// `2^FWD_EXTRA_BITS` prescale folded in.
///
/// `sat` lets the AVX2 quantiser multiply in 32 bits: clamping `|c|` to
/// `sat[i]` changes no level (every magnitude from `sat[i]` up quantises
/// to 2047), and afterwards
/// `min(|c|, sat)·quant + RHALF < 2047·2^20 + quant < 2^31` because every
/// `quant[i] < 2^20`. So one `mullo_epi32` is exact for every `i32`
/// coefficient, `i32::MIN` and `i32::MAX` included.
#[derive(Debug, Clone)]
pub struct FusedTables {
    /// `round(2^RBITS / div[i])` where
    /// `div[i] = step[i] · 8·sf(v)·sf(u) · 2^FWD_EXTRA_BITS` — dividing an
    /// [`crate::dct::forward_aan`] output by `div` yields the float-path
    /// quantised level.
    pub(crate) quant: [i32; 64],
    /// The smallest magnitude whose level reaches 2047:
    /// `ceil((2047·2^RBITS − RHALF) / quant[i])`.
    pub(crate) sat: [i32; 64],
    /// `round(step[i] · sf(v)·sf(u)/8 · 2^IDCT_FRAC_BITS)` — multiplying a
    /// level by this produces [`crate::dct::inverse_aan`]'s expected input.
    pub(crate) dequant: [i32; 64],
}

impl FusedTables {
    fn build(matrix: &[u16; 64], qscale: QScale, intra: bool) -> Self {
        let mut quant = [0i32; 64];
        let mut sat = [0i32; 64];
        let mut dequant = [0i32; 64];
        for i in 0..64 {
            let (r, c) = (i / 8, i % 8);
            let step = if intra && i == 0 {
                8.0
            } else {
                f64::from(matrix[i]) * f64::from(qscale.value()) / 8.0
            };
            let sf = dct::aan_scale(r) * dct::aan_scale(c);
            let div = step * 8.0 * sf * f64::from(1u32 << dct::FWD_EXTRA_BITS);
            quant[i] = (((1u64 << RBITS) as f64) / div).round() as i32;
            dequant[i] = (step * sf / 8.0 * f64::from(1u32 << dct::IDCT_FRAC_BITS)).round() as i32;
            assert!(
                (1..1 << RBITS).contains(&quant[i]),
                "quantiser reciprocal {} outside 1..2^20",
                quant[i]
            );
            let q = i64::from(quant[i]);
            sat[i] = i32::try_from(((MAX_LEVEL << RBITS) - RHALF + q - 1) / q)
                .expect("saturation magnitude fits i32");
        }
        Self { quant, sat, dequant }
    }
}

/// Returns the fused tables for `(qscale, intra)`, built once per process
/// (62 table pairs total) and shared across threads.
pub fn fused_tables(qscale: QScale, intra: bool) -> &'static FusedTables {
    static TABLES: OnceLock<Vec<FusedTables>> = OnceLock::new();
    let all = TABLES.get_or_init(|| {
        let mut v = Vec::with_capacity(62);
        for q in 1..=31u8 {
            let qs = QScale::new(q);
            v.push(FusedTables::build(&INTRA_MATRIX, qs, true));
            v.push(FusedTables::build(&INTER_MATRIX, qs, false));
        }
        v
    });
    &all[usize::from(qscale.value() - 1) * 2 + usize::from(!intra)]
}

/// Quantises an [`crate::dct::forward_aan`] output block with a single
/// reciprocal multiply per coefficient. Round-to-nearest on the magnitude
/// (sign restored afterwards with a mask: a branch would mispredict on
/// noisy residual signs), clamped to the ±2047 level range the entropy
/// coder enforces.
pub fn quantize_aan(coeffs: &IntBlock, tables: &FusedTables) -> QBlock {
    let mut out = [0i16; 64];
    for i in 0..64 {
        let c = coeffs[i];
        let mag = i64::from(c.unsigned_abs());
        let level = ((mag * i64::from(tables.quant[i]) + RHALF) >> RBITS).min(MAX_LEVEL) as i32;
        // `s` is −1 for a negative coefficient and 0 otherwise, so
        // `(level ^ s) − s` is `−level` or `level`.
        let s = c >> 31;
        out[i] = ((level ^ s) - s) as i16;
    }
    out
}

/// [`quantize_aan`] at a chosen [`KernelTier`]; bit-identical at every
/// tier, for every `i32` coefficient.
#[must_use]
pub fn quantize_aan_with(coeffs: &IntBlock, tables: &FusedTables, tier: KernelTier) -> QBlock {
    match Avx2::detect(tier) {
        Some(k) => k.quantize(coeffs, tables),
        None => quantize_aan(coeffs, tables),
    }
}

/// Reconstructs [`crate::dct::inverse_aan`]-convention coefficients from
/// quantised levels: one integer multiply per coefficient, no descale.
pub fn dequantize_aan(levels: &QBlock, tables: &FusedTables) -> IntBlock {
    let mut out = [0i32; 64];
    for i in 0..64 {
        // |level| ≤ 2048 and dequant ≤ ~3.2e5, so the product stays well
        // inside i32; compute in i64 and narrow exactly.
        out[i] = (i64::from(levels[i]) * i64::from(tables.dequant[i])) as i32;
    }
    out
}

/// The fused forward kernel: [`crate::dct::forward_aan`] then
/// [`quantize_aan`], at a chosen [`KernelTier`]. The AVX2 tier takes
/// blocks whose samples lie in ±255 (every intra and residual block);
/// others take the scalar kernels. Bit-identical at every tier.
#[must_use]
pub fn forward_quantize_with(block: &IntBlock, tables: &FusedTables, tier: KernelTier) -> QBlock {
    forward_quantize_in(block, tables, Avx2::detect(tier))
}

/// [`forward_quantize_with`] with the tier already resolved.
#[inline]
pub(crate) fn forward_quantize_in(
    block: &IntBlock,
    tables: &FusedTables,
    avx2: Option<Avx2>,
) -> QBlock {
    avx2.and_then(|k| k.forward_quantize(block, tables))
        .unwrap_or_else(|| quantize_aan(&dct::forward_aan(block), tables))
}

/// The fused inverse kernel: [`dequantize_aan`] then
/// [`crate::dct::inverse_aan`], at a chosen [`KernelTier`]. The AVX2 tier
/// takes blocks whose dequantised coefficients lie in ±2^20; others take
/// the scalar kernels. Bit-identical at every tier, for every input.
#[must_use]
pub fn dequantize_inverse_with(
    levels: &QBlock,
    tables: &FusedTables,
    tier: KernelTier,
) -> IntBlock {
    dequantize_inverse_in(levels, tables, Avx2::detect(tier))
}

/// [`dequantize_inverse_with`] with the tier already resolved.
#[inline]
pub(crate) fn dequantize_inverse_in(
    levels: &QBlock,
    tables: &FusedTables,
    avx2: Option<Avx2>,
) -> IntBlock {
    avx2.and_then(|k| k.dequantize_inverse(levels, tables))
        .unwrap_or_else(|| dct::inverse_aan(&dequantize_aan(levels, tables)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct;
    use annolight_support::rng::SmallRng;

    #[test]
    fn qscale_bounds() {
        assert_eq!(QScale::new(1).value(), 1);
        assert_eq!(QScale::new(31).value(), 31);
    }

    #[test]
    #[should_panic(expected = "outside 1..=31")]
    fn qscale_rejects_zero() {
        QScale::new(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=31")]
    fn qscale_rejects_32() {
        QScale::new(32);
    }

    #[test]
    fn quant_dequant_bounded_error() {
        let mut coeffs = [0.0f32; 64];
        for (i, v) in coeffs.iter_mut().enumerate() {
            *v = ((i as f32) - 32.0) * 7.3;
        }
        let q = QScale::new(4);
        let levels = quantize(&coeffs, &INTRA_MATRIX, q, true);
        let rec = dequantize(&levels, &INTRA_MATRIX, q, true);
        for i in 0..64 {
            let step = if i == 0 { 8.0 } else { f32::from(INTRA_MATRIX[i]) * 4.0 / 8.0 };
            assert!(
                (coeffs[i] - rec[i]).abs() <= step / 2.0 + 1e-3,
                "coeff {i}: {} vs {} (step {step})",
                coeffs[i],
                rec[i]
            );
        }
    }

    #[test]
    fn zero_block_stays_zero() {
        let levels = quantize(&[0.0; 64], &INTER_MATRIX, QScale::new(16), false);
        assert!(levels.iter().all(|&l| l == 0));
    }

    #[test]
    fn coarser_scale_zeroes_more() {
        let mut coeffs = [0.0f32; 64];
        for (i, v) in coeffs.iter_mut().enumerate() {
            *v = 30.0 / (1.0 + i as f32); // decaying spectrum
        }
        let count = |q: u8| {
            quantize(&coeffs, &INTRA_MATRIX, QScale::new(q), true)
                .iter()
                .filter(|&&l| l != 0)
                .count()
        };
        assert!(count(1) >= count(8));
        assert!(count(8) >= count(31));
    }

    #[test]
    fn dc_preserved_at_coarse_scale() {
        // A flat 8x8 block must keep its average even at qscale 31.
        let block = [60.0f32; 64];
        let coeffs = dct::forward_reference(&block);
        let q = QScale::new(31);
        let levels = quantize(&coeffs, &INTRA_MATRIX, q, true);
        let rec = dct::inverse_reference(&dequantize(&levels, &INTRA_MATRIX, q, true));
        let mean: f32 = rec.iter().sum::<f32>() / 64.0;
        assert!((mean - 60.0).abs() < 4.5, "mean {mean}");
    }

    #[test]
    fn intra_matrix_is_perceptual() {
        // Low frequencies must be quantised more finely than high ones.
        assert!(INTRA_MATRIX[0] < INTRA_MATRIX[63]);
        assert!(INTRA_MATRIX[1] < INTRA_MATRIX[62]);
    }

    #[test]
    fn fused_tables_are_cached_and_exact_for_dc() {
        let a = fused_tables(QScale::new(8), true);
        let b = fused_tables(QScale::new(8), true);
        assert!(std::ptr::eq(a, b), "same qscale must share one table");
        // Intra DC: div = 8·8·1·1·4 = 256, recip = 2^20/256 = 4096; the
        // dequant multiplier is 8·1/8·2^12 = 4096 — both exact.
        assert_eq!(a.quant[0], 4096);
        assert_eq!(a.dequant[0], 4096);
        let inter = fused_tables(QScale::new(8), false);
        assert!(!std::ptr::eq(a, inter));
    }

    #[test]
    fn fused_quant_matches_float_path() {
        // Quantising an AAN-scaled block through the fused reciprocals must
        // land on the same levels the float reference produces from the
        // orthonormal coefficients (up to rare off-by-one at ties).
        let mut spatial = [0.0f32; 64];
        for (i, v) in spatial.iter_mut().enumerate() {
            *v = ((i as i32 * 29 % 255) - 128) as f32;
        }
        let mut ib = [0i32; 64];
        for i in 0..64 {
            ib[i] = spatial[i] as i32;
        }
        for (q, intra) in [(2u8, true), (8, true), (24, true), (8, false), (31, false)] {
            let qs = QScale::new(q);
            let matrix = if intra { &INTRA_MATRIX } else { &INTER_MATRIX };
            let float_levels = quantize(&dct::forward_reference(&spatial), matrix, qs, intra);
            let fused_levels = quantize_aan(&dct::forward_aan(&ib), fused_tables(qs, intra));
            let mut mismatches = 0;
            for i in 0..64 {
                let d = (i32::from(float_levels[i]) - i32::from(fused_levels[i])).abs();
                assert!(d <= 1, "q{q} intra={intra} coeff {i}: {} vs {}",
                    float_levels[i], fused_levels[i]);
                mismatches += usize::from(d != 0);
            }
            assert!(mismatches <= 6, "q{q} intra={intra}: {mismatches} off-by-one levels");
        }
    }

    #[test]
    fn fused_dequant_matches_float_path_descaled() {
        let mut levels = [0i16; 64];
        for (i, l) in levels.iter_mut().enumerate() {
            *l = ((i as i32 * 13 % 41) - 20) as i16;
        }
        for (q, intra) in [(1u8, true), (8, true), (31, false)] {
            let qs = QScale::new(q);
            let matrix = if intra { &INTRA_MATRIX } else { &INTER_MATRIX };
            let float_coeffs = dequantize(&levels, matrix, qs, intra);
            let fused = dequantize_aan(&levels, fused_tables(qs, intra));
            for i in 0..64 {
                let (r, c) = (i / 8, i % 8);
                let s = dct::aan_scale(r) * dct::aan_scale(c) / 8.0
                    * f64::from(1u32 << dct::IDCT_FRAC_BITS);
                let descaled = f64::from(fused[i]) / s;
                let err = (descaled - f64::from(float_coeffs[i])).abs();
                // Table rounding bounds the error at ±|level|/2 table LSBs.
                let tol = 0.51 * f64::from(levels[i].unsigned_abs()).max(1.0) / s + 1e-6;
                assert!(err <= tol,
                    "q{q} intra={intra} coeff {i}: {descaled} vs {} (tol {tol})",
                    float_coeffs[i]);
            }
        }
    }

    /// All 62 fused tables with their `(qscale, intra)`.
    fn all_tables() -> impl Iterator<Item = (u8, bool, &'static FusedTables)> {
        (1..=31u8).flat_map(|q| {
            [true, false].map(move |intra| (q, intra, fused_tables(QScale::new(q), intra)))
        })
    }

    /// The quantiser as it was before the mask sign restore.
    fn quantize_aan_branchy(coeffs: &IntBlock, tables: &FusedTables) -> QBlock {
        let mut out = [0i16; 64];
        for i in 0..64 {
            let c = coeffs[i];
            let mag = i64::from(c.unsigned_abs());
            let level = ((mag * i64::from(tables.quant[i]) + RHALF) >> RBITS).min(2047) as i16;
            out[i] = if c < 0 { -level } else { level };
        }
        out
    }

    /// Blocks over `-lim..=lim`: uniform noise, plus the extreme patterns
    /// (flat, checkerboard, stripes, random signs at full magnitude) that
    /// drive transform coefficients to their largest values.
    fn sample_blocks(rng: &mut SmallRng, lim: i32, noisy: usize) -> Vec<IntBlock> {
        let mut blocks: Vec<IntBlock> = (0..noisy)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-lim..=lim)))
            .collect();
        for sign in [1, -1] {
            blocks.push([sign * lim; 64]);
            let alternate = |on: fn(usize) -> bool| -> IntBlock {
                std::array::from_fn(|i| sign * if on(i) { lim } else { -lim })
            };
            blocks.push(alternate(|i| (i / 8 + i % 8) % 2 == 0));
            blocks.push(alternate(|i| (i / 8) % 2 == 0));
            blocks.push(alternate(|i| i % 2 == 0));
        }
        for _ in 0..noisy {
            blocks.push(std::array::from_fn(|_| if rng.gen_bool(0.5) { lim } else { -lim }));
        }
        blocks
    }

    #[test]
    fn fused_forward_kernel_matches_scalar_at_every_tier() {
        let mut rng = SmallRng::seed_from_u64(0xF0D);
        // Intra blocks are `u8 − 128`, residuals `u8 − u8`.
        let intra: Vec<IntBlock> = sample_blocks(&mut rng, 128, 24)
            .into_iter()
            .map(|b| b.map(|v| v.min(127)))
            .collect();
        let residual = sample_blocks(&mut rng, 255, 24);
        for (q, is_intra, t) in all_tables() {
            for block in if is_intra { &intra } else { &residual } {
                let scalar = quantize_aan(&dct::forward_aan(block), t);
                for tier in KernelTier::ALL {
                    assert_eq!(
                        forward_quantize_with(block, t, tier),
                        scalar,
                        "q{q} intra={is_intra} {tier:?} {block:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantiser_matches_scalar_at_every_tier_for_every_i32() {
        let mut rng = SmallRng::seed_from_u64(0x5A7);
        for (q, intra, t) in all_tables() {
            let mut random = |range: std::ops::RangeInclusive<i32>| -> IntBlock {
                std::array::from_fn(|_| rng.gen_range(range.clone()))
            };
            let mut blocks: Vec<IntBlock> = (0..16).map(|_| random(i32::MIN..=i32::MAX)).collect();
            // Small magnitudes, where most levels are decided.
            blocks.extend((0..16).map(|_| random(-1 << 16..=1 << 16)));
            for edge in [i32::MIN, i32::MIN + 1, i32::MAX, 0, 1, -1] {
                blocks.push([edge; 64]);
            }
            // Both sides of every coefficient's saturation magnitude.
            for delta in [-1, 0] {
                for sign in [1, -1] {
                    blocks.push(std::array::from_fn(|i| sign * (t.sat[i] + delta)));
                }
            }
            for block in &blocks {
                let scalar = quantize_aan(block, t);
                assert_eq!(scalar, quantize_aan_branchy(block, t), "q{q} intra={intra}");
                for tier in KernelTier::ALL {
                    let got = quantize_aan_with(block, t, tier);
                    assert_eq!(got, scalar, "q{q} intra={intra} {tier:?}");
                }
            }
            // `sat` is exactly where the level reaches 2047.
            let at_sat = quantize_aan(&t.sat, t);
            let below: IntBlock = std::array::from_fn(|i| t.sat[i] - 1);
            let below = quantize_aan(&below, t);
            for i in 0..64 {
                assert_eq!(at_sat[i], 2047, "q{q} intra={intra} coeff {i}");
                assert!(below[i] < 2047, "q{q} intra={intra} coeff {i}");
            }
        }
    }

    #[test]
    fn fused_inverse_kernel_matches_scalar_at_every_tier() {
        let mut rng = SmallRng::seed_from_u64(0x1DC7);
        for (q, intra, t) in all_tables() {
            let mut blocks: Vec<QBlock> = (0..8)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-2048i16..=2048)))
                .collect();
            // Sparse small levels, as real blocks are: these take the
            // AVX2 kernel.
            blocks.extend((0..16).map(|_| {
                std::array::from_fn(|_| {
                    if rng.gen_bool(0.3) {
                        rng.gen_range(-40i16..=40)
                    } else {
                        0
                    }
                })
            }));
            blocks.extend([[2048; 64], [-2048; 64], [0; 64]]);
            for levels in &blocks {
                let scalar = dct::inverse_aan(&dequantize_aan(levels, t));
                for tier in KernelTier::ALL {
                    let got = dequantize_inverse_with(levels, t, tier);
                    assert_eq!(got, scalar, "q{q} intra={intra} {tier:?}");
                }
            }
        }
        // Coefficient blocks on both sides of the AVX2 limit: at 2^20 the
        // AVX2 kernel runs, at 2^20 + 1 the scalar one; both match.
        let avx2 = Avx2::detect(KernelTier::Avx2);
        for lim in [dct::IDCT_I32_LIMIT, dct::IDCT_I32_LIMIT + 1] {
            let mut blocks: Vec<IntBlock> = (0..64)
                .map(|_| std::array::from_fn(|_| if rng.gen_bool(0.5) { lim } else { -lim }))
                .collect();
            blocks.extend((0..64).map(|k| {
                let mut b: IntBlock = std::array::from_fn(|_| rng.gen_range(-lim..=lim));
                b[k] = if k % 2 == 0 { lim } else { -lim };
                b
            }));
            for block in &blocks {
                let scalar = dct::inverse_aan(block);
                for tier in KernelTier::ALL {
                    assert_eq!(dct::inverse_aan_with(block, tier), scalar, "limit {lim} {tier:?}");
                }
                if let Some(k) = avx2 {
                    let ran = k.inverse(block).is_some();
                    assert_eq!(ran, lim == dct::IDCT_I32_LIMIT, "limit {lim}");
                }
            }
        }
    }

    #[test]
    fn quantize_aan_clamps_extremes() {
        let t = fused_tables(QScale::new(1), false);
        let big = [i32::MAX; 64];
        let lo = [i32::MIN; 64];
        let hi = quantize_aan(&big, t);
        let lv = quantize_aan(&lo, t);
        assert!(hi.iter().all(|&l| l == 2047));
        assert!(lv.iter().all(|&l| l == -2047));
    }
}
