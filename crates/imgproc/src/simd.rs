//! Runtime-dispatched SIMD kernels for the per-pixel hot path.
//!
//! PR 5 vectorised the codec's SAD/half-pel inner loops; this module
//! extends the same **exact-or-reference** discipline to the imgproc
//! layer: histogram accumulation, [`CompensationLut`] application, the
//! [`HebsLut`] remap and both 4:2:0 ↔ RGB colour conversions each get an
//! SSE2 baseline and an AVX2 lane-widened variant, selected at runtime.
//! Every kernel computes the *identical* arithmetic as its retained
//! scalar reference — byte-for-byte, stats included — so tier selection
//! can never change output bytes (the `pipeline_identity` conformance
//! tier and the `simd_props` check! properties pin this down across
//! tiers, worker counts and ragged frame geometries).
//!
//! # Dispatch
//!
//! [`kernel_tier`] picks the widest tier the host supports, overridable
//! with `ANNOLIGHT_KERNEL_TIER=scalar|sse2|avx2` (clamped to what the
//! CPU actually has — asking for AVX2 on an SSE2-only host falls back).
//! Every public entry point also has an explicit `*_with(tier)` form on
//! the owning type so differential tests can pin a tier.
//!
//! # Exactness arguments (checked by the property tiers)
//!
//! * **Luma histogram** — the scalar kernel computes
//!   `y = WR·r + WG·g + WB·b; luma = (y + 32768) >> 16` in `u32`. The
//!   vector form evaluates `pmaddwd` with weights `[WR, WG − 65536, WB, 0]`
//!   (WG alone exceeds `i16::MAX`) and repairs the signed trick by adding
//!   `g·65536` back — the same `y` in `i32`, exactly, since every partial
//!   product fits. Lane counts land in per-lane partial histograms that
//!   are reduced by unsigned addition ([`Histogram::add_bin_counts`] /
//!   [`Histogram::merged`] semantics), which is order-independent.
//! * **Compensation LUT** — `value(c) = (c·k + 32768) >> 16` with `k` in
//!   16.16 fixed point splits as `k = kh·65536 + kl`, giving
//!   `value(c) = c·kh + ((c·kl + 32768) >> 16)` where the inner term is
//!   `mulhi_epu16(c, kl) + (mullo_epi16(c, kl) >> 15)` (the carry of
//!   `+32768` is exactly bit 15 of the low half). For `kh ≤ 127` every
//!   intermediate fits a positive `i16` lane and `packus` saturation
//!   reproduces the scalar's clip-to-255 lane exactly; larger factors
//!   (k ≥ 128, far beyond any real backlight ratio) fall back to the
//!   scalar reference so dispatch stays exact for *all* inputs.
//! * **Clip statistics** — `clipped[c]` is upward-closed in `c` (the raw
//!   product is monotone), so the clipped set is `c ≥ c_min` — one
//!   unsigned byte compare per lane. A pixel clips when *any* of its 3
//!   channels clip: three 16-byte masks concatenate to a 48-bit mask and
//!   `popcount((M | M≫1 | M≫2) & 0x2492_4924_9249)` counts pixel
//!   starts. `max_overshoot` is the overshoot of the *largest* clipped
//!   channel value (the overshoot table is monotone on the clipped
//!   range), tracked as a running `max_epu8`.
//! * **HEBS remap** — a 256-entry table gather. The SSE2 tier vectorises
//!   the clip statistics and keeps the scalar gather; the AVX2 tier
//!   remaps 32 bytes at a time through 16 nibble-indexed `vpshufb` row
//!   lookups (exact: each byte selects its table row by high nibble and
//!   its entry by low nibble).
//! * **Colour conversion** — the oracles [`Yuv8::to_rgb`] and
//!   [`Rgb8::to_yuv`] are `f32` code, so each lane runs the oracle's own
//!   IEEE operation sequence in its association order. Divisions stay
//!   divisions (`v / 0.877`, never `v · (1/0.877)`), and Rust does not
//!   contract to FMA. `round().clamp(0, 255)` becomes clamp, truncate,
//!   then +1 when the fraction is ≥ 0.5. That is exactly
//!   round-half-away-from-zero, because the clamped value is
//!   non-negative and `c − trunc(c)` is exact. The chroma terms
//!   `u / 0.492`, `v / 0.877` are hoisted once per 2×2 block and
//!   replicated across lanes. RGB→YUV sums the four rounded per-pixel
//!   chroma values in integer lanes, the oracle's `(Σ + 2) / 4`.
//!   `tests/pipeline_identity.rs` checks both directions against the
//!   oracles on **all 2²⁴ inputs** at every tier in release builds.

use crate::color::{Rgb8, Yuv8, LUMA_B, LUMA_G, LUMA_R};
use crate::compensate::{ClipStats, CompensationLut};
use crate::frame::{Frame, Yuv420Frame};
use crate::hebs::HebsLut;
use crate::histogram::Histogram;
use std::sync::OnceLock;

/// A SIMD capability tier for the per-pixel kernels.
///
/// Tiers are totally ordered: every tier computes byte-identical results,
/// wider tiers are only faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// The retained scalar reference kernels (every platform).
    Scalar,
    /// 128-bit SSE2 kernels (baseline on x86-64).
    Sse2,
    /// 256-bit AVX2 lane-widened kernels (runtime-detected).
    Avx2,
}

impl KernelTier {
    /// All tiers, narrowest first (the order conformance tests sweep).
    pub const ALL: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2];

    /// Whether this tier's kernels can run on the current host.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => true, // SSE2 is part of the x86-64 baseline ISA
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest tier the host supports.
    #[must_use]
    pub fn detect() -> KernelTier {
        if KernelTier::Avx2.is_available() {
            KernelTier::Avx2
        } else if KernelTier::Sse2.is_available() {
            KernelTier::Sse2
        } else {
            KernelTier::Scalar
        }
    }

    /// Clamps a requested tier to what the host supports (requesting
    /// AVX2 on an SSE2-only machine degrades to SSE2, never errors —
    /// results are identical by construction).
    #[must_use]
    pub fn clamped(self) -> KernelTier {
        if self.is_available() {
            self
        } else if self >= KernelTier::Sse2 && KernelTier::Sse2.is_available() {
            KernelTier::Sse2
        } else {
            KernelTier::Scalar
        }
    }

    /// Parses a tier name (`scalar`, `sse2`, `avx2`), case-insensitive.
    #[must_use]
    pub fn parse(name: &str) -> Option<KernelTier> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// The tier's lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
        }
    }
}

/// The process-wide default kernel tier: the widest the host supports,
/// unless `ANNOLIGHT_KERNEL_TIER=scalar|sse2|avx2` pins one (still
/// clamped to host capability). Cached after the first call.
pub fn kernel_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        match std::env::var("ANNOLIGHT_KERNEL_TIER") {
            Ok(name) => KernelTier::parse(name.trim())
                .unwrap_or_else(|| {
                    panic!("ANNOLIGHT_KERNEL_TIER={name:?} is not scalar|sse2|avx2")
                })
                .clamped(),
            Err(_) => KernelTier::detect(),
        }
    })
}

// ---------------------------------------------------------------------------
// Luma histogram accumulation
// ---------------------------------------------------------------------------

/// Accumulates the luma histogram of interleaved RGB bytes into `counts`
/// (one `u32` per luminance bin) at the requested tier. `rgb.len()` must
/// be a multiple of 3; counts are *added*, not reset.
pub(crate) fn luma_counts(rgb: &[u8], counts: &mut [u32; 256], tier: KernelTier) {
    debug_assert!(rgb.len() % 3 == 0);
    match tier.clamped() {
        KernelTier::Scalar => luma_counts_scalar(rgb, counts),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => luma_counts_sse2(rgb, counts),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => luma_counts_avx2(rgb, counts),
        #[cfg(not(target_arch = "x86_64"))]
        _ => luma_counts_scalar(rgb, counts),
    }
}

/// The scalar reference accumulator (`luma_u8_lut` per pixel — exactly
/// the pre-SIMD histogram kernel).
fn luma_counts_scalar(rgb: &[u8], counts: &mut [u32; 256]) {
    for px in rgb.chunks_exact(3) {
        counts[crate::color::luma_u8_lut(px[0], px[1], px[2]) as usize] += 1;
    }
}

/// Folds four per-lane partial histograms into `counts` — the
/// [`Histogram::merged`]-style unsigned reduction, order-independent.
#[cfg(target_arch = "x86_64")]
fn fold_partials(counts: &mut [u32; 256], parts: &[[u32; 256]; 4]) {
    for v in 0..256 {
        counts[v] += parts[0][v] + parts[1][v] + parts[2][v] + parts[3][v];
    }
}

/// `pmaddwd` weight vector `[WR, WG − 65536, WB, 0]` as `i16` lanes, and
/// the post-hoc `g·65536` repair mask — see the module docs.
#[cfg(target_arch = "x86_64")]
const W_GP: i16 = (crate::color::WG as i64 - 65536) as i16;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn luma_counts_sse2(rgb: &[u8], counts: &mut [u32; 256]) {
    use std::arch::x86_64::*;
    let len = rgb.len();
    let n_px = len / 3;
    let mut parts = [[0u32; 256]; 4];
    let mut i = 0usize;
    // SAFETY: all vector loads are assembled from bounds-checked `u32`
    // reads (the `3i + 13 <= len` guard keeps the 4-byte read at offset
    // `3i + 9` in range); stores go to a stack array; SSE2 is baseline
    // on x86-64.
    unsafe {
        let w = _mm_set_epi16(
            0,
            crate::color::WB as i16,
            W_GP,
            crate::color::WR as i16,
            0,
            crate::color::WB as i16,
            W_GP,
            crate::color::WR as i16,
        );
        let g_mask = _mm_set1_epi32(0x0000_FF00);
        let half = _mm_set1_epi32(32768);
        let zero = _mm_setzero_si128();
        while i + 4 <= n_px && 3 * i + 13 <= len {
            let b = 3 * i;
            let px = |o: usize| -> i32 {
                i32::from_le_bytes(rgb[b + o..b + o + 4].try_into().expect("4-byte read"))
            };
            // Lanes [p0, p1, p2, p3], each `r | g<<8 | b<<16 | junk<<24`;
            // the junk byte multiplies the zero weight lane.
            let x = _mm_set_epi32(px(9), px(6), px(3), px(0));
            let lo16 = _mm_unpacklo_epi8(x, zero); // p0, p1 as u16 lanes
            let hi16 = _mm_unpackhi_epi8(x, zero); // p2, p3
            let mlo = _mm_madd_epi16(lo16, w); // [p0a, p0b, p1a, p1b]
            let mhi = _mm_madd_epi16(hi16, w);
            // Pair-add to per-pixel sums in lanes 0 and 2, then gather.
            let slo = _mm_add_epi32(mlo, _mm_srli_si128(mlo, 4));
            let shi = _mm_add_epi32(mhi, _mm_srli_si128(mhi, 4));
            let y_sums = _mm_unpacklo_epi64(
                _mm_shuffle_epi32(slo, 0b10_00_10_00),
                _mm_shuffle_epi32(shi, 0b10_00_10_00),
            );
            // Repair the signed-WG trick (+ g·65536), round, shift.
            let corr = _mm_slli_epi32(_mm_and_si128(x, g_mask), 8);
            let lum = _mm_srli_epi32(_mm_add_epi32(_mm_add_epi32(y_sums, corr), half), 16);
            let mut lanes = [0u32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), lum);
            parts[0][lanes[0] as usize] += 1;
            parts[1][lanes[1] as usize] += 1;
            parts[2][lanes[2] as usize] += 1;
            parts[3][lanes[3] as usize] += 1;
            i += 4;
        }
    }
    // Ragged tail: scalar reference into partial 0.
    for px in rgb[3 * i..].chunks_exact(3) {
        parts[0][crate::color::luma_u8_lut(px[0], px[1], px[2]) as usize] += 1;
    }
    fold_partials(counts, &parts);
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn luma_counts_avx2(rgb: &[u8], counts: &mut [u32; 256]) {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return luma_counts_sse2(rgb, counts);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { luma_counts_avx2_inner(rgb, counts) }
}

/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn luma_counts_avx2_inner(rgb: &[u8], counts: &mut [u32; 256]) {
    use std::arch::x86_64::*;
    let len = rgb.len();
    let n_px = len / 3;
    let mut parts = [[0u32; 256]; 4];
    let mut i = 0usize;
    // SAFETY: vector lanes are assembled from bounds-checked `u32` reads
    // (the `3i + 25 <= len` guard keeps the last 4-byte read, at offset
    // `3i + 21`, in range); stores go to a stack array.
    unsafe {
        let w = _mm256_set1_epi64x(
            (u64::from(crate::color::WR as u16)
                | (u64::from(W_GP as u16) << 16)
                | (u64::from(crate::color::WB as u16) << 32)) as i64,
        );
        let g_mask = _mm256_set1_epi32(0x0000_FF00);
        let half = _mm256_set1_epi32(32768);
        let zero = _mm256_setzero_si256();
        while i + 8 <= n_px && 3 * i + 25 <= len {
            let b = 3 * i;
            let px = |o: usize| -> i32 {
                i32::from_le_bytes(rgb[b + o..b + o + 4].try_into().expect("4-byte read"))
            };
            let x = _mm256_set_epi32(px(21), px(18), px(15), px(12), px(9), px(6), px(3), px(0));
            // In-lane unpack permutes pixel order across the two 128-bit
            // halves — harmless: histogram accumulation is
            // order-independent.
            let lo16 = _mm256_unpacklo_epi8(x, zero);
            let hi16 = _mm256_unpackhi_epi8(x, zero);
            let mlo = _mm256_madd_epi16(lo16, w);
            let mhi = _mm256_madd_epi16(hi16, w);
            let slo = _mm256_add_epi32(mlo, _mm256_srli_si256(mlo, 4));
            let shi = _mm256_add_epi32(mhi, _mm256_srli_si256(mhi, 4));
            let y_sums = _mm256_unpacklo_epi64(
                _mm256_shuffle_epi32(slo, 0b10_00_10_00),
                _mm256_shuffle_epi32(shi, 0b10_00_10_00),
            );
            // The in-lane unpack/pair-add/gather path puts pixel sums
            // back in original lane order per 128-bit half, so the same
            // g-repair mask as the SSE2 kernel applies lane-for-lane.
            let corr = _mm256_slli_epi32(_mm256_and_si256(x, g_mask), 8);
            let lum =
                _mm256_srli_epi32(_mm256_add_epi32(_mm256_add_epi32(y_sums, corr), half), 16);
            let mut lanes = [0u32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), lum);
            parts[0][lanes[0] as usize] += 1;
            parts[1][lanes[1] as usize] += 1;
            parts[2][lanes[2] as usize] += 1;
            parts[3][lanes[3] as usize] += 1;
            parts[0][lanes[4] as usize] += 1;
            parts[1][lanes[5] as usize] += 1;
            parts[2][lanes[6] as usize] += 1;
            parts[3][lanes[7] as usize] += 1;
            i += 8;
        }
    }
    for px in rgb[3 * i..].chunks_exact(3) {
        parts[0][crate::color::luma_u8_lut(px[0], px[1], px[2]) as usize] += 1;
    }
    fold_partials(counts, &parts);
}

/// Builds the luma histogram of `frame` at `tier` (always byte-identical
/// to the scalar reference; see [`Frame::luma_histogram_with`]).
pub fn luma_histogram(frame: &Frame, tier: KernelTier) -> Histogram {
    let mut h = Histogram::new();
    luma_histogram_into(frame, &mut h, tier);
    h
}

/// Resets `out` and accumulates `frame`'s luma histogram into it —
/// the allocation-free form (both the histogram bins and the kernel's
/// partials are inline/stack storage).
pub fn luma_histogram_into(frame: &Frame, out: &mut Histogram, tier: KernelTier) {
    out.reset();
    let mut counts = [0u32; 256];
    luma_counts(frame.as_bytes(), &mut counts, tier);
    out.add_bin_counts(&counts);
}

// ---------------------------------------------------------------------------
// Clip-mask pixel counting (shared by the compensation and HEBS kernels)
// ---------------------------------------------------------------------------

/// Bits 0, 3, 6, … 45 — the pixel-start positions inside a 48-bit
/// (16-pixel) channel mask.
#[cfg(target_arch = "x86_64")]
const PX_BITS_48: u64 = 0x2492_4924_9249;

/// Counts pixels with *any* set channel bit in a 48-bit channel mask.
#[cfg(target_arch = "x86_64")]
#[inline]
fn count_clipped_pixels_48(m: u64) -> u64 {
    u64::from(((m | (m >> 1) | (m >> 2)) & PX_BITS_48).count_ones())
}

// ---------------------------------------------------------------------------
// Compensation LUT application
// ---------------------------------------------------------------------------

/// Applies `lut` to `frame` in place at `tier`, returning clip stats
/// byte-identical to the scalar reference.
pub fn compensation_apply(lut: &CompensationLut, frame: &mut Frame, tier: KernelTier) -> ClipStats {
    // k >= 128 would overflow the positive-i16 lane argument; no real
    // backlight ratio gets near it. The scalar reference is exact for
    // every factor.
    let vector_ok = lut.k_fixed < (128u64 << 16);
    match tier.clamped() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 if vector_ok => compensation_apply_sse2(lut, frame),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 if vector_ok => compensation_apply_avx2(lut, frame),
        _ => lut.apply_scalar(frame),
    }
}

/// The smallest channel value that clips under `lut`, if any. The
/// clipped set is upward-closed (`raw = c·k` is monotone in `c`), so a
/// single unsigned `>=` compare per lane classifies every byte.
#[cfg(target_arch = "x86_64")]
fn clip_threshold(lut: &CompensationLut) -> Option<u8> {
    lut.clipped.iter().position(|&c| c).map(|i| i as u8)
}

/// Scalar per-channel update for the ragged tail of the vector kernels:
/// tracks the max *clipped channel value* instead of the overshoot so
/// the final overshoot lookup matches the vector path bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[inline]
fn comp_tail(lut: &CompensationLut, tail: &mut [u8], clipped_px: &mut u64, max_c: &mut u8, any: &mut bool) {
    for px in tail.chunks_exact_mut(3) {
        let mut clipped = false;
        for ch in px.iter_mut() {
            let i = *ch as usize;
            if lut.clipped[i] {
                clipped = true;
                *any = true;
                if *ch > *max_c {
                    *max_c = *ch;
                }
            }
            *ch = lut.values[i];
        }
        if clipped {
            *clipped_px += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compensation_apply_sse2(lut: &CompensationLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let kh = (lut.k_fixed >> 16) as u16;
    let kl = (lut.k_fixed & 0xFFFF) as u16;
    let threshold = clip_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 48;
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: every load/store covers a bounds-checked 16-byte subslice
    // of the frame buffer (the block loop stops at `48·blocks <= len`);
    // all accesses are explicitly unaligned; SSE2 is baseline on x86-64.
    unsafe {
        let khv = _mm_set1_epi16(kh as i16);
        let klv = _mm_set1_epi16(kl as i16);
        let zero = _mm_setzero_si128();
        let thr = threshold.map(|t| _mm_set1_epi8(t as i8));
        let mut maxv = _mm_setzero_si128();
        for blk in 0..blocks {
            let base = blk * 48;
            let mut mask48 = 0u64;
            for part in 0..3 {
                let off = base + part * 16;
                let v = _mm_loadu_si128(data[off..off + 16].as_ptr().cast());
                // value(c) = c·kh + mulhi_u16(c, kl) + (mullo(c, kl) >> 15)
                // — exactly (c·k + 32768) >> 16 for kh <= 127.
                let lo = _mm_unpacklo_epi8(v, zero);
                let hi = _mm_unpackhi_epi8(v, zero);
                let val_lo = _mm_add_epi16(
                    _mm_mullo_epi16(lo, khv),
                    _mm_add_epi16(
                        _mm_mulhi_epu16(lo, klv),
                        _mm_srli_epi16(_mm_mullo_epi16(lo, klv), 15),
                    ),
                );
                let val_hi = _mm_add_epi16(
                    _mm_mullo_epi16(hi, khv),
                    _mm_add_epi16(
                        _mm_mulhi_epu16(hi, klv),
                        _mm_srli_epi16(_mm_mullo_epi16(hi, klv), 15),
                    ),
                );
                // Clipped lanes exceed 255 and saturate — the scalar
                // clip-to-255 lane, exactly.
                let out = _mm_packus_epi16(val_lo, val_hi);
                _mm_storeu_si128(data[off..off + 16].as_mut_ptr().cast(), out);
                if let Some(t) = thr {
                    // v >= threshold, unsigned: max(v, t) == v.
                    let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, t), v);
                    maxv = _mm_max_epu8(maxv, _mm_and_si128(v, ge));
                    let bits = _mm_movemask_epi8(ge) as u32 as u64;
                    mask48 |= bits << (16 * part);
                }
            }
            if mask48 != 0 {
                any = true;
                clipped_px += count_clipped_pixels_48(mask48);
            }
        }
        if any {
            let mut bytes = [0u8; 16];
            _mm_storeu_si128(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    comp_tail(lut, &mut data[blocks * 48..], &mut clipped_px, &mut max_c, &mut any);
    ClipStats {
        clipped_pixels: clipped_px,
        total_pixels,
        max_overshoot: if any { lut.overshoot[max_c as usize] } else { 0.0 },
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compensation_apply_avx2(lut: &CompensationLut, frame: &mut Frame) -> ClipStats {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return compensation_apply_sse2(lut, frame);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { compensation_apply_avx2_inner(lut, frame) }
}

/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn compensation_apply_avx2_inner(lut: &CompensationLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let kh = (lut.k_fixed >> 16) as u16;
    let kl = (lut.k_fixed & 0xFFFF) as u16;
    let threshold = clip_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 96; // 32 pixels per block
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: every load/store covers a bounds-checked 32-byte subslice;
    // all accesses are explicitly unaligned.
    unsafe {
        let khv = _mm256_set1_epi16(kh as i16);
        let klv = _mm256_set1_epi16(kl as i16);
        let zero = _mm256_setzero_si256();
        let thr = threshold.map(|t| _mm256_set1_epi8(t as i8));
        let mut maxv = _mm256_setzero_si256();
        for blk in 0..blocks {
            let base = blk * 96;
            let mut mask96 = 0u128;
            for part in 0..3 {
                let off = base + part * 32;
                let v = _mm256_loadu_si256(data[off..off + 32].as_ptr().cast());
                let lo = _mm256_unpacklo_epi8(v, zero);
                let hi = _mm256_unpackhi_epi8(v, zero);
                let val_lo = _mm256_add_epi16(
                    _mm256_mullo_epi16(lo, khv),
                    _mm256_add_epi16(
                        _mm256_mulhi_epu16(lo, klv),
                        _mm256_srli_epi16(_mm256_mullo_epi16(lo, klv), 15),
                    ),
                );
                let val_hi = _mm256_add_epi16(
                    _mm256_mullo_epi16(hi, khv),
                    _mm256_add_epi16(
                        _mm256_mulhi_epu16(hi, klv),
                        _mm256_srli_epi16(_mm256_mullo_epi16(hi, klv), 15),
                    ),
                );
                // packus is in-lane and unpack lo/hi are in-lane, so the
                // byte order round-trips exactly.
                let out = _mm256_packus_epi16(val_lo, val_hi);
                _mm256_storeu_si256(data[off..off + 32].as_mut_ptr().cast(), out);
                if let Some(t) = thr {
                    let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, t), v);
                    maxv = _mm256_max_epu8(maxv, _mm256_and_si256(v, ge));
                    let bits = _mm256_movemask_epi8(ge) as u32 as u128;
                    mask96 |= bits << (32 * part);
                }
            }
            if mask96 != 0 {
                any = true;
                // Same pixel-start trick as the 48-bit form, widened to
                // 96 bits (32 pixels).
                const PX_BITS_96: u128 = 0x0024_9249_2492_4924_9249_2492_4924_9249;
                clipped_px += u128::count_ones(
                    (mask96 | (mask96 >> 1) | (mask96 >> 2)) & PX_BITS_96,
                ) as u64;
            }
        }
        if any {
            let mut bytes = [0u8; 32];
            _mm256_storeu_si256(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    comp_tail(lut, &mut data[blocks * 96..], &mut clipped_px, &mut max_c, &mut any);
    ClipStats {
        clipped_pixels: clipped_px,
        total_pixels,
        max_overshoot: if any { lut.overshoot[max_c as usize] } else { 0.0 },
    }
}

// ---------------------------------------------------------------------------
// HEBS remap application
// ---------------------------------------------------------------------------

/// Applies the HEBS remap to `frame` in place at `tier`, returning clip
/// stats byte-identical to the scalar reference.
pub fn hebs_apply(lut: &HebsLut, frame: &mut Frame, tier: KernelTier) -> ClipStats {
    match tier.clamped() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => hebs_apply_sse2(lut, frame),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => hebs_apply_avx2(lut, frame),
        _ => lut.apply_scalar(frame),
    }
}

/// HEBS clipping threshold: channels strictly above the effective max
/// clip, i.e. `c >= eff + 1`; `None` when nothing can clip (`eff` is 0
/// or 255).
#[cfg(target_arch = "x86_64")]
fn hebs_threshold(lut: &HebsLut) -> Option<u8> {
    if lut.effective_max == 0 || lut.effective_max == 255 {
        None
    } else {
        Some(lut.effective_max + 1)
    }
}

/// Scalar tail for the HEBS vector kernels (same max-clipped-channel
/// tracking as [`comp_tail`]).
#[cfg(target_arch = "x86_64")]
#[inline]
fn hebs_tail(lut: &HebsLut, tail: &mut [u8], clipped_px: &mut u64, max_c: &mut u8, any: &mut bool) {
    for px in tail.chunks_exact_mut(3) {
        let mut clipped = false;
        for ch in px.iter_mut() {
            if lut.is_clipped(*ch) {
                clipped = true;
                *any = true;
                if *ch > *max_c {
                    *max_c = *ch;
                }
            }
            *ch = lut.remap[*ch as usize];
        }
        if clipped {
            *clipped_px += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn hebs_stats_to_clipstats(lut: &HebsLut, clipped_px: u64, max_c: u8, any: bool, total: u64) -> ClipStats {
    ClipStats {
        clipped_pixels: clipped_px,
        total_pixels: total,
        // The scalar kernel's overshoot is `c − eff` of the largest
        // clipped channel (monotone in `c`), as exact `f32` arithmetic
        // on small integers.
        max_overshoot: if any {
            f32::from(max_c) - f32::from(lut.effective_max)
        } else {
            0.0
        },
    }
}

/// SSE2 tier: vectorised clip statistics, unrolled scalar table gather
/// (SSE2 has no byte gather; the stats masks are where the scalar loop
/// spends its branches).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn hebs_apply_sse2(lut: &HebsLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let threshold = hebs_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 48;
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: loads cover bounds-checked 16-byte subslices; SSE2 is
    // baseline on x86-64.
    unsafe {
        let thr = threshold.map(|t| _mm_set1_epi8(t as i8));
        let mut maxv = _mm_setzero_si128();
        for blk in 0..blocks {
            let base = blk * 48;
            if let Some(t) = thr {
                let mut mask48 = 0u64;
                for part in 0..3 {
                    let off = base + part * 16;
                    let v = _mm_loadu_si128(data[off..off + 16].as_ptr().cast());
                    let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, t), v);
                    maxv = _mm_max_epu8(maxv, _mm_and_si128(v, ge));
                    let bits = _mm_movemask_epi8(ge) as u32 as u64;
                    mask48 |= bits << (16 * part);
                }
                if mask48 != 0 {
                    any = true;
                    clipped_px += count_clipped_pixels_48(mask48);
                }
            }
            // Table gather, unrolled over the block.
            for byte in &mut data[base..base + 48] {
                *byte = lut.remap[*byte as usize];
            }
        }
        if any {
            let mut bytes = [0u8; 16];
            _mm_storeu_si128(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    hebs_tail(lut, &mut data[blocks * 48..], &mut clipped_px, &mut max_c, &mut any);
    hebs_stats_to_clipstats(lut, clipped_px, max_c, any, total_pixels)
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn hebs_apply_avx2(lut: &HebsLut, frame: &mut Frame) -> ClipStats {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return hebs_apply_sse2(lut, frame);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { hebs_apply_avx2_inner(lut, frame) }
}

/// AVX2 tier: full-vector remap. Each 32-byte vector is remapped through
/// 16 nibble-row `vpshufb` lookups — byte `c` selects table row
/// `c >> 4` (a `cmpeq` mask against the row index) and entry `c & 15`
/// (the shuffle index), which is exactly `remap[c]`.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn hebs_apply_avx2_inner(lut: &HebsLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let threshold = hebs_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 96;
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: loads/stores cover bounds-checked 32-byte subslices; the
    // row loads cover 16-byte subslices of the 256-entry table.
    unsafe {
        // The 16 table rows, each broadcast to both 128-bit lanes.
        let mut rows = [_mm256_setzero_si256(); 16];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                lut.remap[r * 16..r * 16 + 16].as_ptr().cast(),
            ));
        }
        let low_nib = _mm256_set1_epi8(0x0F);
        let thr = threshold.map(|t| _mm256_set1_epi8(t as i8));
        let mut maxv = _mm256_setzero_si256();
        for blk in 0..blocks {
            let base = blk * 96;
            let mut mask96 = 0u128;
            for part in 0..3 {
                let off = base + part * 32;
                let v = _mm256_loadu_si256(data[off..off + 32].as_ptr().cast());
                if let Some(t) = thr {
                    let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, t), v);
                    maxv = _mm256_max_epu8(maxv, _mm256_and_si256(v, ge));
                    let bits = _mm256_movemask_epi8(ge) as u32 as u128;
                    mask96 |= bits << (32 * part);
                }
                let lo = _mm256_and_si256(v, low_nib);
                let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nib);
                let mut out = _mm256_setzero_si256();
                for (r, row) in rows.iter().enumerate() {
                    let sel = _mm256_cmpeq_epi8(hi, _mm256_set1_epi8(r as i8));
                    out = _mm256_or_si256(out, _mm256_and_si256(_mm256_shuffle_epi8(*row, lo), sel));
                }
                _mm256_storeu_si256(data[off..off + 32].as_mut_ptr().cast(), out);
            }
            if mask96 != 0 {
                any = true;
                const PX_BITS_96: u128 = 0x0024_9249_2492_4924_9249_2492_4924_9249;
                clipped_px += u128::count_ones(
                    (mask96 | (mask96 >> 1) | (mask96 >> 2)) & PX_BITS_96,
                ) as u64;
            }
        }
        if any {
            let mut bytes = [0u8; 32];
            _mm256_storeu_si256(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    hebs_tail(lut, &mut data[blocks * 96..], &mut clipped_px, &mut max_c, &mut any);
    hebs_stats_to_clipstats(lut, clipped_px, max_c, any, total_pixels)
}

// ---------------------------------------------------------------------------
// Colour conversion (planar 4:2:0 YUV <-> interleaved RGB)
// ---------------------------------------------------------------------------

/// One chroma row of a 4:2:0 frame, its two luma rows, and the two RGB
/// rows they convert to.
struct ToRgbRows<'a> {
    y: [&'a [u8]; 2],
    u: &'a [u8],
    v: &'a [u8],
    rgb: [&'a mut [u8]; 2],
}

/// Two interleaved RGB rows and the 4:2:0 rows they convert to.
struct ToYuvRows<'a> {
    rgb: [&'a [u8]; 2],
    y: [&'a mut [u8]; 2],
    u: &'a mut [u8],
    v: &'a mut [u8],
}

/// Converts `src` into `out` at `tier`. The caller has checked that the
/// geometries match.
pub(crate) fn yuv420_to_rgb(src: &Yuv420Frame, out: &mut Frame, tier: KernelTier) {
    let tier = tier.clamped();
    let w = src.width() as usize;
    let cw = w / 2;
    let rows = out
        .as_bytes_mut()
        .chunks_exact_mut(6 * w)
        .zip(src.y_plane().chunks_exact(2 * w))
        .zip(src.u_plane().chunks_exact(cw).zip(src.v_plane().chunks_exact(cw)));
    for ((rgb, y), (u, v)) in rows {
        let (rgb0, rgb1) = rgb.split_at_mut(3 * w);
        let (y0, y1) = y.split_at(w);
        let mut rows = ToRgbRows { y: [y0, y1], u, v, rgb: [rgb0, rgb1] };
        // Each vector kernel converts a prefix of the chroma columns and
        // returns its length; the scalar oracle finishes the row pair.
        let done = match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => to_rgb_rows_sse2(&mut rows),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => to_rgb_rows_avx2(&mut rows),
            _ => 0,
        };
        to_rgb_rows_scalar(&mut rows, done);
    }
}

/// The scalar oracle — [`Yuv8::to_rgb`] per pixel — over chroma columns
/// `cx0..`.
fn to_rgb_rows_scalar(rows: &mut ToRgbRows<'_>, cx0: usize) {
    for (y, rgb) in rows.y.iter().zip(rows.rgb.iter_mut()) {
        for x in 2 * cx0..y.len() {
            let p = Yuv8::new(y[x], rows.u[x / 2], rows.v[x / 2]).to_rgb();
            rgb[3 * x..3 * x + 3].copy_from_slice(&p.to_array());
        }
    }
}

/// Converts `src` into `out` at `tier`. The caller has checked that the
/// geometries match.
pub(crate) fn rgb_to_yuv420(src: &Frame, out: &mut Yuv420Frame, tier: KernelTier) {
    let tier = tier.clamped();
    let w = src.width() as usize;
    let cw = w / 2;
    let (yp, up, vp) = out.planes_mut();
    let rows = src
        .as_bytes()
        .chunks_exact(6 * w)
        .zip(yp.chunks_exact_mut(2 * w))
        .zip(up.chunks_exact_mut(cw).zip(vp.chunks_exact_mut(cw)));
    for ((rgb, y), (u, v)) in rows {
        let (rgb0, rgb1) = rgb.split_at(3 * w);
        let (y0, y1) = y.split_at_mut(w);
        let mut rows = ToYuvRows { rgb: [rgb0, rgb1], y: [y0, y1], u, v };
        // Each vector kernel converts a prefix of the chroma columns and
        // returns its length; the scalar oracle finishes the row pair.
        let done = match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => to_yuv_rows_sse2(&mut rows),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => to_yuv_rows_avx2(&mut rows),
            _ => 0,
        };
        to_yuv_rows_scalar(&mut rows, done);
    }
}

/// The scalar oracle over chroma columns `cx0..`: [`Rgb8::to_yuv`] once
/// per pixel, luma stored, chroma box-averaged over the 2×2 block.
fn to_yuv_rows_scalar(rows: &mut ToYuvRows<'_>, cx0: usize) {
    for cx in cx0..rows.u.len() {
        let (mut su, mut sv) = (0u32, 0u32);
        for (rgb, y) in rows.rgb.iter().zip(rows.y.iter_mut()) {
            for x in 2 * cx..2 * cx + 2 {
                let p = Rgb8::new(rgb[3 * x], rgb[3 * x + 1], rgb[3 * x + 2]).to_yuv();
                y[x] = p.y;
                su += u32::from(p.u);
                sv += u32::from(p.v);
            }
        }
        rows.u[cx] = ((su + 2) / 4) as u8;
        rows.v[cx] = ((sv + 2) / 4) as u8;
    }
}

/// `pshufb` masks that interleave planar R, G, B bytes: entry `[k][c]`
/// moves channel `c`'s bytes into output bytes `16k..16k + 16` (`0x80`
/// zeroes a lane).
#[cfg(target_arch = "x86_64")]
const INTERLEAVE: [[[u8; 16]; 3]; 3] = {
    let mut m = [[[0x80u8; 16]; 3]; 3];
    let mut pos = 0;
    while pos < 48 {
        m[pos / 16][pos % 3][pos % 16] = (pos / 3) as u8;
        pos += 1;
    }
    m
};

/// The inverse of [`INTERLEAVE`]: entry `[k][c]` gathers channel `c`'s
/// bytes out of input bytes `16k..16k + 16`.
#[cfg(target_arch = "x86_64")]
const DEINTERLEAVE: [[[u8; 16]; 3]; 3] = {
    let mut m = [[[0x80u8; 16]; 3]; 3];
    let mut pos = 0;
    while pos < 48 {
        m[pos / 16][pos % 3][pos / 3] = (pos % 16) as u8;
        pos += 1;
    }
    m
};

/// [`clamp_u8`](crate::color) lane-wise: clamp to `[0, 255]`, truncate,
/// then add 1 when the dropped fraction is at least one half — exactly
/// round-half-away-then-clamp, because the clamped value is non-negative
/// and `c − trunc(c)` is exact.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
fn round_clamp_sse2(x: std::arch::x86_64::__m128) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is baseline on x86-64.
    unsafe {
        let c = _mm_min_ps(_mm_max_ps(x, _mm_setzero_ps()), _mm_set1_ps(255.0));
        let t = _mm_cvttps_epi32(c);
        let up = _mm_cmpge_ps(_mm_sub_ps(c, _mm_cvtepi32_ps(t)), _mm_set1_ps(0.5));
        _mm_sub_epi32(t, _mm_castps_si128(up))
    }
}

/// Packs two vectors of 4 in-range `i32` lanes into 8 bytes (the low
/// half of the result).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
fn pack8_sse2(lo: std::arch::x86_64::__m128i, hi: std::arch::x86_64::__m128i) -> [u8; 8] {
    use std::arch::x86_64::*;
    let mut out = [0u8; 8];
    // SAFETY: SSE2 is baseline; the store covers the 8-byte array.
    unsafe {
        let b = _mm_packus_epi16(_mm_packs_epi32(lo, hi), _mm_setzero_si128());
        _mm_storel_epi64(out.as_mut_ptr().cast(), b);
    }
    out
}

/// SSE2 YUV→RGB: 4 chroma columns (8 pixels per row) per step.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn to_rgb_rows_sse2(rows: &mut ToRgbRows<'_>) -> usize {
    use std::arch::x86_64::*;
    let chunks = rows.u.len() / 4;
    // SAFETY: loads are 4- and 8-byte reads of bounds-checked subslices;
    // SSE2 is baseline on x86-64.
    unsafe {
        let zero = _mm_setzero_si128();
        let widen4 = |b: &[u8]| -> __m128 {
            let x = _mm_cvtsi32_si128(i32::from_le_bytes(b.try_into().expect("4 bytes")));
            _mm_cvtepi32_ps(_mm_unpacklo_epi16(_mm_unpacklo_epi8(x, zero), zero))
        };
        let (half, ku, kv) = (_mm_set1_ps(128.0), _mm_set1_ps(0.492), _mm_set1_ps(0.877));
        let (lr, lg, lb) = (_mm_set1_ps(LUMA_R), _mm_set1_ps(LUMA_G), _mm_set1_ps(LUMA_B));
        for c in 0..chunks {
            let cx = 4 * c;
            // Chroma terms, once per 2×2 block: `u / 0.492`, `v / 0.877`.
            let uq = _mm_div_ps(_mm_sub_ps(widen4(&rows.u[cx..cx + 4]), half), ku);
            let vq = _mm_div_ps(_mm_sub_ps(widen4(&rows.v[cx..cx + 4]), half), kv);
            let uq = [_mm_unpacklo_ps(uq, uq), _mm_unpackhi_ps(uq, uq)];
            let vq = [_mm_unpacklo_ps(vq, vq), _mm_unpackhi_ps(vq, vq)];
            for (y_row, rgb_row) in rows.y.iter().zip(rows.rgb.iter_mut()) {
                let x = 2 * cx;
                let y16 = _mm_unpacklo_epi8(_mm_loadl_epi64(y_row[x..x + 8].as_ptr().cast()), zero);
                let ys = [_mm_unpacklo_epi16(y16, zero), _mm_unpackhi_epi16(y16, zero)];
                let mut ch = [[zero; 2]; 3];
                for h in 0..2 {
                    let y = _mm_cvtepi32_ps(ys[h]);
                    let r = _mm_add_ps(y, vq[h]);
                    let b = _mm_add_ps(y, uq[h]);
                    let g = _mm_div_ps(_mm_sub_ps(_mm_sub_ps(y, _mm_mul_ps(lr, r)), _mm_mul_ps(lb, b)), lg);
                    ch[0][h] = round_clamp_sse2(r);
                    ch[1][h] = round_clamp_sse2(g);
                    ch[2][h] = round_clamp_sse2(b);
                }
                let planar = ch.map(|[lo, hi]| pack8_sse2(lo, hi));
                for (i, px) in rgb_row[3 * x..3 * x + 24].chunks_exact_mut(3).enumerate() {
                    px.copy_from_slice(&[planar[0][i], planar[1][i], planar[2][i]]);
                }
            }
        }
    }
    4 * chunks
}

/// SSE2 RGB→YUV: 4 chroma columns (8 pixels per row) per step.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn to_yuv_rows_sse2(rows: &mut ToYuvRows<'_>) -> usize {
    use std::arch::x86_64::*;
    let chunks = rows.u.len() / 4;
    // SAFETY: lanes are assembled from bounds-checked byte reads; the
    // 8-byte luma store covers a bounds-checked subslice; SSE2 is
    // baseline on x86-64.
    unsafe {
        let (half, ku, kv) = (_mm_set1_ps(128.0), _mm_set1_ps(0.492), _mm_set1_ps(0.877));
        let (lr, lg, lb) = (_mm_set1_ps(LUMA_R), _mm_set1_ps(LUMA_G), _mm_set1_ps(LUMA_B));
        for c in 0..chunks {
            let cx = 4 * c;
            let mut su = _mm_setzero_si128();
            let mut sv = _mm_setzero_si128();
            for (rgb_row, y_row) in rows.rgb.iter().zip(rows.y.iter_mut()) {
                let x = 2 * cx;
                let px = &rgb_row[3 * x..3 * x + 24];
                let mut ys = [_mm_setzero_si128(); 2];
                let mut us = [_mm_setzero_si128(); 2];
                let mut vs = [_mm_setzero_si128(); 2];
                for h in 0..2 {
                    let lane = |i: usize, ch: usize| i32::from(px[12 * h + 3 * i + ch]);
                    let chan = |ch: usize| {
                        _mm_cvtepi32_ps(_mm_setr_epi32(lane(0, ch), lane(1, ch), lane(2, ch), lane(3, ch)))
                    };
                    let (r, g, b) = (chan(0), chan(1), chan(2));
                    let y = _mm_add_ps(_mm_add_ps(_mm_mul_ps(lr, r), _mm_mul_ps(lg, g)), _mm_mul_ps(lb, b));
                    let u = _mm_add_ps(_mm_mul_ps(ku, _mm_sub_ps(b, y)), half);
                    let v = _mm_add_ps(_mm_mul_ps(kv, _mm_sub_ps(r, y)), half);
                    ys[h] = round_clamp_sse2(y);
                    us[h] = round_clamp_sse2(u);
                    vs[h] = round_clamp_sse2(v);
                }
                y_row[x..x + 8].copy_from_slice(&pack8_sse2(ys[0], ys[1]));
                // Horizontal pair sums: even lanes plus odd lanes.
                let pairs = |[a, b]: [__m128i; 2]| {
                    let (a, b) = (_mm_castsi128_ps(a), _mm_castsi128_ps(b));
                    _mm_add_epi32(
                        _mm_castps_si128(_mm_shuffle_ps(a, b, 0b10_00_10_00)),
                        _mm_castps_si128(_mm_shuffle_ps(a, b, 0b11_01_11_01)),
                    )
                };
                su = _mm_add_epi32(su, pairs(us));
                sv = _mm_add_epi32(sv, pairs(vs));
            }
            let two = _mm_set1_epi32(2);
            let u = pack8_sse2(_mm_srli_epi32(_mm_add_epi32(su, two), 2), _mm_setzero_si128());
            let v = pack8_sse2(_mm_srli_epi32(_mm_add_epi32(sv, two), 2), _mm_setzero_si128());
            rows.u[cx..cx + 4].copy_from_slice(&u[..4]);
            rows.v[cx..cx + 4].copy_from_slice(&v[..4]);
        }
    }
    4 * chunks
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn to_rgb_rows_avx2(rows: &mut ToRgbRows<'_>) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return to_rgb_rows_sse2(rows);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { to_rgb_rows_avx2_inner(rows) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn to_yuv_rows_avx2(rows: &mut ToYuvRows<'_>) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return to_yuv_rows_sse2(rows);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { to_yuv_rows_avx2_inner(rows) }
}

/// [`round_clamp_sse2`] on 8 lanes.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round_clamp_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let c = _mm256_min_ps(_mm256_max_ps(x, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
    let t = _mm256_cvttps_epi32(c);
    let up = _mm256_cmp_ps(_mm256_sub_ps(c, _mm256_cvtepi32_ps(t)), _mm256_set1_ps(0.5), _CMP_GE_OQ);
    _mm256_sub_epi32(t, _mm256_castps_si256(up))
}

/// Packs two vectors of 8 in-range `i32` lanes into 16 bytes, in order.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn pack16_avx2(
    lo: std::arch::x86_64::__m256i,
    hi: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    // packus works per 128-bit lane; the qword permute restores order.
    let w = _mm256_permute4x64_epi64(_mm256_packus_epi32(lo, hi), 0b11_01_10_00);
    _mm_packus_epi16(_mm256_castsi256_si128(w), _mm256_extracti128_si256(w, 1))
}

/// Widens 8 bytes to 8 `f32` lanes.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn widen8_avx2(b: std::arch::x86_64::__m128i) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b))
}

/// AVX2 YUV→RGB: 8 chroma columns (16 pixels per row) per step, RGB
/// interleaved with `pshufb` (SSSE3, implied by AVX2).
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn to_rgb_rows_avx2_inner(rows: &mut ToRgbRows<'_>) -> usize {
    use std::arch::x86_64::*;
    let chunks = rows.u.len() / 8;
    // SAFETY: every load/store covers a bounds-checked subslice of the
    // stated length; the masks are 16-byte arrays.
    unsafe {
        let (half, ku, kv) = (_mm256_set1_ps(128.0), _mm256_set1_ps(0.492), _mm256_set1_ps(0.877));
        let (lr, lg, lb) = (_mm256_set1_ps(LUMA_R), _mm256_set1_ps(LUMA_G), _mm256_set1_ps(LUMA_B));
        let dup = [_mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3), _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7)];
        let masks = INTERLEAVE.map(|k| k.map(|m| _mm_loadu_si128(m.as_ptr().cast())));
        for c in 0..chunks {
            let cx = 8 * c;
            // Chroma terms, once per 2×2 block: `u / 0.492`, `v / 0.877`.
            let load8 = |s: &[u8]| widen8_avx2(_mm_loadl_epi64(s[cx..cx + 8].as_ptr().cast()));
            let uq = _mm256_div_ps(_mm256_sub_ps(load8(rows.u), half), ku);
            let vq = _mm256_div_ps(_mm256_sub_ps(load8(rows.v), half), kv);
            let uq = dup.map(|d| _mm256_permutevar8x32_ps(uq, d));
            let vq = dup.map(|d| _mm256_permutevar8x32_ps(vq, d));
            for (y_row, rgb_row) in rows.y.iter().zip(rows.rgb.iter_mut()) {
                let x = 2 * cx;
                let y16 = _mm_loadu_si128(y_row[x..x + 16].as_ptr().cast());
                let ys = [y16, _mm_srli_si128(y16, 8)];
                let mut ch = [[_mm256_setzero_si256(); 2]; 3];
                for h in 0..2 {
                    let y = widen8_avx2(ys[h]);
                    let r = _mm256_add_ps(y, vq[h]);
                    let b = _mm256_add_ps(y, uq[h]);
                    let g = _mm256_div_ps(
                        _mm256_sub_ps(_mm256_sub_ps(y, _mm256_mul_ps(lr, r)), _mm256_mul_ps(lb, b)),
                        lg,
                    );
                    ch[0][h] = round_clamp_avx2(r);
                    ch[1][h] = round_clamp_avx2(g);
                    ch[2][h] = round_clamp_avx2(b);
                }
                let planar = ch.map(|[lo, hi]| pack16_avx2(lo, hi));
                let out = &mut rgb_row[3 * x..3 * x + 48];
                for (k, m) in masks.iter().enumerate() {
                    let v = _mm_or_si128(
                        _mm_or_si128(_mm_shuffle_epi8(planar[0], m[0]), _mm_shuffle_epi8(planar[1], m[1])),
                        _mm_shuffle_epi8(planar[2], m[2]),
                    );
                    _mm_storeu_si128(out[16 * k..16 * k + 16].as_mut_ptr().cast(), v);
                }
            }
        }
    }
    8 * chunks
}

/// AVX2 RGB→YUV: 8 chroma columns (16 pixels per row) per step, RGB
/// de-interleaved with `pshufb`.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn to_yuv_rows_avx2_inner(rows: &mut ToYuvRows<'_>) -> usize {
    use std::arch::x86_64::*;
    let chunks = rows.u.len() / 8;
    // SAFETY: every load/store covers a bounds-checked subslice of the
    // stated length; the masks are 16-byte arrays and the chroma sums go
    // to a stack array.
    unsafe {
        let (half, ku, kv) = (_mm256_set1_ps(128.0), _mm256_set1_ps(0.492), _mm256_set1_ps(0.877));
        let (lr, lg, lb) = (_mm256_set1_ps(LUMA_R), _mm256_set1_ps(LUMA_G), _mm256_set1_ps(LUMA_B));
        let masks = DEINTERLEAVE.map(|k| k.map(|m| _mm_loadu_si128(m.as_ptr().cast())));
        let two = _mm256_set1_epi32(2);
        for c in 0..chunks {
            let cx = 8 * c;
            let mut su = _mm256_setzero_si256();
            let mut sv = _mm256_setzero_si256();
            for (rgb_row, y_row) in rows.rgb.iter().zip(rows.y.iter_mut()) {
                let x = 2 * cx;
                let px = &rgb_row[3 * x..3 * x + 48];
                let input: [__m128i; 3] =
                    std::array::from_fn(|k| _mm_loadu_si128(px[16 * k..16 * k + 16].as_ptr().cast()));
                let planar: [__m128i; 3] = std::array::from_fn(|ch| {
                    _mm_or_si128(
                        _mm_or_si128(
                            _mm_shuffle_epi8(input[0], masks[0][ch]),
                            _mm_shuffle_epi8(input[1], masks[1][ch]),
                        ),
                        _mm_shuffle_epi8(input[2], masks[2][ch]),
                    )
                });
                let mut ys = [_mm256_setzero_si256(); 2];
                let mut us = [_mm256_setzero_si256(); 2];
                let mut vs = [_mm256_setzero_si256(); 2];
                for h in 0..2 {
                    let lanes = |p: __m128i| widen8_avx2(if h == 0 { p } else { _mm_srli_si128(p, 8) });
                    let (r, g, b) = (lanes(planar[0]), lanes(planar[1]), lanes(planar[2]));
                    let y = _mm256_add_ps(
                        _mm256_add_ps(_mm256_mul_ps(lr, r), _mm256_mul_ps(lg, g)),
                        _mm256_mul_ps(lb, b),
                    );
                    let u = _mm256_add_ps(_mm256_mul_ps(ku, _mm256_sub_ps(b, y)), half);
                    let v = _mm256_add_ps(_mm256_mul_ps(kv, _mm256_sub_ps(r, y)), half);
                    ys[h] = round_clamp_avx2(y);
                    us[h] = round_clamp_avx2(u);
                    vs[h] = round_clamp_avx2(v);
                }
                _mm_storeu_si128(y_row[x..x + 16].as_mut_ptr().cast(), pack16_avx2(ys[0], ys[1]));
                // In-lane pair sums: lanes come out as blocks
                // [0, 1, 4, 5 | 2, 3, 6, 7], restored after both rows.
                su = _mm256_add_epi32(su, _mm256_hadd_epi32(us[0], us[1]));
                sv = _mm256_add_epi32(sv, _mm256_hadd_epi32(vs[0], vs[1]));
            }
            for (sum, plane) in [(su, &mut *rows.u), (sv, &mut *rows.v)] {
                let avg = _mm256_srli_epi32(_mm256_add_epi32(sum, two), 2);
                let avg = _mm256_permute4x64_epi64(avg, 0b11_01_10_00);
                let bytes = pack16_avx2(avg, _mm256_setzero_si256());
                _mm_storel_epi64(plane[cx..cx + 8].as_mut_ptr().cast(), bytes);
            }
        }
    }
    8 * chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_support::rng::SmallRng;

    fn random_frame(rng: &mut SmallRng, w: u32, h: u32) -> Frame {
        Frame::from_fn(w, h, |_, _| {
            [
                (rng.next_u64() % 256) as u8,
                (rng.next_u64() % 256) as u8,
                (rng.next_u64() % 256) as u8,
            ]
        })
    }

    /// Geometries that exercise every vector-width boundary: below one
    /// SSE2 block, exactly one block, ragged tails on both sides of the
    /// AVX2 width, and a larger frame.
    const GEOMETRIES: [(u32, u32); 8] =
        [(1, 1), (3, 1), (4, 4), (5, 3), (16, 1), (17, 3), (31, 2), (64, 33)];

    #[test]
    fn tier_parsing_and_clamping() {
        assert_eq!(KernelTier::parse("scalar"), Some(KernelTier::Scalar));
        assert_eq!(KernelTier::parse("SSE2"), Some(KernelTier::Sse2));
        assert_eq!(KernelTier::parse("Avx2"), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse("neon"), None);
        assert!(KernelTier::Scalar.is_available());
        // The clamped tier is always available.
        for t in KernelTier::ALL {
            assert!(t.clamped().is_available(), "{t:?}");
        }
        assert!(kernel_tier().is_available());
    }

    #[test]
    fn luma_histogram_matches_scalar_on_all_tiers() {
        let mut rng = SmallRng::seed_from_u64(0x51D0);
        for (w, h) in GEOMETRIES {
            let f = random_frame(&mut rng, w, h);
            let reference = luma_histogram(&f, KernelTier::Scalar);
            for tier in KernelTier::ALL {
                let got = luma_histogram(&f, tier);
                assert_eq!(reference, got, "{w}x{h} tier={tier:?}");
            }
        }
    }

    #[test]
    fn compensation_matches_scalar_on_all_tiers() {
        let mut rng = SmallRng::seed_from_u64(0x51D1);
        for (w, h) in GEOMETRIES {
            for k in [0.0f32, 0.5, 1.0, 1.2, 1.7, 2.5, 6.375, 127.9, 200.0] {
                let lut = CompensationLut::new(k);
                let orig = random_frame(&mut rng, w, h);
                let mut want = orig.clone();
                let want_stats = lut.apply_scalar(&mut want);
                for tier in KernelTier::ALL {
                    let mut got = orig.clone();
                    let got_stats = compensation_apply(&lut, &mut got, tier);
                    assert_eq!(want, got, "{w}x{h} k={k} tier={tier:?}");
                    assert_eq!(want_stats, got_stats, "{w}x{h} k={k} tier={tier:?}");
                }
            }
        }
    }

    #[test]
    fn hebs_matches_scalar_on_all_tiers() {
        let mut rng = SmallRng::seed_from_u64(0x51D2);
        for (w, h) in GEOMETRIES {
            let sample = random_frame(&mut rng, 16, 16);
            let hist = sample.luma_histogram();
            for eff in [0u8, 1, 40, 128, 200, 254, 255] {
                let lut = HebsLut::from_histogram(&hist, eff);
                let orig = random_frame(&mut rng, w, h);
                let mut want = orig.clone();
                let want_stats = lut.apply_scalar(&mut want);
                for tier in KernelTier::ALL {
                    let mut got = orig.clone();
                    let got_stats = hebs_apply(&lut, &mut got, tier);
                    assert_eq!(want, got, "{w}x{h} eff={eff} tier={tier:?}");
                    assert_eq!(want_stats, got_stats, "{w}x{h} eff={eff} tier={tier:?}");
                }
            }
        }
    }
}
