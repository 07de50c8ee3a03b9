//! Block motion estimation and compensation.
//!
//! 16×16 luma macroblocks, full-pel motion vectors in a ±8 search window,
//! estimated with a three-step search seeded at the zero vector (plus
//! optional caller-supplied predictor seeds). Chroma uses the luma vector
//! halved (4:2:0).
//!
//! Two exact speed tricks, both provably bit-identical to the exhaustive
//! evaluation under the strict-less acceptance rule used throughout:
//!
//! * **Early-exit SAD** ([`sad_bounded`]): the row loop aborts as soon as
//!   the running sum reaches the current best. A candidate that would be
//!   *accepted* (true SAD < best) is never aborted — every partial sum of
//!   a total below the limit is below the limit — so accepted candidates
//!   return exact SADs; rejected candidates return some value ≥ best,
//!   which `<`-comparison rejects exactly as the full sum would.
//! * **Visited-offset skipping**: `best_sad` is non-increasing, so any
//!   offset already evaluated has true SAD ≥ the `best_sad` in force when
//!   it was tried ≥ the current `best_sad`; re-evaluating it can never
//!   pass a strict-less test. Each offset is therefore evaluated at most
//!   once per search (the naive refinement re-scored the reigning best 8
//!   times per descent step).
//!
//! The early-exit search reads an edge-padded copy of the reference
//! (`PaddedPlane`, built once per picture): replicating the edge pixels
//! reproduces the per-axis `clamp` of the per-pixel oracles exactly, so
//! every candidate — border ones included — is plain rows through the
//! `psadbw` row kernels, two rows per instruction at the AVX2
//! [`annolight_imgproc::KernelTier`]. The exhaustive search keeps the clamped per-pixel
//! oracles on the unpadded plane.
//!
//! The early-exit abort is exact whatever the rows between checks: a
//! candidate whose true SAD is below the running best has every partial
//! sum below it too, so the AVX2 kernels, which check after each row
//! pair, accept and reject exactly the candidates the row-by-row loop
//! does.

use crate::simd::Avx2;
use annolight_imgproc::kernel_tier;

/// A full-pel motion vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct MotionVector {
    /// Horizontal displacement in pixels (positive = right).
    pub dx: i8,
    /// Vertical displacement in pixels (positive = down).
    pub dy: i8,
}

/// Maximum motion magnitude per axis.
pub const SEARCH_RANGE: i32 = 8;

/// Sum of absolute differences between a `size`×`size` block of `cur` at
/// `(cx, cy)` and a block of `reference` displaced by `(dx, dy)`.
/// Out-of-bounds reference pixels clamp to the edge.
#[allow(clippy::too_many_arguments)]
pub fn sad(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx: i32,
    dy: i32,
    size: usize,
) -> u32 {
    sad_bounded(cur, reference, width, height, cx, cy, dx, dy, size, u32::MAX)
}

/// [`sad`] with a running-best abort: after each row, if the partial sum
/// has reached `limit`, that partial sum is returned immediately.
///
/// The return value is exact whenever it is `< limit`; a return `≥ limit`
/// is a lower bound on the true SAD, which is all a strict-less
/// comparison against `limit` needs (see the module docs for why this is
/// bit-identical to exhaustive evaluation).
#[allow(clippy::too_many_arguments)]
pub fn sad_bounded(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx: i32,
    dy: i32,
    size: usize,
    limit: u32,
) -> u32 {
    let mut acc = 0u32;
    for y in 0..size {
        for x in 0..size {
            let c = cur[(cy + y) * width + cx + x];
            let rx = (cx as i32 + x as i32 + dx).clamp(0, width as i32 - 1) as usize;
            let ry = (cy as i32 + y as i32 + dy).clamp(0, height as i32 - 1) as usize;
            let r = reference[ry * width + rx];
            acc += u32::from(c.abs_diff(r));
        }
        if acc >= limit {
            return acc;
        }
    }
    acc
}

/// Whether SAD evaluation may abort early against the running best
/// (`EarlyExit`, the canonical fast path) or must always complete
/// (`Exhaustive`, the reference used to prove bit-identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Abort SAD rows once the partial sum reaches the running best.
    #[default]
    EarlyExit,
    /// Always evaluate full SADs with the retained per-pixel clamped
    /// loop, and never skip already-visited offsets (reference
    /// behaviour: the exact pre-fast-path search trajectory, duplicate
    /// re-evaluations included).
    Exhaustive,
}

impl SearchMode {
    #[inline]
    fn limit(self, best: u32) -> u32 {
        match self {
            Self::EarlyExit => best,
            Self::Exhaustive => u32::MAX,
        }
    }
}

/// Border width of a [`PaddedPlane`] on every side, in pixels. The search
/// reads at most 8 px past the plane (±8 full-pel, and the half-pel taps
/// of a ±7.5 vector); 16 keeps the padded rows 16-byte aligned.
const PAD: usize = 16;

/// A plane copied with a [`PAD`]-pixel edge-replicated border, so that a
/// read up to `PAD` pixels outside the plane returns the pixel per-axis
/// clamping would. The encoder fills one per P picture from the reference
/// luma and reuses its buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct PaddedPlane {
    data: Vec<u8>,
    width: usize,
}

impl PaddedPlane {
    /// Pads a `width`×`height` plane.
    #[must_use]
    pub(crate) fn new(plane: &[u8], width: usize, height: usize) -> Self {
        let mut padded = Self::default();
        padded.fill(plane, width, height);
        padded
    }

    /// Refills this plane from a `width`×`height` plane, reusing the
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty or shorter than `width * height`.
    pub(crate) fn fill(&mut self, plane: &[u8], width: usize, height: usize) {
        assert!(width > 0 && height > 0 && plane.len() >= width * height, "bad plane geometry");
        let stride = width + 2 * PAD;
        self.data.resize(stride * (height + 2 * PAD), 0);
        for (y, row) in self.data.chunks_exact_mut(stride).enumerate() {
            let src = &plane[y.saturating_sub(PAD).min(height - 1) * width..][..width];
            row[..PAD].fill(src[0]);
            row[PAD..PAD + width].copy_from_slice(src);
            row[PAD + width..].fill(src[width - 1]);
        }
        self.width = width;
    }

    /// The padded data from pixel `(x, y)` on, and the row stride; both
    /// coordinates are in plane coordinates, at most [`PAD`] outside the
    /// plane.
    #[inline]
    fn window(&self, x: i32, y: i32) -> (&[u8], usize) {
        let stride = self.width + 2 * PAD;
        let start = (y + PAD as i32) as usize * stride + (x + PAD as i32) as usize;
        (&self.data[start..], stride)
    }
}

/// The reference plane of a search, in the form its [`SearchMode`]
/// evaluates SADs on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SearchRef<'a> {
    /// [`SearchMode::EarlyExit`]: plain rows of the edge-padded plane
    /// through the row kernels (the AVX2 ones when `avx2` is set),
    /// aborted at the running best.
    Padded { plane: &'a PaddedPlane, avx2: Option<Avx2> },
    /// [`SearchMode::Exhaustive`]: the per-pixel clamped oracles on the
    /// unpadded `width`-wide plane, always run to completion.
    Clamped { plane: &'a [u8], height: usize },
}

/// One macroblock's search: the current block and the reference it is
/// matched against.
struct Search<'a> {
    cur: &'a [u8],
    width: usize,
    cx: usize,
    cy: usize,
    /// The current macroblock's 16 rows back to back, for the padded
    /// evaluator's kernels.
    block: [u8; 256],
    reference: SearchRef<'a>,
}

impl Search<'_> {
    fn mode(&self) -> SearchMode {
        match self.reference {
            SearchRef::Padded { .. } => SearchMode::EarlyExit,
            SearchRef::Clamped { .. } => SearchMode::Exhaustive,
        }
    }

    /// One 16×16 full-pel SAD candidate. Both evaluators compute the
    /// identical sum for any candidate that can be accepted (strict-less),
    /// so the two modes return bit-identical vectors.
    #[inline]
    fn sad16(&self, dx: i32, dy: i32, best: u32) -> u32 {
        let (cur, w, cx, cy) = (self.cur, self.width, self.cx, self.cy);
        match self.reference {
            SearchRef::Padded { plane, avx2 } => {
                let (r, stride) = plane.window(cx as i32 + dx, cy as i32 + dy);
                if let Some(k) = avx2 {
                    return k.sad16(&self.block, r, stride, best);
                }
                let mut acc = 0u32;
                for y in 0..16 {
                    acc += row_sad16(&self.block[y * 16..][..16], &r[y * stride..][..16]);
                    if acc >= best {
                        return acc;
                    }
                }
                acc
            }
            SearchRef::Clamped { plane, height } => {
                sad_bounded(cur, plane, w, height, cx, cy, dx, dy, 16, u32::MAX)
            }
        }
    }

    /// One 16×16 half-pel SAD candidate (same contract as
    /// [`Search::sad16`]). The padded form interpolates with the same
    /// rounding averages as [`sample_halfpel`], whose per-tap clamps the
    /// border reproduces.
    #[inline]
    fn sad16_halfpel(&self, dx2: i32, dy2: i32, best: u32) -> u32 {
        let (cur, w, cx, cy) = (self.cur, self.width, self.cx, self.cy);
        match self.reference {
            SearchRef::Padded { plane, avx2 } => {
                let (fx, fy) = (dx2.rem_euclid(2) as usize, dy2.rem_euclid(2) as usize);
                let (r, stride) =
                    plane.window(cx as i32 + dx2.div_euclid(2), cy as i32 + dy2.div_euclid(2));
                if let Some(k) = avx2 {
                    return k.sad16_halfpel(&self.block, r, stride, (fx, fy), best);
                }
                let mut acc = 0u32;
                for y in 0..16 {
                    let r0 = &r[y * stride..][..16 + fx];
                    let r1 = &r[(y + fy) * stride..][..16 + fx];
                    acc += row_sad16_halfpel(&self.block[y * 16..][..16], r0, r1, fx, fy);
                    if acc >= best {
                        return acc;
                    }
                }
                acc
            }
            SearchRef::Clamped { plane, height } => {
                sad_halfpel_bounded(cur, plane, w, height, cx, cy, dx2, dy2, u32::MAX)
            }
        }
    }
}

/// Exact sum of absolute differences over one 16-pixel row.
///
/// On x86-64 this is a single `psadbw` (SSE2 is part of the baseline
/// ISA), which computes the identical integer sum the scalar loop does —
/// bit-exact, just ~8× fewer instructions. Other targets keep the
/// autovectorisable scalar loop.
#[inline]
#[allow(unsafe_code)]
fn row_sad16(c: &[u8], r: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: both slices are bounds-checked to 16 bytes; unaligned loads
    // are explicitly `loadu`; SSE2 is unconditionally available on x86-64.
    unsafe {
        use std::arch::x86_64::*;
        let a = _mm_loadu_si128(c[..16].as_ptr().cast());
        let b = _mm_loadu_si128(r[..16].as_ptr().cast());
        let s = _mm_sad_epu8(a, b);
        (_mm_cvtsi128_si32(s) as u32) + (_mm_extract_epi16(s, 4) as u32)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        c[..16].iter().zip(&r[..16]).map(|(a, b)| u32::from(a.abs_diff(*b))).sum()
    }
}

/// Interpolates one 16-pixel half-pel row into an SSE2 register.
///
/// `r0`/`r1` are the two source rows (`r1 == r0` when `fy == 0`), both at
/// least `16 + fx` pixels. The two-tap phases use `pavgb` (exactly
/// `(a + b + 1) >> 1`, the codec's rounding) and the four-tap phase
/// widens to `u16` for the exact `(a+b+c+d+2) >> 2` — identical
/// arithmetic to [`sample_halfpel`].
///
/// # Safety
///
/// Requires `r0.len() >= 16 + fx` and `r1.len() >= 16 + fx` (enforced
/// here with slice bounds checks, so the function is sound for any
/// input); callers must be on x86-64 (SSE2 is baseline).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
unsafe fn interp16(r0: &[u8], r1: &[u8], fx: usize, fy: usize) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    // SAFETY: every load below is over a bounds-checked 16-byte subslice
    // and explicitly unaligned.
    unsafe {
        match (fx, fy) {
            (0, 0) => _mm_loadu_si128(r0[..16].as_ptr().cast()),
            (1, 0) => {
                let a = _mm_loadu_si128(r0[..16].as_ptr().cast());
                let b = _mm_loadu_si128(r0[1..17].as_ptr().cast());
                _mm_avg_epu8(a, b)
            }
            (0, 1) => {
                let a = _mm_loadu_si128(r0[..16].as_ptr().cast());
                let b = _mm_loadu_si128(r1[..16].as_ptr().cast());
                _mm_avg_epu8(a, b)
            }
            _ => {
                let a = _mm_loadu_si128(r0[..16].as_ptr().cast());
                let b = _mm_loadu_si128(r0[1..17].as_ptr().cast());
                let d = _mm_loadu_si128(r1[..16].as_ptr().cast());
                let e = _mm_loadu_si128(r1[1..17].as_ptr().cast());
                let zero = _mm_setzero_si128();
                let two = _mm_set1_epi16(2);
                // Widen to u16 lanes: (a + b + d + e + 2) >> 2 per pixel
                // (max 1022, no overflow), then repack. `packus` saturates
                // but every lane is already <= 255.
                let lo = _mm_srli_epi16(
                    _mm_add_epi16(
                        _mm_add_epi16(
                            _mm_unpacklo_epi8(a, zero),
                            _mm_unpacklo_epi8(b, zero),
                        ),
                        _mm_add_epi16(
                            _mm_add_epi16(
                                _mm_unpacklo_epi8(d, zero),
                                _mm_unpacklo_epi8(e, zero),
                            ),
                            two,
                        ),
                    ),
                    2,
                );
                let hi = _mm_srli_epi16(
                    _mm_add_epi16(
                        _mm_add_epi16(
                            _mm_unpackhi_epi8(a, zero),
                            _mm_unpackhi_epi8(b, zero),
                        ),
                        _mm_add_epi16(
                            _mm_add_epi16(
                                _mm_unpackhi_epi8(d, zero),
                                _mm_unpackhi_epi8(e, zero),
                            ),
                            two,
                        ),
                    ),
                    2,
                );
                _mm_packus_epi16(lo, hi)
            }
        }
    }
}

/// Exact 16-pixel half-pel interpolated row SAD: interpolates the
/// reference row(s) with the codec's rounding averages and sums absolute
/// differences against `c`.
///
/// `r0`/`r1` are the two source rows (`r1 == r0` when `fy == 0`), both at
/// least `16 + fx` pixels. On x86-64 the two-tap phases use `pavgb`
/// (exactly `(a + b + 1) >> 1`, the codec's rounding) and the four-tap
/// phase widens to `u16` for the exact `(a+b+c+d+2) >> 2`; the final sum
/// is one `psadbw`. Identical arithmetic to [`sample_halfpel`].
#[inline]
#[allow(unsafe_code)]
fn row_sad16_halfpel(c: &[u8], r0: &[u8], r1: &[u8], fx: usize, fy: usize) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: slices are bounds-checked to the widths read below;
    // unaligned loads are explicitly `loadu`; SSE2 is baseline on x86-64.
    unsafe {
        use std::arch::x86_64::*;
        let cur = _mm_loadu_si128(c[..16].as_ptr().cast());
        let pred = interp16(r0, r1, fx, fy);
        let s = _mm_sad_epu8(cur, pred);
        (_mm_cvtsi128_si32(s) as u32) + (_mm_extract_epi16(s, 4) as u32)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let c = &c[..16];
        match (fx, fy) {
            (0, 0) => c.iter().zip(&r0[..16]).map(|(a, b)| u32::from(a.abs_diff(*b))).sum(),
            (1, 0) => (0..16)
                .map(|x| {
                    let p = (u32::from(r0[x]) + u32::from(r0[x + 1]) + 1) / 2;
                    (u32::from(c[x]) as i32 - p as i32).unsigned_abs()
                })
                .sum(),
            (0, 1) => (0..16)
                .map(|x| {
                    let p = (u32::from(r0[x]) + u32::from(r1[x]) + 1) / 2;
                    (u32::from(c[x]) as i32 - p as i32).unsigned_abs()
                })
                .sum(),
            _ => (0..16)
                .map(|x| {
                    let p = (u32::from(r0[x])
                        + u32::from(r0[x + 1])
                        + u32::from(r1[x])
                        + u32::from(r1[x + 1])
                        + 2)
                        / 4;
                    (u32::from(c[x]) as i32 - p as i32).unsigned_abs()
                })
                .sum(),
        }
    }
}

/// Sum of absolute deviations of a 16×16 block from its truncated mean —
/// the encoder's intra-cost proxy — via the SAD row kernel: the block sum
/// is Σ|v − 0| and the deviation Σ|v − mean| (`mean ≤ 255` always fits a
/// byte), so both passes are `psadbw` rows on x86-64. Arithmetic is
/// identical to the retained per-pixel loop.
pub(crate) fn mean_deviation16(plane: &[u8], stride: usize, px: usize, py: usize) -> u32 {
    let zero = [0u8; 16];
    let mut sum = 0u32;
    for y in 0..16 {
        sum += row_sad16(&plane[(py + y) * stride + px..][..16], &zero);
    }
    let mean = [(sum / 256) as u8; 16];
    let mut dev = 0u32;
    for y in 0..16 {
        dev += row_sad16(&plane[(py + y) * stride + px..][..16], &mean);
    }
    dev
}

/// Bitset over the `(2·SEARCH_RANGE+1)²` = 17×17 offset window, tracking
/// which candidates a search has already evaluated.
#[derive(Default)]
struct Visited([u64; 5]);

impl Visited {
    /// Marks `(dx, dy)` (each in `-SEARCH_RANGE..=SEARCH_RANGE`) visited;
    /// returns `true` if it was not yet marked.
    #[inline]
    fn first_visit(&mut self, dx: i32, dy: i32) -> bool {
        let idx = ((dx + SEARCH_RANGE) * (2 * SEARCH_RANGE + 1) + (dy + SEARCH_RANGE)) as usize;
        let (word, bit) = (idx / 64, idx % 64);
        let fresh = self.0[word] & (1u64 << bit) == 0;
        self.0[word] |= 1u64 << bit;
        fresh
    }
}

/// Three-step search (plus a unit-step descent refinement) for the best
/// motion vector of the 16×16 macroblock at `(mbx, mby)` (macroblock
/// coordinates). Returns the vector and its SAD.
///
/// The refinement walks ±1 neighbours until no improvement, so the result
/// is always a local SAD minimum; on smooth content this recovers exact
/// translations the coarse three-step pattern alone can miss.
pub fn estimate(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    mbx: usize,
    mby: usize,
) -> (MotionVector, u32) {
    estimate_seeded(cur, reference, width, height, mbx, mby, &[], SearchMode::EarlyExit)
}

/// [`estimate`] with caller-supplied predictor seeds (typically the left
/// and up neighbours' vectors) tried after the zero vector and before the
/// three-step pattern, and an explicit [`SearchMode`].
///
/// Seeds only *reorder* evaluation: acceptance stays strict-less, so for
/// a given seed list `EarlyExit` and `Exhaustive` return bit-identical
/// vectors and SADs. With an empty seed list the search trajectory is
/// exactly the historical [`estimate`] (three-step from zero plus
/// unit-step descent), minus redundant re-evaluations.
///
/// `EarlyExit` pads `reference` into a fresh edge-padded copy on every
/// call; the encoder pads once per picture instead.
#[allow(clippy::too_many_arguments)]
pub fn estimate_seeded(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    mbx: usize,
    mby: usize,
    seeds: &[MotionVector],
    mode: SearchMode,
) -> (MotionVector, u32) {
    with_search_ref(reference, width, height, mode, |r| {
        search(cur, width, mbx, mby, r).full_pel(seeds)
    })
}

/// Runs `f` on the [`SearchRef`] that `mode` evaluates: a freshly padded
/// copy of `reference`, or the plane itself.
fn with_search_ref<T>(
    reference: &[u8],
    width: usize,
    height: usize,
    mode: SearchMode,
    f: impl FnOnce(SearchRef<'_>) -> T,
) -> T {
    match mode {
        SearchMode::EarlyExit => f(SearchRef::Padded {
            plane: &PaddedPlane::new(reference, width, height),
            avx2: Avx2::detect(kernel_tier()),
        }),
        SearchMode::Exhaustive => f(SearchRef::Clamped { plane: reference, height }),
    }
}

fn search<'a>(
    cur: &'a [u8],
    width: usize,
    mbx: usize,
    mby: usize,
    reference: SearchRef<'a>,
) -> Search<'a> {
    let (cx, cy) = (mbx * 16, mby * 16);
    let mut block = [0u8; 256];
    for (y, row) in block.chunks_exact_mut(16).enumerate() {
        row.copy_from_slice(&cur[(cy + y) * width + cx..][..16]);
    }
    Search { cur, width, cx, cy, block, reference }
}

impl Search<'_> {
    /// The full-pel search behind [`estimate_seeded`].
    fn full_pel(&self, seeds: &[MotionVector]) -> (MotionVector, u32) {
        let mode = self.mode();
        let mut visited = Visited::default();
        visited.first_visit(0, 0);
        let mut best = (0i32, 0i32);
        let mut best_sad = self.sad16(0, 0, u32::MAX);
        // Zero SAD can never be beaten under strict-less acceptance, so
        // stopping here is exact. Only the fast path takes the shortcut:
        // the exhaustive reference keeps the historical full trajectory
        // (whose extra candidates provably change nothing).
        let done = |s: u32| mode == SearchMode::EarlyExit && s == 0;
        if done(best_sad) {
            return (MotionVector::default(), 0);
        }
        let mut try_offset = |nx: i32, ny: i32, best: &mut (i32, i32), best_sad: &mut u32| -> bool {
            if nx.abs() > SEARCH_RANGE
                || ny.abs() > SEARCH_RANGE
                || (mode == SearchMode::EarlyExit && !visited.first_visit(nx, ny))
            {
                return false;
            }
            let s = self.sad16(nx, ny, mode.limit(*best_sad));
            if s < *best_sad {
                *best_sad = s;
                *best = (nx, ny);
                return true;
            }
            false
        };
        // Predictor seeds: motion fields are spatially coherent, so a
        // neighbour's vector usually lands near the optimum and tightens
        // the early-exit limit for everything that follows.
        for seed in seeds {
            try_offset(i32::from(seed.dx), i32::from(seed.dy), &mut best, &mut best_sad);
        }
        let mut step = SEARCH_RANGE / 2;
        while step >= 1 && !done(best_sad) {
            let (bx, by) = best;
            for (dx, dy) in [
                (-step, -step), (0, -step), (step, -step),
                (-step, 0),                 (step, 0),
                (-step, step),  (0, step),  (step, step),
            ] {
                try_offset(bx + dx, by + dy, &mut best, &mut best_sad);
            }
            step /= 2;
        }
        // Unit-step descent until a local minimum (bounded by the window
        // perimeter, so it always terminates quickly).
        while !done(best_sad) {
            let (bx, by) = best;
            let mut improved = false;
            for (dx, dy) in [
                (-1, -1), (0, -1), (1, -1),
                (-1, 0),           (1, 0),
                (-1, 1),  (0, 1),  (1, 1),
            ] {
                improved |= try_offset(bx + dx, by + dy, &mut best, &mut best_sad);
            }
            if !improved || best_sad == 0 {
                break;
            }
        }
        (MotionVector { dx: best.0 as i8, dy: best.1 as i8 }, best_sad)
    }

    /// The full-pel search plus the half-pel refinement behind
    /// [`estimate_halfpel_seeded`].
    fn half_pel(&self, seeds: &[MotionVector]) -> (HalfPelVector, u32) {
        let mode = self.mode();
        let (full, full_sad) = self.full_pel(seeds);
        let base = HalfPelVector::from_full_pel(full);
        // A perfect full-pel match can never be beaten under strict-less
        // acceptance (SADs are non-negative), so the fast path skips the
        // half-pel refinement entirely — exact, and a large win on static
        // content where most macroblocks match their reference perfectly.
        if mode == SearchMode::EarlyExit && full_sad == 0 {
            return (base, 0);
        }
        let mut best = base;
        let mut best_sad = full_sad;
        for (ddx, ddy) in [
            (-1i16, -1i16), (0, -1), (1, -1),
            (-1, 0),                 (1, 0),
            (-1, 1),  (0, 1),  (1, 1),
        ] {
            let cand = HalfPelVector { dx2: base.dx2 + ddx, dy2: base.dy2 + ddy };
            if i32::from(cand.dx2).unsigned_abs() > 2 * SEARCH_RANGE as u32
                || i32::from(cand.dy2).unsigned_abs() > 2 * SEARCH_RANGE as u32
            {
                continue;
            }
            let s = self.sad16_halfpel(cand.dx2.into(), cand.dy2.into(), mode.limit(best_sad));
            if s < best_sad {
                best_sad = s;
                best = cand;
            }
        }
        (best, best_sad)
    }
}

/// Copies the motion-compensated prediction of a `size`×`size` block at
/// `(cx, cy)` from `reference` into `out` (a `size*size` buffer).
/// Out-of-bounds reference pixels clamp to the edge.
#[allow(clippy::too_many_arguments)]
pub fn predict_into(
    reference: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx: i32,
    dy: i32,
    size: usize,
    out: &mut [u8],
) {
    debug_assert_eq!(out.len(), size * size);
    for y in 0..size {
        for x in 0..size {
            let rx = (cx as i32 + x as i32 + dx).clamp(0, width as i32 - 1) as usize;
            let ry = (cy as i32 + y as i32 + dy).clamp(0, height as i32 - 1) as usize;
            out[y * size + x] = reference[ry * width + rx];
        }
    }
}

/// A motion vector in half-pel units (`dx2 = 3` means +1.5 pixels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct HalfPelVector {
    /// Horizontal displacement in half-pels.
    pub dx2: i16,
    /// Vertical displacement in half-pels.
    pub dy2: i16,
}

impl HalfPelVector {
    /// Promotes a full-pel vector.
    pub fn from_full_pel(mv: MotionVector) -> Self {
        Self { dx2: i16::from(mv.dx) * 2, dy2: i16::from(mv.dy) * 2 }
    }
}

/// Samples `reference` at `(x + dx2/2, y + dy2/2)` with bilinear
/// interpolation at half-pel positions (H.261-style rounding averages) and
/// edge clamping.
fn sample_halfpel(reference: &[u8], width: usize, height: usize, x: i32, y: i32, dx2: i32, dy2: i32) -> u8 {
    let bx = x + dx2.div_euclid(2);
    let by = y + dy2.div_euclid(2);
    let fx = dx2.rem_euclid(2);
    let fy = dy2.rem_euclid(2);
    let at = |px: i32, py: i32| -> u32 {
        let cx = px.clamp(0, width as i32 - 1) as usize;
        let cy = py.clamp(0, height as i32 - 1) as usize;
        u32::from(reference[cy * width + cx])
    };
    match (fx, fy) {
        (0, 0) => at(bx, by) as u8,
        (1, 0) => (at(bx, by) + at(bx + 1, by)).div_ceil(2) as u8,
        (0, 1) => (at(bx, by) + at(bx, by + 1)).div_ceil(2) as u8,
        _ => ((at(bx, by) + at(bx + 1, by) + at(bx, by + 1) + at(bx + 1, by + 1) + 2) / 4) as u8,
    }
}

/// Copies the half-pel motion-compensated prediction of a `size`×`size`
/// block at `(cx, cy)` from `reference` into `out`.
#[allow(clippy::too_many_arguments)]
pub fn predict_halfpel_into(
    reference: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx2: i32,
    dy2: i32,
    size: usize,
    out: &mut [u8],
) {
    debug_assert_eq!(out.len(), size * size);
    // Interior fast path: hoist the half-pel phase out of the pixel loop
    // and interpolate over plain slices. The rounding averages are
    // identical to [`sample_halfpel`], so the output bytes match the
    // clamped fallback exactly whenever both are in range.
    let fx = dx2.rem_euclid(2) as usize;
    let fy = dy2.rem_euclid(2) as usize;
    let bx = cx as i32 + dx2.div_euclid(2);
    let by = cy as i32 + dy2.div_euclid(2);
    if bx >= 0
        && by >= 0
        && bx + (size + fx) as i32 <= width as i32
        && by + (size + fy) as i32 <= height as i32
    {
        let (bx, by) = (bx as usize, by as usize);
        for y in 0..size {
            let r0 = &reference[(by + y) * width + bx..][..size + fx];
            let r1 = &reference[(by + y + fy) * width + bx..][..size + fx];
            let row = &mut out[y * size..][..size];
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            if size == 16 {
                // SAFETY: `r0`/`r1` are exactly `16 + fx` bytes, `row` is
                // 16; `interp16` bounds-checks its own loads and the
                // store is explicitly unaligned. Same arithmetic as the
                // scalar arms below (pavgb/u16-widening rounding).
                unsafe {
                    use std::arch::x86_64::*;
                    _mm_storeu_si128(row.as_mut_ptr().cast(), interp16(r0, r1, fx, fy));
                }
                continue;
            }
            match (fx, fy) {
                (0, 0) => row.copy_from_slice(r0),
                (1, 0) => {
                    for (x, o) in row.iter_mut().enumerate() {
                        *o = (u32::from(r0[x]) + u32::from(r0[x + 1])).div_ceil(2) as u8;
                    }
                }
                (0, 1) => {
                    for (x, o) in row.iter_mut().enumerate() {
                        *o = (u32::from(r0[x]) + u32::from(r1[x])).div_ceil(2) as u8;
                    }
                }
                _ => {
                    for (x, o) in row.iter_mut().enumerate() {
                        *o = ((u32::from(r0[x])
                            + u32::from(r0[x + 1])
                            + u32::from(r1[x])
                            + u32::from(r1[x + 1])
                            + 2)
                            / 4) as u8;
                    }
                }
            }
        }
        return;
    }
    predict_halfpel_into_reference(reference, width, height, cx, cy, dx2, dy2, size, out);
}

/// [`predict_halfpel_into`] via the retained per-pixel clamped sampler —
/// exactly the pre-fast-path loop, with identical output bytes. The
/// interior-specialised path falls back to this at plane borders, and the
/// reference codec path uses it unconditionally for honest baseline
/// timing.
#[allow(clippy::too_many_arguments)]
pub fn predict_halfpel_into_reference(
    reference: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx2: i32,
    dy2: i32,
    size: usize,
    out: &mut [u8],
) {
    debug_assert_eq!(out.len(), size * size);
    for y in 0..size {
        for x in 0..size {
            out[y * size + x] = sample_halfpel(
                reference,
                width,
                height,
                (cx + x) as i32,
                (cy + y) as i32,
                dx2,
                dy2,
            );
        }
    }
}

/// [`sad`] against a half-pel-displaced prediction, with the same
/// row-level running-best abort as [`sad_bounded`].
#[allow(clippy::too_many_arguments)]
fn sad_halfpel_bounded(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx2: i32,
    dy2: i32,
    limit: u32,
) -> u32 {
    let mut acc = 0u32;
    for y in 0..16 {
        for x in 0..16 {
            let c = cur[(cy + y) * width + cx + x];
            let p = sample_halfpel(
                reference,
                width,
                height,
                (cx + x) as i32,
                (cy + y) as i32,
                dx2,
                dy2,
            );
            acc += u32::from(c.abs_diff(p));
        }
        if acc >= limit {
            return acc;
        }
    }
    acc
}

/// Full-pel search ([`estimate`]) followed by a half-pel refinement over
/// the eight half-pel neighbours. Returns the vector in half-pel units
/// and its SAD.
pub fn estimate_halfpel(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    mbx: usize,
    mby: usize,
) -> (HalfPelVector, u32) {
    estimate_halfpel_seeded(cur, reference, width, height, mbx, mby, &[], SearchMode::EarlyExit)
}

/// [`estimate_halfpel`] with predictor seeds for the full-pel stage and an
/// explicit [`SearchMode`] (also applied to the half-pel refinement SADs —
/// strict-less acceptance keeps both modes bit-identical). Like
/// [`estimate_seeded`], `EarlyExit` pads `reference` on every call.
#[allow(clippy::too_many_arguments)]
pub fn estimate_halfpel_seeded(
    cur: &[u8],
    reference: &[u8],
    width: usize,
    height: usize,
    mbx: usize,
    mby: usize,
    seeds: &[MotionVector],
    mode: SearchMode,
) -> (HalfPelVector, u32) {
    with_search_ref(reference, width, height, mode, |r| {
        search(cur, width, mbx, mby, r).half_pel(seeds)
    })
}

/// [`estimate_halfpel_seeded`] against a reference already in the form
/// its mode evaluates — the encoder's entry point, which pads each P
/// picture's reference once.
pub(crate) fn estimate_halfpel_in(
    cur: &[u8],
    width: usize,
    mbx: usize,
    mby: usize,
    seeds: &[MotionVector],
    reference: SearchRef<'_>,
) -> (HalfPelVector, u32) {
    search(cur, width, mbx, mby, reference).half_pel(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::KernelTier;

    /// A 32×32 test plane with a bright square at `(ox, oy)`.
    fn plane_with_square(ox: usize, oy: usize) -> Vec<u8> {
        let mut p = vec![20u8; 32 * 32];
        for y in 0..8 {
            for x in 0..8 {
                p[(oy + y) * 32 + ox + x] = 200;
            }
        }
        p
    }

    #[test]
    fn sad_zero_for_identical() {
        let p = plane_with_square(8, 8);
        assert_eq!(sad(&p, &p, 32, 32, 0, 0, 0, 0, 16), 0);
    }

    #[test]
    fn estimate_finds_known_shift() {
        // Current frame: square at (10, 8); reference: square at (7, 8).
        // The block content moved +3 in x, so the best vector points back
        // by (-3, 0) into the reference.
        let cur = plane_with_square(10, 8);
        let reference = plane_with_square(7, 8);
        let (mv, s) = estimate(&cur, &reference, 32, 32, 0, 0);
        assert_eq!((mv.dx, mv.dy), (-3, 0), "sad {s}");
        assert_eq!(s, 0);
    }

    #[test]
    fn estimate_finds_diagonal_shift() {
        let cur = plane_with_square(12, 12);
        let reference = plane_with_square(8, 8);
        let (mv, s) = estimate(&cur, &reference, 32, 32, 0, 0);
        assert_eq!((mv.dx, mv.dy), (-4, -4));
        assert_eq!(s, 0);
    }

    #[test]
    fn estimate_static_content_zero_vector() {
        let p = plane_with_square(8, 8);
        let (mv, s) = estimate(&p, &p, 32, 32, 0, 0);
        assert_eq!(mv, MotionVector::default());
        assert_eq!(s, 0);
    }

    #[test]
    fn vector_never_exceeds_range() {
        // Content that moved farther than the window: the estimator still
        // stays inside ±SEARCH_RANGE.
        let cur = plane_with_square(24, 8);
        let reference = plane_with_square(0, 8);
        let (mv, _) = estimate(&cur, &reference, 32, 32, 1, 0);
        assert!(i32::from(mv.dx).abs() <= SEARCH_RANGE);
        assert!(i32::from(mv.dy).abs() <= SEARCH_RANGE);
    }

    #[test]
    fn predict_reproduces_reference_block() {
        let reference = plane_with_square(7, 8);
        let mut out = vec![0u8; 256];
        predict_into(&reference, 32, 32, 0, 0, -3 + 3, 0, 16, &mut out);
        // Zero-displacement prediction equals the reference block itself.
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(out[y * 16 + x], reference[y * 32 + x]);
            }
        }
    }

    #[test]
    fn predict_clamps_at_edges() {
        let reference: Vec<u8> = (0..32 * 32).map(|i| (i % 256) as u8).collect();
        let mut out = vec![0u8; 64];
        // Predict an 8x8 block at the top-left corner displaced off-plane.
        predict_into(&reference, 32, 32, 0, 0, -5, -5, 8, &mut out);
        assert_eq!(out[0], reference[0]);
    }

    #[test]
    fn halfpel_full_positions_match_fullpel() {
        let reference = plane_with_square(7, 8);
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        predict_into(&reference, 32, 32, 0, 0, -3, 2, 16, &mut a);
        predict_halfpel_into(&reference, 32, 32, 0, 0, -6, 4, 16, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn halfpel_interpolates_between_pixels() {
        // A horizontal step edge: the half-pel sample between 20 and 200
        // is their rounding average.
        let mut reference = vec![20u8; 32 * 32];
        for row in reference.chunks_mut(32) {
            for v in &mut row[16..] {
                *v = 200;
            }
        }
        let mut out = vec![0u8; 64];
        // dx2 = 1: sample halfway between columns.
        predict_halfpel_into(&reference, 32, 32, 15, 0, 1, 0, 8, &mut out);
        // Block column 0 = source column 15 + 0.5 → (20 + 200 + 1)/2 = 110.
        assert_eq!(out[0], 110);
    }

    #[test]
    fn halfpel_beats_fullpel_on_half_shift() {
        // Content shifted by exactly half a pixel (simulated by averaging
        // neighbours): the half-pel estimator must find a strictly lower
        // SAD than full-pel.
        let w = 48usize;
        let reference: Vec<u8> = (0..w * w)
            .map(|i| {
                let x = (i % w) as f64;
                (128.0 + 100.0 * (x * 0.2).sin()) as u8
            })
            .collect();
        let cur: Vec<u8> = (0..w * w)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let a = u32::from(reference[y * w + x]);
                let b = u32::from(reference[y * w + (x + 1).min(w - 1)]);
                (a + b).div_ceil(2) as u8
            })
            .collect();
        let (_, full_sad) = estimate(&cur, &reference, w, w, 1, 1);
        let (hv, half_sad) = estimate_halfpel(&cur, &reference, w, w, 1, 1);
        assert!(half_sad < full_sad, "half {half_sad} vs full {full_sad}");
        assert_eq!(hv.dx2.rem_euclid(2), 1, "expected a half-pel x component: {hv:?}");
    }

    #[test]
    fn halfpel_vector_promotion() {
        let hv = HalfPelVector::from_full_pel(MotionVector { dx: -3, dy: 5 });
        assert_eq!((hv.dx2, hv.dy2), (-6, 10));
    }

    /// A deterministic textured plane (no RNG needed in unit tests).
    fn textured_plane(w: usize, h: usize, seed: u32) -> Vec<u8> {
        (0..w * h)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed.wrapping_mul(97));
                ((v >> 13) & 0xff) as u8
            })
            .collect()
    }

    #[test]
    fn early_exit_bit_identical_to_exhaustive() {
        let w = 64usize;
        let cur = textured_plane(w, w, 7);
        let mut reference = textured_plane(w, w, 7);
        // Perturb the reference so SADs are non-trivial everywhere.
        for (i, v) in reference.iter_mut().enumerate() {
            *v = v.wrapping_add((i % 23) as u8);
        }
        let seed_sets: [&[MotionVector]; 3] = [
            &[],
            &[MotionVector { dx: 3, dy: -2 }],
            &[MotionVector { dx: -8, dy: 8 }, MotionVector { dx: 1, dy: 0 }],
        ];
        for mby in 0..w / 16 {
            for mbx in 0..w / 16 {
                for seeds in seed_sets {
                    let fast = estimate_seeded(
                        &cur, &reference, w, w, mbx, mby, seeds, SearchMode::EarlyExit,
                    );
                    let slow = estimate_seeded(
                        &cur, &reference, w, w, mbx, mby, seeds, SearchMode::Exhaustive,
                    );
                    assert_eq!(fast, slow, "mb ({mbx},{mby}) seeds {seeds:?}");
                    let hfast = estimate_halfpel_seeded(
                        &cur, &reference, w, w, mbx, mby, seeds, SearchMode::EarlyExit,
                    );
                    let hslow = estimate_halfpel_seeded(
                        &cur, &reference, w, w, mbx, mby, seeds, SearchMode::Exhaustive,
                    );
                    assert_eq!(hfast, hslow, "halfpel mb ({mbx},{mby}) seeds {seeds:?}");
                }
            }
        }
    }

    #[test]
    fn padded_plane_reads_what_clamping_reads() {
        let (w, h) = (32usize, 16usize);
        let plane = textured_plane(w, h, 5);
        let padded = PaddedPlane::new(&plane, w, h);
        let p = PAD as i32;
        for y in -p..h as i32 + p {
            let row = &padded.window(-p, y).0[..w + 2 * PAD];
            for (x, &v) in (-p..).zip(row) {
                let cx = x.clamp(0, w as i32 - 1) as usize;
                let cy = y.clamp(0, h as i32 - 1) as usize;
                assert_eq!(v, plane[cy * w + cx], "({x}, {y})");
            }
        }
    }

    /// On planes where every macroblock touches the border, the padded
    /// early-exit search returns exactly the exhaustive oracle's vectors
    /// and SADs, full-pel and half-pel, with seeds at the window corners,
    /// at every kernel tier.
    #[test]
    fn padded_search_equals_exhaustive_at_the_border() {
        let corners: Vec<MotionVector> = [(-8, -8), (8, -8), (-8, 8), (8, 8)]
            .into_iter()
            .map(|(dx, dy)| MotionVector { dx, dy })
            .collect();
        for (w, h) in [(16usize, 16usize), (32, 16), (48, 32)] {
            for seed in 0..6u32 {
                let reference = textured_plane(w, h, seed);
                // Smooth and noisy current pictures: a shifted, perturbed
                // copy of the reference, and unrelated texture.
                let cur: Vec<u8> = if seed % 2 == 0 {
                    (0..w * h)
                        .map(|i| {
                            let (x, y) = (i % w, i / w);
                            let src = reference[y * w + (x + seed as usize) % w];
                            src.wrapping_add((i % 5) as u8)
                        })
                        .collect()
                } else {
                    textured_plane(w, h, seed + 100)
                };
                let padded = PaddedPlane::new(&reference, w, h);
                let oracle = SearchRef::Clamped { plane: &reference, height: h };
                let seed_lists: [&[MotionVector]; 4] =
                    [&[], &corners[..1], &corners[1..3], &corners];
                let cases: Vec<_> =
                    macroblocks(w, h).flat_map(|(x, y)| seed_lists.map(|s| (x, y, s))).collect();
                for tier in KernelTier::ALL {
                    let fast = SearchRef::Padded { plane: &padded, avx2: Avx2::detect(tier) };
                    for &(mbx, mby, seeds) in &cases {
                        let at = |r| search(&cur, w, mbx, mby, r);
                        assert_eq!(
                            at(fast).full_pel(seeds),
                            at(oracle).full_pel(seeds),
                            "{w}x{h} {tier:?} seed {seed} mb ({mbx},{mby}) seeds {seeds:?}"
                        );
                        assert_eq!(
                            estimate_halfpel_in(&cur, w, mbx, mby, seeds, fast),
                            estimate_halfpel_in(&cur, w, mbx, mby, seeds, oracle),
                            "half-pel {w}x{h} {tier:?} seed {seed} mb ({mbx},{mby}) seeds {seeds:?}"
                        );
                    }
                }
            }
        }
    }

    fn macroblocks(w: usize, h: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..h / 16).flat_map(move |y| (0..w / 16).map(move |x| (x, y)))
    }

    /// The AVX2 SAD kernels keep the evaluator contract at every phase:
    /// below the limit the exact sum, otherwise a partial sum no smaller
    /// than the limit and no larger than the exact one.
    #[test]
    fn avx2_sad_kernels_keep_the_early_exit_contract() {
        let Some(k) = Avx2::detect(KernelTier::Avx2) else { return };
        let (w, h) = (48usize, 48usize);
        for seed in 0..8u32 {
            let reference = textured_plane(w, h, seed);
            let cur = textured_plane(w, h, seed * 7 + 1);
            let padded = PaddedPlane::new(&reference, w, h);
            for (mbx, mby) in [(0, 0), (1, 1), (2, 2), (2, 0)] {
                let oracle = SearchRef::Clamped { plane: &reference, height: h };
                let s = search(&cur, w, mbx, mby, oracle);
                for (dx2, dy2) in [(0, 0), (1, 0), (0, 1), (1, 1), (-16, -16), (15, -3), (-7, 16)] {
                    let exact = s.sad16_halfpel(dx2, dy2, u32::MAX);
                    let (r, stride) = padded.window(
                        (mbx * 16) as i32 + dx2.div_euclid(2),
                        (mby * 16) as i32 + dy2.div_euclid(2),
                    );
                    let phase = (dx2.rem_euclid(2) as usize, dy2.rem_euclid(2) as usize);
                    for limit in [u32::MAX, exact + 1, exact, exact / 2, 1] {
                        let got = k.sad16_halfpel(&s.block, r, stride, phase, limit);
                        if exact < limit {
                            assert_eq!(got, exact, "({dx2},{dy2}) limit {limit}");
                        } else {
                            assert!(
                                (limit..=exact).contains(&got),
                                "({dx2},{dy2}) limit {limit}: {got}"
                            );
                        }
                    }
                    if phase == (0, 0) {
                        assert_eq!(k.sad16(&s.block, r, stride, u32::MAX), exact);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_recovers_out_of_pattern_shift() {
        // A (+7, -5) translation is off the three-step lattice from zero;
        // the unseeded search may land on a local minimum, but a correct
        // seed must pin the true offset with SAD 0.
        let w = 64usize;
        let reference = textured_plane(w, w, 3);
        let mut cur = vec![0u8; w * w];
        let (sx, sy) = (7i32, -5i32);
        for y in 0..w {
            for x in 0..w {
                let rx = (x as i32 - sx).clamp(0, w as i32 - 1) as usize;
                let ry = (y as i32 - sy).clamp(0, w as i32 - 1) as usize;
                cur[y * w + x] = reference[ry * w + rx];
            }
        }
        let seed = [MotionVector { dx: -(sx as i8), dy: -(sy as i8) }];
        let (mv, s) =
            estimate_seeded(&cur, &reference, w, w, 1, 1, &seed, SearchMode::EarlyExit);
        assert_eq!((mv.dx, mv.dy), (-7, 5));
        assert_eq!(s, 0);
    }

    #[test]
    fn sad_bounded_exact_below_limit_and_lower_bound_above() {
        let w = 32usize;
        let cur = textured_plane(w, w, 1);
        let reference = textured_plane(w, w, 2);
        let full = sad(&cur, &reference, w, w, 0, 0, 2, -1, 16);
        assert_eq!(
            sad_bounded(&cur, &reference, w, w, 0, 0, 2, -1, 16, full + 1),
            full,
            "below-limit evaluation must be exact"
        );
        let aborted = sad_bounded(&cur, &reference, w, w, 0, 0, 2, -1, 16, full / 2);
        assert!(aborted >= full / 2, "abort must return a value >= limit");
        assert!(aborted <= full, "abort is a lower bound on the true SAD");
    }

    #[test]
    fn out_of_range_seeds_are_ignored() {
        let p = textured_plane(32, 32, 9);
        let wild = [
            MotionVector { dx: 127, dy: -128 },
            MotionVector { dx: 9, dy: 0 },
            MotionVector { dx: 0, dy: 0 }, // duplicate of the zero start
        ];
        let (mv, s) = estimate_seeded(&p, &p, 32, 32, 0, 0, &wild, SearchMode::EarlyExit);
        assert_eq!(mv, MotionVector::default());
        assert_eq!(s, 0);
    }

    #[test]
    fn row_sad_kernels_match_scalar_oracle() {
        // Exercise the (possibly SIMD) row kernels against a plain scalar
        // evaluation, including saturating extremes and every half-pel
        // phase (the four-tap phase uses different widening arithmetic).
        let mut c = [0u8; 16];
        let mut r0 = [0u8; 17];
        let mut r1 = [0u8; 17];
        let mut state = 0x2453_67A1u32;
        for round in 0..200 {
            for x in 0..17 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = (state >> 24) as u8;
                // Mix in hard extremes so rounding/saturation edges hit.
                let v = match (round + x) % 7 {
                    0 => 0,
                    1 => 255,
                    _ => v,
                };
                if x < 16 {
                    c[x] = v.rotate_left((round % 8) as u32);
                }
                r0[x] = v;
                r1[x] = v.wrapping_add(round as u8);
            }
            let scalar: u32 =
                c.iter().zip(&r0[..16]).map(|(a, b)| u32::from(a.abs_diff(*b))).sum();
            assert_eq!(row_sad16(&c, &r0[..16]), scalar, "full-pel row, round {round}");
            for (fx, fy) in [(0usize, 0usize), (1, 0), (0, 1), (1, 1)] {
                let oracle: u32 = (0..16)
                    .map(|x| {
                        let p = (u32::from(r0[x])
                            + u32::from(r0[x + fx])
                            + u32::from(r1[x])
                            + u32::from(r1[x + fx])
                            + 2)
                            / 4;
                        let p = match (fx, fy) {
                            (0, 0) => u32::from(r0[x]),
                            (1, 0) => (u32::from(r0[x]) + u32::from(r0[x + 1])).div_ceil(2),
                            (0, 1) => (u32::from(r0[x]) + u32::from(r1[x])).div_ceil(2),
                            _ => p,
                        };
                        u32::from(c[x]).abs_diff(p)
                    })
                    .sum();
                assert_eq!(
                    row_sad16_halfpel(&c, &r0, &r1, fx, fy),
                    oracle,
                    "phase ({fx},{fy}), round {round}"
                );
            }
        }
    }

    #[test]
    fn mc_then_residual_zero_for_pure_translation() {
        let cur = plane_with_square(10, 8);
        let reference = plane_with_square(7, 8);
        let (mv, _) = estimate(&cur, &reference, 32, 32, 0, 0);
        let mut pred = vec![0u8; 256];
        predict_into(&reference, 32, 32, 0, 0, mv.dx.into(), mv.dy.into(), 16, &mut pred);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(pred[y * 16 + x], cur[y * 32 + x]);
            }
        }
    }
}
