//! Per-scene content generators.
//!
//! Each [`ContentKind`] deterministically renders frames whose luminance
//! statistics match one of the content classes the paper's evaluation
//! depends on. All generators are seeded, so the same `(seed, scene,
//! frame)` triple always produces the identical frame — experiments are
//! reproducible bit-for-bit.

use annolight_imgproc::Frame;
use annolight_support::rng::{Bernoulli, SmallRng};

/// A synthetic content class for one scene.
///
/// Luminance parameters are 8-bit values; fractions are in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ContentKind {
    /// Dark live-action content: most pixels near `base`, a sparse
    /// `highlight_fraction` of pixels at `highlight` (street lamps, specular
    /// glints). This is the class the technique wins on: clipping the tiny
    /// highlight population collapses the required luminance range.
    Dark {
        /// Typical background luminance.
        base: u8,
        /// Half-width of the background luminance band.
        spread: u8,
        /// Fraction of pixels that are bright highlights.
        highlight_fraction: f64,
        /// Luminance of the highlights.
        highlight: u8,
    },
    /// Bright content (daylight documentary, white-background cartoon):
    /// the pixel mass is concentrated in the high range, so little can be
    /// clipped without visible damage.
    Bright {
        /// Typical luminance (high).
        base: u8,
        /// Half-width of the luminance band.
        spread: u8,
    },
    /// Mid-tone content with moderate highlights (indoor scenes, product
    /// demos).
    Mid {
        /// Typical luminance.
        base: u8,
        /// Half-width of the band.
        spread: u8,
        /// Fraction of bright highlight pixels.
        highlight_fraction: f64,
    },
    /// A moving diagonal gradient between `lo` and `hi`; exercises motion
    /// estimation in the codec and gives smoothly varying histograms.
    GradientPan {
        /// Darkest luminance in the gradient.
        lo: u8,
        /// Brightest luminance in the gradient.
        hi: u8,
        /// Pan speed in pixels per frame.
        speed: u32,
    },
    /// End credits: sparse bright text rows on a near-black background.
    /// The paper singles this class out — clipping too many pixels distorts
    /// text on a uniform background (§4.3, future study).
    Credits {
        /// Luminance of the text pixels.
        text: u8,
        /// Luminance of the background.
        background: u8,
        /// Fraction of pixels belonging to text.
        density: f64,
    },
    /// A linear luminance fade from `from` to `to` across the scene
    /// duration; `progress` ∈ [0, 1] is supplied per frame.
    Fade {
        /// Starting luminance.
        from: u8,
        /// Ending luminance.
        to: u8,
    },
    /// Strobing content (lightning, muzzle flashes, club scenes):
    /// alternates between a dark base and full-frame flashes every
    /// `period` frames. The pathological case for per-frame backlight
    /// scaling — exactly what the anti-flicker controller guards exist
    /// for.
    Strobe {
        /// Dark-phase luminance.
        dark: u8,
        /// Flash luminance.
        flash: u8,
        /// Frames per half-cycle (≥ 1).
        period: u32,
    },
}

annolight_support::impl_json!(enum ContentKind { Dark { base, spread, highlight_fraction, highlight }, Bright { base, spread }, Mid { base, spread, highlight_fraction }, GradientPan { lo, hi, speed }, Credits { text, background, density }, Fade { from, to }, Strobe { dark, flash, period } });

impl ContentKind {
    /// Renders frame `frame_idx` of a scene that is `scene_frames` long:
    /// [`Self::render_into`] on a fresh `width`×`height` frame.
    ///
    /// # Panics
    ///
    /// Panics if `scene_frames` is zero or either dimension is zero.
    pub fn render(
        &self,
        width: u32,
        height: u32,
        seed: u64,
        frame_idx: u32,
        scene_frames: u32,
    ) -> Frame {
        let mut frame = Frame::new(width, height);
        self.render_into(seed, frame_idx, scene_frames, &mut frame);
        frame
    }

    /// Renders frame `frame_idx` of a scene that is `scene_frames` long
    /// into `out`, at `out`'s geometry, overwriting every byte.
    ///
    /// `seed` must identify the (clip, scene) pair; frames are then
    /// deterministic in `frame_idx`. Each frame seeds one generator and
    /// draws from it pixel by pixel in row-major order:
    /// - a `Dark` or `Mid` pixel draws a highlight coin when the fraction
    ///   is above zero, and one highlight level if it lands; otherwise a
    ///   `Dark` pixel draws a mid-tone coin when the tail band is not
    ///   empty, and two tail levels if it lands; any other pixel draws
    ///   one band level (1 to 4 draws for `Dark`, 1 to 3 for `Mid`);
    /// - `Bright`, `Strobe` and `Fade` pixels draw once;
    /// - `GradientPan` and `Credits` draw nothing.
    ///
    /// # Panics
    ///
    /// Panics if `scene_frames` is zero.
    pub fn render_into(&self, seed: u64, frame_idx: u32, scene_frames: u32, out: &mut Frame) {
        assert!(scene_frames > 0, "scene must contain at least one frame");
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (u64::from(frame_idx).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let (width, height) = (out.width(), out.height());
        let px = out.as_bytes_mut();
        match *self {
            ContentKind::Dark { base, spread, highlight_fraction, highlight } => {
                // Real dark scenes are not bimodal: besides the sparse
                // specular highlights there is a graded mid-tone population
                // (faces, lit objects) whose tail is what the clipping
                // budget progressively eats. ~30% of pixels span
                // [base+spread, ~190].
                let mid_lo = base.saturating_add(spread);
                let mid_hi = highlight.saturating_sub(10).min(190).max(mid_lo.saturating_add(1));
                let tail = (mid_hi > mid_lo).then(|| Levels::new(mid_lo, mid_hi));
                let coin = highlights(highlight_fraction);
                speckle(px, &mut rng, coin, highlight, tail, base, spread);
            }
            ContentKind::Bright { base, spread } => {
                speckle(px, &mut rng, None, 255, None, base, spread);
            }
            ContentKind::Mid { base, spread, highlight_fraction } => {
                speckle(px, &mut rng, highlights(highlight_fraction), 245, None, base, spread);
            }
            ContentKind::GradientPan { lo, hi, speed } => {
                // A pixel depends only on the wrapping sum x + y + shift,
                // so each row is the row above moved left by one pixel,
                // plus one new pixel at its end.
                let period = width + height;
                let span = u32::from(hi.saturating_sub(lo)).max(1);
                let level = |sum: u32| {
                    let v = u32::from(lo) + span.wrapping_mul(sum % period) / period;
                    [v.min(255) as u8; 3]
                };
                let shift = frame_idx.wrapping_mul(speed);
                let row = 3 * width as usize;
                for (x, p) in (0u32..).zip(px[..row].chunks_exact_mut(3)) {
                    p.copy_from_slice(&level(x.wrapping_add(shift)));
                }
                for y in 1..height {
                    let start = y as usize * row;
                    px.copy_within(start - row + 3..start, start);
                    let last = (width - 1).wrapping_add(y).wrapping_add(shift);
                    px[start + row - 3..start + row].copy_from_slice(&level(last));
                }
            }
            ContentKind::Credits { text, background, density } => {
                // Text rows scroll upward one row per frame; glyph pixels
                // are pseudo-random within text rows at the given density.
                px.fill(background);
                let row_period = 8u32;
                let cutoff = density * f64::from(row_period) / 2.0;
                for (y, row) in (0u32..).zip(px.chunks_exact_mut(3 * width as usize)) {
                    let virtual_row = y.wrapping_add(frame_idx);
                    if virtual_row % row_period < 2 {
                        let line = u64::from(virtual_row / row_period);
                        for (x, p) in (0u32..).zip(row.chunks_exact_mut(3)) {
                            // Per-glyph hash independent of frame so text is
                            // stable while scrolling.
                            let h = hash2(seed, u64::from(x) << 32 | line);
                            if (h as f64 / u64::MAX as f64) < cutoff {
                                p.fill(text);
                            }
                        }
                    }
                }
            }
            ContentKind::Strobe { dark, flash, period } => {
                let lit = (frame_idx / period.max(1)) % 2 == 1;
                let base = i16::from(if lit { flash } else { dark });
                for p in px.chunks_exact_mut(3) {
                    let v = (base - 4 + rng.below(9) as i16).clamp(0, 255) as u8;
                    p.copy_from_slice(&[v, v.saturating_sub(3), v.saturating_sub(6)]);
                }
            }
            ContentKind::Fade { from, to } => {
                let progress = if scene_frames <= 1 {
                    0.0
                } else {
                    f64::from(frame_idx) / f64::from(scene_frames - 1)
                };
                let v = f64::from(from) + (f64::from(to) - f64::from(from)) * progress;
                let v = i16::from(v.round().clamp(0.0, 255.0) as u8);
                for p in px.chunks_exact_mut(3) {
                    p.fill((v - 3 + rng.below(7) as i16).clamp(0, 255) as u8);
                }
            }
        }
    }

    /// The approximate maximum luminance this content produces, used by the
    /// library calibration tests.
    pub fn nominal_max_luma(&self) -> u8 {
        match *self {
            ContentKind::Dark { highlight, .. } => highlight,
            ContentKind::Bright { base, spread } => base.saturating_add(spread),
            ContentKind::Mid { highlight_fraction, base, spread } => {
                if highlight_fraction > 0.0 {
                    245
                } else {
                    base.saturating_add(spread)
                }
            }
            ContentKind::GradientPan { hi, .. } => hi,
            ContentKind::Credits { text, .. } => text,
            ContentKind::Fade { from, to } => from.max(to),
            ContentKind::Strobe { dark, flash, .. } => dark.max(flash),
        }
    }
}

/// The coin for a highlight fraction: none (and no draw) unless the
/// fraction is above zero, and a certain one above one.
fn highlights(fraction: f64) -> Option<Bernoulli> {
    (fraction > 0.0).then(|| Bernoulli::new(fraction.min(1.0)))
}

/// A uniform `u8` from `lo..=hi` with its span hoisted: the one draw
/// `lo + below(hi − lo + 1)` that `gen_range(lo..=hi)` makes.
#[derive(Clone, Copy)]
struct Levels {
    lo: u8,
    span: u64,
}

impl Levels {
    fn new(lo: u8, hi: u8) -> Self {
        Self { lo, span: u64::from(hi - lo) + 1 }
    }

    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u8 {
        self.lo + rng.below(self.span) as u8
    }
}

/// The pixel loop of the speckled kinds (`Dark`, `Bright`, `Mid`): a
/// luminance band around `base` ± `spread`, with an optional sparse
/// highlight population and an optional mid-tone tail. A slight
/// blue/amber cast keeps the frames non-gray so chroma paths in the
/// codec are exercised.
fn speckle(
    px: &mut [u8],
    rng: &mut SmallRng,
    highlights: Option<Bernoulli>,
    highlight: u8,
    tail: Option<Levels>,
    base: u8,
    spread: u8,
) {
    let tail_coin = Bernoulli::new(0.30);
    let band = Levels::new(base.saturating_sub(spread), base.saturating_add(spread));
    for p in px.chunks_exact_mut(3) {
        let rgb = if highlights.is_some_and(|coin| coin.sample(rng)) {
            let v = highlight.saturating_sub(rng.below(8) as u8);
            [v, v, v.saturating_sub(10)]
        } else if let Some(tail) = tail.filter(|_| tail_coin.sample(rng)) {
            // Mid-tone tail, denser towards the dark end.
            let v = tail.sample(rng).min(tail.sample(rng));
            [v, v.saturating_sub(3), v.saturating_sub(6)]
        } else {
            // mild warm cast
            let v = band.sample(rng);
            [v, v.saturating_sub(4), v.saturating_sub(8)]
        };
        p.copy_from_slice(&rgb);
    }
}

fn hash2(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::Rgb8;
    use annolight_support::check::Gen;

    impl ContentKind {
        /// The renderer `render_into` replaced, kept verbatim as the oracle
        /// the differential property compares against.
        ///
        /// Renders frame `frame_idx` of a scene that is `scene_frames` long.
        ///
        /// `seed` must identify the (clip, scene) pair; frames are then
        /// deterministic in `frame_idx`.
        ///
        /// # Panics
        ///
        /// Panics if `scene_frames` is zero or either dimension is zero.
        fn oracle(
            &self,
            width: u32,
            height: u32,
            seed: u64,
            frame_idx: u32,
            scene_frames: u32,
        ) -> Frame {
            assert!(scene_frames > 0, "scene must contain at least one frame");
            let mut rng = SmallRng::seed_from_u64(
                seed ^ (u64::from(frame_idx).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            match *self {
                ContentKind::Dark { base, spread, highlight_fraction, highlight } => {
                    // Real dark scenes are not bimodal: besides the sparse
                    // specular highlights there is a graded mid-tone population
                    // (faces, lit objects) whose tail is what the clipping
                    // budget progressively eats. ~30% of pixels span
                    // [base+spread, ~190].
                    let mid_lo = base.saturating_add(spread);
                    let mid_hi = highlight.saturating_sub(10).clamp(mid_lo.saturating_add(1), 190);
                    Frame::from_fn(width, height, |_, _| {
                        if highlight_fraction > 0.0 && rng.gen_bool(highlight_fraction.min(1.0)) {
                            let v = highlight.saturating_sub(rng.gen_range(0..8));
                            [v, v, v.saturating_sub(10)]
                        } else if mid_hi > mid_lo && rng.gen_bool(0.30) {
                            // Mid-tone tail, denser towards the dark end.
                            let a: u8 = rng.gen_range(mid_lo..=mid_hi);
                            let b: u8 = rng.gen_range(mid_lo..=mid_hi);
                            let v = a.min(b);
                            [v, v.saturating_sub(3), v.saturating_sub(6)]
                        } else {
                            let lo = base.saturating_sub(spread);
                            let hi = base.saturating_add(spread);
                            let v = rng.gen_range(lo..=hi);
                            [v, v.saturating_sub(4), v.saturating_sub(8)]
                        }
                    })
                }
                ContentKind::Bright { base, spread } => {
                    Self::banded(width, height, &mut rng, base, spread, 0.0, 255)
                }
                ContentKind::Mid { base, spread, highlight_fraction } => {
                    Self::banded(width, height, &mut rng, base, spread, highlight_fraction, 245)
                }
                ContentKind::GradientPan { lo, hi, speed } => {
                    let shift = frame_idx * speed;
                    let span = u32::from(hi.saturating_sub(lo)).max(1);
                    Frame::from_fn(width, height, |x, y| {
                        let phase = (x + y + shift) % (width + height);
                        let v = lo as u32 + span * phase / (width + height);
                        let v = v.min(255) as u8;
                        [v, v, v]
                    })
                }
                ContentKind::Credits { text, background, density } => {
                    // Text rows scroll upward one row per frame; glyph pixels
                    // are pseudo-random within text rows at the given density.
                    let mut f = Frame::filled(width, height, Rgb8::gray(background));
                    let row_period = 8u32;
                    for y in 0..height {
                        let virtual_row = (y + frame_idx) % row_period;
                        if virtual_row < 2 {
                            for x in 0..width {
                                // Per-glyph hash independent of frame so text is
                                // stable while scrolling.
                                let h = hash2(seed, u64::from(x) << 32 | u64::from((y + frame_idx) / row_period));
                                if (h as f64 / u64::MAX as f64) < density * f64::from(row_period) / 2.0 {
                                    f.set_pixel(x, y, Rgb8::gray(text));
                                }
                            }
                        }
                    }
                    f
                }
                ContentKind::Strobe { dark, flash, period } => {
                    let period = period.max(1);
                    let lit = (frame_idx / period) % 2 == 1;
                    let base = if lit { flash } else { dark };
                    let mut rng2 = rng;
                    Frame::from_fn(width, height, |_, _| {
                        let n: i16 = rng2.gen_range(-4..=4);
                        let v = (i16::from(base) + n).clamp(0, 255) as u8;
                        [v, v.saturating_sub(3), v.saturating_sub(6)]
                    })
                }
                ContentKind::Fade { from, to } => {
                    let progress = if scene_frames <= 1 {
                        0.0
                    } else {
                        f64::from(frame_idx) / f64::from(scene_frames - 1)
                    };
                    let v = f64::from(from) + (f64::from(to) - f64::from(from)) * progress;
                    let v = v.round().clamp(0.0, 255.0) as u8;
                    let mut rng2 = rng;
                    Frame::from_fn(width, height, |_, _| {
                        let n: i16 = rng2.gen_range(-3..=3);
                        let s = (i16::from(v) + n).clamp(0, 255) as u8;
                        [s, s, s]
                    })
                }
            }
        }

        /// Shared generator: a luminance band around `base` ± `spread`, with an
        /// optional sparse highlight population. A slight blue/amber cast keeps
        /// the frames non-gray so chroma paths in the codec are exercised.
        fn banded(
            width: u32,
            height: u32,
            rng: &mut SmallRng,
            base: u8,
            spread: u8,
            highlight_fraction: f64,
            highlight: u8,
        ) -> Frame {
            Frame::from_fn(width, height, |_, _| {
                if highlight_fraction > 0.0 && rng.gen_bool(highlight_fraction.min(1.0)) {
                    let v = highlight.saturating_sub(rng.gen_range(0..8));
                    [v, v, v.saturating_sub(10)]
                } else {
                    let lo = base.saturating_sub(spread);
                    let hi = base.saturating_add(spread);
                    let v = rng.gen_range(lo..=hi);
                    // mild warm cast
                    [v, v.saturating_sub(4), v.saturating_sub(8)]
                }
            })
        }
    }

    /// Whether the oracle panics where `render_into` does not: `Dark`'s
    /// old `clamp` whenever `base + spread ≥ 190`, and, in debug builds
    /// only, the `u32` sums of `GradientPan` and `Credits`, which release
    /// builds wrap.
    fn oracle_panics(kind: &ContentKind, width: u32, height: u32, frame_idx: u32) -> bool {
        match *kind {
            ContentKind::Dark { base, spread, .. } => base.saturating_add(spread) >= 190,
            ContentKind::GradientPan { speed, .. } => {
                cfg!(debug_assertions)
                    && frame_idx
                        .checked_mul(speed)
                        .and_then(|shift| shift.checked_add(width - 1 + height - 1))
                        .is_none()
            }
            ContentKind::Credits { .. } => {
                cfg!(debug_assertions) && frame_idx.checked_add(height - 1).is_none()
            }
            _ => false,
        }
    }

    const FRACTIONS: [f64; 7] = [f64::NAN, -0.25, 0.0, 5e-324, 1.0, 1.5, f64::INFINITY];

    fn fraction(g: &mut Gen) -> f64 {
        if g.any() {
            FRACTIONS[g.draw(0..FRACTIONS.len())]
        } else {
            g.draw(0.0..=1.0)
        }
    }

    /// A level that is often small, so `Dark`'s `base + spread` often
    /// stays below 190, where the oracle is defined.
    fn level(g: &mut Gen) -> u8 {
        if g.any() {
            g.draw(0u8..96)
        } else {
            g.any()
        }
    }

    fn kind(g: &mut Gen) -> ContentKind {
        match g.draw(0u8..7) {
            0 => ContentKind::Dark {
                base: level(g),
                spread: level(g),
                highlight_fraction: fraction(g),
                highlight: g.any(),
            },
            1 => ContentKind::Bright { base: g.any(), spread: g.any() },
            2 => {
                ContentKind::Mid { base: g.any(), spread: g.any(), highlight_fraction: fraction(g) }
            }
            3 => {
                let speed = match g.draw(0u8..3) {
                    0 => g.draw(0u32..8),
                    1 => g.any(),
                    _ => u32::MAX - g.draw(0u32..1024),
                };
                ContentKind::GradientPan { lo: g.any(), hi: g.any(), speed }
            }
            4 => ContentKind::Credits { text: g.any(), background: g.any(), density: fraction(g) },
            5 => ContentKind::Fade { from: g.any(), to: g.any() },
            _ => ContentKind::Strobe { dark: g.any(), flash: g.any(), period: g.draw(0u32..6) },
        }
    }

    /// `(frame_idx, scene_frames)`: the first, middle, last or any frame
    /// of a one-frame, short or arbitrarily long scene.
    fn frame(g: &mut Gen) -> (u32, u32) {
        let scene_frames = match g.draw(0u8..3) {
            0 => 1,
            1 => g.draw(1u32..=120),
            _ => g.any::<u32>().max(1),
        };
        let idx = match g.draw(0u8..4) {
            0 => 0,
            1 => scene_frames / 2,
            2 => scene_frames - 1,
            _ => g.draw(0..scene_frames),
        };
        (idx, scene_frames)
    }

    annolight_support::check! {
        /// `render_into` makes the oracle's bytes for every kind, ragged
        /// geometry, seed and frame, into one frame reused across kinds.
        fn render_into_matches_the_oracle(g, cases = 512) {
            let (w, h) = (g.draw(1u32..=40), g.draw(1u32..=40));
            let mut out = Frame::new(w, h);
            out.as_bytes_mut().fill(g.any());
            for _ in 0..4 {
                let kind = kind(g);
                let seed = g.any();
                let (idx, scene_frames) = frame(g);
                kind.render_into(seed, idx, scene_frames, &mut out);
                if !oracle_panics(&kind, w, h, idx) {
                    assert_eq!(
                        out,
                        kind.oracle(w, h, seed, idx, scene_frames),
                        "{kind:?}, frame {idx} of {scene_frames}, seed {seed:#x}, {w}x{h}"
                    );
                }
            }
        }
    }

    const W: u32 = 64;
    const H: u32 = 48;

    #[test]
    fn rendering_is_deterministic() {
        let k = ContentKind::Dark { base: 50, spread: 15, highlight_fraction: 0.01, highlight: 240 };
        let a = k.render(W, H, 7, 3, 30);
        let b = k.render(W, H, 7, 3, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn different_frames_differ() {
        let k = ContentKind::Dark { base: 50, spread: 15, highlight_fraction: 0.01, highlight: 240 };
        assert_ne!(k.render(W, H, 7, 0, 30), k.render(W, H, 7, 1, 30));
    }

    #[test]
    fn dark_scene_statistics() {
        let k = ContentKind::Dark { base: 45, spread: 12, highlight_fraction: 0.005, highlight: 250 };
        let f = k.render(W, H, 1, 0, 30);
        assert!(f.mean_luma() < 100.0, "mean {}", f.mean_luma());
        assert!(f.max_luma() > 220, "max {}", f.max_luma());
        // Graded tail: clipping progressively lowers the effective max,
        // without collapsing all the way to the background band.
        let h = f.luma_histogram();
        let l2 = h.clip_level(0.02);
        let l10 = h.clip_level(0.10);
        let l20 = h.clip_level(0.20);
        assert!(l2 < h.max_nonzero().unwrap());
        assert!(l10 < l2, "10% ({l10}) should clip deeper than 2% ({l2})");
        assert!(l20 < l10);
        assert!(l20 > 57, "20% clip should not reach the background band, got {l20}");
    }

    #[test]
    fn bright_scene_statistics() {
        let k = ContentKind::Bright { base: 200, spread: 30 };
        let f = k.render(W, H, 2, 0, 30);
        assert!(f.mean_luma() > 150.0);
        // Clipping 5% barely moves the effective max: the mass is bright.
        let h = f.luma_histogram();
        assert!(h.clip_level(0.05) as i16 >= h.max_nonzero().unwrap() as i16 - 40);
    }

    #[test]
    fn gradient_pan_moves() {
        let k = ContentKind::GradientPan { lo: 20, hi: 200, speed: 2 };
        let a = k.render(W, H, 3, 0, 30);
        let b = k.render(W, H, 3, 1, 30);
        assert_ne!(a, b);
        // But the histogram is nearly unchanged (same gradient, shifted).
        let d = a.luma_histogram().emd(&b.luma_histogram());
        assert!(d < 6.0, "emd {d}");
    }

    #[test]
    fn credits_are_sparse_text_on_black() {
        let k = ContentKind::Credits { text: 235, background: 8, density: 0.05 };
        let f = k.render(W, H, 4, 0, 30);
        let h = f.luma_histogram();
        let bright = h.fraction_above(128);
        assert!(bright > 0.0 && bright < 0.2, "bright fraction {bright}");
        assert!(f.mean_luma() < 60.0);
    }

    #[test]
    fn credits_scroll() {
        let k = ContentKind::Credits { text: 235, background: 8, density: 0.08 };
        assert_ne!(k.render(W, H, 4, 0, 30), k.render(W, H, 4, 3, 30));
    }

    #[test]
    fn fade_moves_luminance() {
        let k = ContentKind::Fade { from: 20, to: 200 };
        let first = k.render(W, H, 5, 0, 40);
        let last = k.render(W, H, 5, 39, 40);
        assert!(first.mean_luma() < 35.0);
        assert!(last.mean_luma() > 180.0);
    }

    #[test]
    fn fade_single_frame_scene_uses_start() {
        let k = ContentKind::Fade { from: 30, to: 200 };
        let f = k.render(W, H, 5, 0, 1);
        assert!(f.mean_luma() < 45.0);
    }

    #[test]
    fn strobe_alternates() {
        let k = ContentKind::Strobe { dark: 30, flash: 230, period: 3 };
        let dark_frame = k.render(W, H, 8, 0, 30);
        let lit_frame = k.render(W, H, 8, 3, 30);
        assert!(dark_frame.mean_luma() < 60.0);
        assert!(lit_frame.mean_luma() > 180.0);
        // Within a half-cycle the phase is stable.
        assert!(k.render(W, H, 8, 1, 30).mean_luma() < 60.0);
    }

    #[test]
    fn strobe_period_zero_is_clamped() {
        let k = ContentKind::Strobe { dark: 30, flash: 230, period: 0 };
        let f = k.render(W, H, 8, 1, 30); // would divide by zero unclamped
        assert!(f.mean_luma() > 0.0);
    }

    #[test]
    fn dark_with_a_mid_band_at_190_or_above_renders() {
        // The old `clamp(mid_lo + 1, 190)` panicked once base + spread
        // reached 190: here the band is [190, 210] and the tail [210, 211].
        let k =
            ContentKind::Dark { base: 200, spread: 10, highlight_fraction: 0.01, highlight: 250 };
        let f = k.render(W, H, 1, 0, 30);
        let reds: Vec<u8> = f.as_bytes().iter().step_by(3).copied().collect();
        assert!(reds.iter().all(|r| (190..=211).contains(r) || (243..=250).contains(r)));
        assert!(reds.contains(&211), "only the tail reaches 211");
    }

    #[test]
    fn gradient_pan_shift_wraps_in_every_build() {
        // frame_idx * speed overflowed from frame 2 on: a debug-build panic.
        let fast = ContentKind::GradientPan { lo: 0, hi: 255, speed: 4_000_000_000 };
        let wrapped = ContentKind::GradientPan { lo: 0, hi: 255, speed: 3_705_032_704 };
        assert_eq!(2u32.wrapping_mul(4_000_000_000), 3_705_032_704);
        assert_eq!(fast.render(W, H, 3, 2, 30), wrapped.render(W, H, 3, 1, 30));
    }

    #[test]
    fn nominal_max_matches_render_ballpark() {
        let cases: Vec<ContentKind> = vec![
            ContentKind::Dark { base: 40, spread: 10, highlight_fraction: 0.01, highlight: 240 },
            ContentKind::Bright { base: 190, spread: 25 },
            ContentKind::GradientPan { lo: 10, hi: 180, speed: 1 },
            ContentKind::Credits { text: 230, background: 5, density: 0.1 },
        ];
        for k in cases {
            let f = k.render(W, H, 9, 0, 30);
            let measured = f.max_luma();
            let nominal = k.nominal_max_luma();
            assert!(
                (i16::from(measured) - i16::from(nominal)).abs() <= 24,
                "{k:?}: measured {measured} nominal {nominal}"
            );
        }
    }
}
