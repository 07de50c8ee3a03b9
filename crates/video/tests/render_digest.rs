//! Pins the bytes of every content kind's renderer.
//!
//! One FNV-1a digest folds the frames a fixed matrix renders: every
//! [`ContentKind`] with typical and edge parameters (NaN, negative and
//! above-one fractions, saturating bands, a zero strobe period, a pan
//! speed whose shift nears `u32::MAX`), ragged geometries, several seeds,
//! and the first, middle and last frame of a scene, plus a one-frame
//! scene. A renderer rewrite that changes any byte changes the digest.

use annolight_support::fnv::Digester;
use annolight_video::ContentKind;

const KINDS: [ContentKind; 29] = [
    ContentKind::Dark { base: 45, spread: 12, highlight_fraction: 0.005, highlight: 250 },
    ContentKind::Dark { base: 0, spread: 0, highlight_fraction: 0.0, highlight: 0 },
    ContentKind::Dark { base: 180, spread: 9, highlight_fraction: 1.0, highlight: 255 },
    ContentKind::Dark { base: 30, spread: 40, highlight_fraction: f64::NAN, highlight: 5 },
    ContentKind::Dark { base: 60, spread: 129, highlight_fraction: 0.0, highlight: 200 },
    ContentKind::Dark { base: 90, spread: 3, highlight_fraction: 2.5, highlight: 120 },
    ContentKind::Dark { base: 10, spread: 5, highlight_fraction: f64::INFINITY, highlight: 240 },
    ContentKind::Dark { base: 70, spread: 20, highlight_fraction: -0.5, highlight: 230 },
    ContentKind::Dark { base: 50, spread: 15, highlight_fraction: 5e-324, highlight: 240 },
    ContentKind::Bright { base: 200, spread: 30 },
    ContentKind::Bright { base: 255, spread: 255 },
    ContentKind::Bright { base: 0, spread: 0 },
    ContentKind::Mid { base: 120, spread: 20, highlight_fraction: 0.02 },
    ContentKind::Mid { base: 250, spread: 10, highlight_fraction: 0.0 },
    ContentKind::Mid { base: 5, spread: 40, highlight_fraction: 1.5 },
    ContentKind::Mid { base: 128, spread: 128, highlight_fraction: f64::NAN },
    ContentKind::GradientPan { lo: 20, hi: 200, speed: 2 },
    ContentKind::GradientPan { lo: 200, hi: 20, speed: 0 },
    ContentKind::GradientPan { lo: 0, hi: 255, speed: 80_000_000 },
    ContentKind::Credits { text: 235, background: 8, density: 0.05 },
    ContentKind::Credits { text: 0, background: 255, density: 1.0 },
    ContentKind::Fade { from: 20, to: 200 },
    ContentKind::Fade { from: 255, to: 0 },
    ContentKind::Strobe { dark: 30, flash: 230, period: 3 },
    ContentKind::Credits { text: 200, background: 40, density: 0.0 },
    ContentKind::Fade { from: 7, to: 7 },
    ContentKind::Strobe { dark: 0, flash: 255, period: 0 },
    ContentKind::Strobe { dark: 2, flash: 253, period: 1 },
    ContentKind::GradientPan { lo: 3, hi: 4, speed: 1 },
];

const GEOMETRIES: [(u32, u32); 4] = [(1, 1), (17, 5), (130, 2), (48, 32)];
const SEEDS: [u64; 4] = [0, 7, 0xDEAD_BEEF_CAFE_F00D, u64::MAX];
/// `(frame_idx, scene_frames)`: a one-frame scene, then the first,
/// middle and last frame of a 50-frame scene.
const FRAMES: [(u32, u32); 4] = [(0, 1), (0, 50), (25, 50), (49, 50)];

#[test]
fn render_digest_matrix_is_pinned() {
    let mut d = Digester::new();
    for kind in &KINDS {
        for &(w, h) in &GEOMETRIES {
            for &seed in &SEEDS {
                for &(idx, scene_frames) in &FRAMES {
                    let frame = kind.render(w, h, seed, idx, scene_frames);
                    d.write_u32(frame.width()).write_u32(frame.height()).write(frame.as_bytes());
                }
            }
        }
    }
    let digest = d.finish();
    assert_eq!(digest, 0xdd21_8669_dbe7_163e, "render digest moved: {digest:#018x}");
}
