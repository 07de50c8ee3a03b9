//! Backlight→luminance transfer functions (Figs. 7–8 of the paper).
//!
//! The paper measures, per device, how the luminance observed by a camera
//! varies with (a) the software backlight level at a fixed white screen and
//! (b) the displayed white level at a fixed backlight. It finds the response
//! to pixel value almost linear, but the response to **backlight level
//! non-linear and device-specific** ("each display technology showed a
//! different transfer characteristic"). The inverse of this function is the
//! table look-up the client performs at runtime.

use std::fmt;

/// A software backlight level in `0..=255`, as exposed by the PDA driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BacklightLevel(pub u8);

annolight_support::impl_json!(newtype BacklightLevel(inner));

impl BacklightLevel {
    /// Backlight fully off.
    pub const MIN: BacklightLevel = BacklightLevel(0);
    /// Maximum backlight.
    pub const MAX: BacklightLevel = BacklightLevel(255);

    /// The level as a fraction of full scale, in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        f64::from(self.0) / 255.0
    }

    /// Builds a level from a fraction of full scale (clamped to `[0, 1]`).
    pub fn from_fraction(f: f64) -> Self {
        BacklightLevel((f.clamp(0.0, 1.0) * 255.0).round() as u8)
    }
}

impl fmt::Display for BacklightLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/255", self.0)
    }
}

impl From<u8> for BacklightLevel {
    fn from(v: u8) -> Self {
        BacklightLevel(v)
    }
}

/// A monotone backlight→relative-luminance transfer function.
///
/// All variants map level 0 to (near) 0 relative luminance and level 255 to
/// exactly 1.0, and are strictly increasing, so the inverse look-up is well
/// defined.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TransferFunction {
    /// Ideal proportional response (useful as a baseline / for tests).
    Linear,
    /// Saturating exponential `L(x) = (1 − e^(−a·x)) / (1 − e^(−a))`,
    /// `x = level/255`. Models white-LED backlights (iPAQ 5555): steep at
    /// low levels, flattening towards full scale.
    SaturatingExp {
        /// Curvature `a > 0`; larger = stronger saturation.
        a: f64,
    },
    /// Power law `L(x) = x^gamma`. With `gamma > 1` models CCFL lamps whose
    /// light output falls off disproportionately at low drive levels.
    Gamma {
        /// Exponent `gamma > 0`.
        gamma: f64,
    },
}

annolight_support::impl_json!(enum TransferFunction { Linear, SaturatingExp { a }, Gamma { gamma } });

impl TransferFunction {
    /// Relative luminance in `[0, 1]` produced at `level`.
    ///
    /// ```
    /// use annolight_display::{BacklightLevel, TransferFunction};
    /// let led = TransferFunction::SaturatingExp { a: 1.3 };
    /// assert_eq!(led.luminance(BacklightLevel::MAX), 1.0);
    /// // Concave: half the level gives more than half the light.
    /// assert!(led.luminance(BacklightLevel(128)) > 0.5);
    /// ```
    pub fn luminance(self, level: BacklightLevel) -> f64 {
        let x = level.fraction();
        match self {
            TransferFunction::Linear => x,
            TransferFunction::SaturatingExp { a } => {
                debug_assert!(a > 0.0);
                (1.0 - (-a * x).exp()) / (1.0 - (-a).exp())
            }
            TransferFunction::Gamma { gamma } => {
                debug_assert!(gamma > 0.0);
                x.powf(gamma)
            }
        }
    }

    /// Checks that the curve's parameter, if it has one, is finite and
    /// positive: `gamma > 0`, and `a > 0` large enough that `e^(−a)`
    /// rounds below 1, since at smaller `a` the curve is `0/0`. A curve
    /// decoded from outside the program is checked here before it is used.
    ///
    /// # Errors
    ///
    /// Names the parameter out of range.
    pub fn check(self) -> Result<(), String> {
        match self {
            TransferFunction::Linear => Ok(()),
            TransferFunction::SaturatingExp { a } if a.is_finite() && (-a).exp() < 1.0 => Ok(()),
            TransferFunction::SaturatingExp { a } => {
                Err(format!("transfer curvature a = {a} must be finite with e^(-a) < 1"))
            }
            TransferFunction::Gamma { gamma } if gamma.is_finite() && gamma > 0.0 => Ok(()),
            TransferFunction::Gamma { gamma } => {
                Err(format!("transfer gamma {gamma} must be finite and positive"))
            }
        }
    }

    /// The smallest backlight level whose luminance is at least `target`
    /// (clamped to `[0, 1]`). This is the client's "simple multiplication
    /// followed by a table look-up" (§4.3); the *at least* direction
    /// guarantees the display is never under-driven.
    ///
    /// ```
    /// use annolight_display::TransferFunction;
    /// let f = TransferFunction::Gamma { gamma: 1.5 };
    /// let level = f.level_for_luminance(0.4);
    /// assert!(f.luminance(level) >= 0.4);
    /// ```
    pub fn level_for_luminance(self, target: f64) -> BacklightLevel {
        let target = target.clamp(0.0, 1.0);
        // Binary search over the (monotone) discrete levels.
        let (mut lo, mut hi) = (0u16, 255u16);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.luminance(BacklightLevel(mid as u8)) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        BacklightLevel(lo as u8)
    }

    /// Precomputes the 256-entry inverse look-up table the paper describes
    /// shipping to (or deriving on) the client. `table[y]` is the backlight
    /// level for a target luminance of `y/255`.
    pub fn inverse_lut(self) -> [BacklightLevel; 256] {
        let mut lut = [BacklightLevel(0); 256];
        for (y, slot) in lut.iter_mut().enumerate() {
            *slot = self.level_for_luminance(y as f64 / 255.0);
        }
        lut
    }
}

/// Panel response to the displayed pixel value at a fixed backlight
/// (Fig. 8): near-linear with a mild gamma.
///
/// `white` is the displayed gray level (0–255); the result is the fraction
/// of the panel's maximum transmitted luminance, in `[0, 1]`.
pub fn panel_white_response(white: u8, panel_gamma: f64) -> f64 {
    (f64::from(white) / 255.0).powf(panel_gamma)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUNCS: [TransferFunction; 4] = [
        TransferFunction::Linear,
        TransferFunction::SaturatingExp { a: 2.0 },
        TransferFunction::SaturatingExp { a: 4.0 },
        TransferFunction::Gamma { gamma: 1.5 },
    ];

    #[test]
    fn check_accepts_well_formed_curves_only() {
        for f in FUNCS {
            assert_eq!(f.check(), Ok(()), "{f:?}");
        }
        for a in [0.0, -3.0, 1e-300, f64::INFINITY, f64::NAN] {
            assert!(TransferFunction::SaturatingExp { a }.check().is_err(), "a = {a}");
        }
        for gamma in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(TransferFunction::Gamma { gamma }.check().is_err(), "gamma {gamma}");
        }
    }

    #[test]
    fn endpoints_are_anchored() {
        for f in FUNCS {
            assert!(f.luminance(BacklightLevel::MIN).abs() < 1e-12, "{f:?}");
            assert!((f.luminance(BacklightLevel::MAX) - 1.0).abs() < 1e-12, "{f:?}");
        }
    }

    #[test]
    fn strictly_increasing() {
        for f in FUNCS {
            let mut last = -1.0;
            for v in 0..=255u8 {
                let l = f.luminance(BacklightLevel(v));
                assert!(l > last, "{f:?} at {v}");
                last = l;
            }
        }
    }

    #[test]
    fn led_curve_is_concave_ccfl_convex() {
        // LED (saturating exp) exceeds linear at mid levels; CCFL (gamma>1)
        // is below linear.
        let mid = BacklightLevel(128);
        let led = TransferFunction::SaturatingExp { a: 2.0 }.luminance(mid);
        let ccfl = TransferFunction::Gamma { gamma: 1.5 }.luminance(mid);
        let lin = TransferFunction::Linear.luminance(mid);
        assert!(led > lin, "LED should be concave (above linear)");
        assert!(ccfl < lin, "CCFL should be convex (below linear)");
    }

    #[test]
    fn inverse_never_underdrives() {
        for f in FUNCS {
            for i in 0..=100 {
                let target = f64::from(i) / 100.0;
                let level = f.level_for_luminance(target);
                assert!(
                    f.luminance(level) + 1e-12 >= target,
                    "{f:?} target {target} level {level}"
                );
                // And one step lower would under-drive (minimality).
                if level.0 > 0 {
                    assert!(f.luminance(BacklightLevel(level.0 - 1)) < target);
                }
            }
        }
    }

    #[test]
    fn inverse_of_full_is_full() {
        for f in FUNCS {
            assert_eq!(f.level_for_luminance(1.0), BacklightLevel::MAX);
            assert_eq!(f.level_for_luminance(0.0), BacklightLevel::MIN);
        }
    }

    #[test]
    fn lut_matches_search() {
        let f = TransferFunction::SaturatingExp { a: 2.2 };
        let lut = f.inverse_lut();
        for y in [0usize, 1, 17, 128, 200, 255] {
            assert_eq!(lut[y], f.level_for_luminance(y as f64 / 255.0));
        }
    }

    #[test]
    fn concave_transfer_saves_more_backlight() {
        // For a target luminance of 0.5 the LED device can drop to a much
        // lower level than a linear device — the effect the paper exploits
        // by "including the display properties in the loop".
        let led = TransferFunction::SaturatingExp { a: 2.2 }.level_for_luminance(0.5);
        let lin = TransferFunction::Linear.level_for_luminance(0.5);
        assert!(led < lin);
    }

    #[test]
    fn fraction_roundtrip() {
        assert_eq!(BacklightLevel::from_fraction(1.0), BacklightLevel::MAX);
        assert_eq!(BacklightLevel::from_fraction(0.0), BacklightLevel::MIN);
        assert_eq!(BacklightLevel::from_fraction(2.0), BacklightLevel::MAX);
        let l = BacklightLevel(128);
        assert!((BacklightLevel::from_fraction(l.fraction()).0 as i16 - 128).abs() <= 1);
    }

    #[test]
    fn white_response_is_monotone() {
        let mut last = -1.0;
        for w in 0..=255u8 {
            let r = panel_white_response(w, 1.1);
            assert!(r >= last);
            last = r;
        }
        assert!((panel_white_response(255, 1.1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_impl() {
        assert_eq!(BacklightLevel(128).to_string(), "128/255");
    }
}
