//! Backlight power model.
//!
//! §5: "From our experiments we also determined that the power consumption
//! of the LCD is almost proportional to backlight level, but little
//! dependent of pixel values, allowing us to analytically estimate the
//! power savings through simulation."
//!
//! We therefore model the LCD backlight subsystem as an affine function of
//! the backlight level, `P(b) = P_floor + (P_max − P_floor) · b/255`, with a
//! small constant panel term that does not scale (drive electronics).

use crate::transfer::BacklightLevel;

/// Affine power model of a backlight subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacklightPowerModel {
    /// Power at backlight level 0 (drive electronics + panel), in watts.
    floor_w: f64,
    /// Power at backlight level 255, in watts.
    max_w: f64,
}

annolight_support::impl_json!(struct BacklightPowerModel { floor_w, max_w });

impl BacklightPowerModel {
    /// Creates a power model.
    ///
    /// # Panics
    ///
    /// Panics on what [`BacklightPowerModel::check`] rejects.
    pub fn new(floor_w: f64, max_w: f64) -> Self {
        let model = Self { floor_w, max_w };
        if let Err(reason) = model.check() {
            panic!("{reason}");
        }
        model
    }

    /// Checks that `0 ≤ floor_w < max_w` and both are finite. A model
    /// decoded from outside the program skips
    /// [`BacklightPowerModel::new`], so it is checked here.
    ///
    /// # Errors
    ///
    /// Describes the out-of-range pair.
    pub fn check(&self) -> Result<(), String> {
        let Self { floor_w, max_w } = *self;
        if floor_w >= 0.0 && max_w > floor_w && max_w.is_finite() {
            Ok(())
        } else {
            Err(format!("need 0 <= floor ({floor_w}) < max ({max_w}), both finite"))
        }
    }

    /// Power at backlight level 0, in watts.
    pub fn floor_w(&self) -> f64 {
        self.floor_w
    }

    /// Power at the maximum backlight level, in watts.
    pub fn max_w(&self) -> f64 {
        self.max_w
    }

    /// Instantaneous power draw at `level`, in watts.
    pub fn power_w(&self, level: BacklightLevel) -> f64 {
        self.floor_w + (self.max_w - self.floor_w) * level.fraction()
    }

    /// Fractional power saving of running at `level` instead of full
    /// backlight, in `[0, 1)`.
    ///
    /// This is the quantity plotted per clip in Fig. 9.
    ///
    /// ```
    /// use annolight_display::{BacklightLevel, BacklightPowerModel};
    /// let m = BacklightPowerModel::new(0.1, 0.85);
    /// assert_eq!(m.savings_vs_full(BacklightLevel::MAX), 0.0);
    /// assert!(m.savings_vs_full(BacklightLevel(64)) > 0.5);
    /// ```
    pub fn savings_vs_full(&self, level: BacklightLevel) -> f64 {
        1.0 - self.power_w(level) / self.power_w(BacklightLevel::MAX)
    }

    /// Energy consumed over `seconds` at a constant `level`, in joules.
    pub fn energy_j(&self, level: BacklightLevel, seconds: f64) -> f64 {
        self.power_w(level) * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BacklightPowerModel {
        BacklightPowerModel::new(0.06, 0.90)
    }

    #[test]
    fn power_is_affine() {
        let m = model();
        assert!((m.power_w(BacklightLevel::MIN) - 0.06).abs() < 1e-12);
        assert!((m.power_w(BacklightLevel::MAX) - 0.90).abs() < 1e-12);
        let mid = m.power_w(BacklightLevel(128));
        assert!(mid > 0.06 && mid < 0.90);
    }

    #[test]
    fn power_monotone_in_level() {
        let m = model();
        let mut last = -1.0;
        for v in 0..=255u8 {
            let p = m.power_w(BacklightLevel(v));
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn savings_full_is_zero() {
        let m = model();
        assert!(m.savings_vs_full(BacklightLevel::MAX).abs() < 1e-12);
    }

    #[test]
    fn savings_off_is_bounded_by_floor() {
        let m = model();
        let s = m.savings_vs_full(BacklightLevel::MIN);
        assert!((s - (1.0 - 0.06 / 0.90)).abs() < 1e-12);
        assert!(s < 1.0);
    }

    #[test]
    fn energy_integrates_power() {
        let m = model();
        let e = m.energy_j(BacklightLevel(255), 10.0);
        assert!((e - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need 0 <= floor")]
    fn rejects_inverted_range() {
        BacklightPowerModel::new(1.0, 0.5);
    }

    #[test]
    fn check_rejects_a_negative_floor_and_an_infinite_max() {
        for (floor_w, max_w) in [(-5.0, 0.85), (0.1, f64::INFINITY), (f64::NAN, 0.85)] {
            assert!(BacklightPowerModel { floor_w, max_w }.check().is_err(), "{floor_w} {max_w}");
        }
        assert_eq!(model().check(), Ok(()));
    }
}
