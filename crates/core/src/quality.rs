//! User-selected quality levels.
//!
//! §4.2: "The user specifies the quality level when he requests the video
//! clip from the server and the system tries to maximize power savings
//! while maintaining the quality of service above the given threshold."
//! The experiments use 0, 5, 10, 15 and 20 % of clipped high-luminance
//! pixels; the server offers the same five qualities to every client type.

use std::fmt;

/// A quality degradation level: the maximum fraction of high-luminance
/// pixels that may be clipped by the compensation step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum QualityLevel {
    /// Loss-less: no pixel may clip (smallest savings).
    #[default]
    Q0,
    /// Up to 5 % of pixels may clip ("visual degradation is virtually
    /// unnoticeable").
    Q5,
    /// Up to 10 % of pixels may clip (the example in Fig. 6).
    Q10,
    /// Up to 15 % of pixels may clip.
    Q15,
    /// Up to 20 % of pixels may clip (the most aggressive level evaluated).
    Q20,
    /// A custom clipping fraction in `[0, 1]` (for sweeps beyond the
    /// paper's five levels).
    Custom(f64),
}

annolight_support::impl_json!(enum QualityLevel { Q0, Q5, Q10, Q15, Q20, Custom(value) });

impl QualityLevel {
    /// The five levels used in the paper's experiments, in order.
    pub const PAPER_LEVELS: [QualityLevel; 5] = [
        QualityLevel::Q0,
        QualityLevel::Q5,
        QualityLevel::Q10,
        QualityLevel::Q15,
        QualityLevel::Q20,
    ];

    /// The maximum clipped-pixel fraction, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics for a [`QualityLevel::Custom`] value outside `[0, 1]` or not
    /// finite (see [`QualityLevel::try_clip_fraction`]).
    pub fn clip_fraction(self) -> f64 {
        self.try_clip_fraction().unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// The maximum clipped-pixel fraction, or why there is none: a
    /// [`QualityLevel::Custom`] value must be finite and in `[0, 1]`.
    /// Boundaries that take a quality from outside check it here rather
    /// than let [`QualityLevel::clip_fraction`] panic.
    ///
    /// # Errors
    ///
    /// Describes a custom value that is not finite or lies outside
    /// `[0, 1]`.
    pub fn try_clip_fraction(self) -> Result<f64, String> {
        match self {
            QualityLevel::Q0 => Ok(0.0),
            QualityLevel::Q5 => Ok(0.05),
            QualityLevel::Q10 => Ok(0.10),
            QualityLevel::Q15 => Ok(0.15),
            QualityLevel::Q20 => Ok(0.20),
            QualityLevel::Custom(f) if f.is_finite() && (0.0..=1.0).contains(&f) => Ok(f),
            QualityLevel::Custom(f) => Err(format!("custom quality {f} outside [0, 1]")),
        }
    }

    /// Builds the level from a percentage (`0`, `5`, `10`, `15`, `20` map
    /// to the named levels; anything else becomes [`QualityLevel::Custom`]).
    pub fn from_percent(p: f64) -> Self {
        if p == 0.0 {
            QualityLevel::Q0
        } else if p == 5.0 {
            QualityLevel::Q5
        } else if p == 10.0 {
            QualityLevel::Q10
        } else if p == 15.0 {
            QualityLevel::Q15
        } else if p == 20.0 {
            QualityLevel::Q20
        } else {
            QualityLevel::Custom(p / 100.0)
        }
    }
}

impl fmt::Display for QualityLevel {
    /// Formats as a percentage, e.g. `10%`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.clip_fraction() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_levels_fractions() {
        let fracs: Vec<f64> = QualityLevel::PAPER_LEVELS.iter().map(|q| q.clip_fraction()).collect();
        assert_eq!(fracs, vec![0.0, 0.05, 0.10, 0.15, 0.20]);
    }

    #[test]
    fn from_percent_maps_named() {
        assert_eq!(QualityLevel::from_percent(0.0), QualityLevel::Q0);
        assert_eq!(QualityLevel::from_percent(10.0), QualityLevel::Q10);
        assert!(matches!(QualityLevel::from_percent(7.5), QualityLevel::Custom(_)));
    }

    #[test]
    fn custom_fraction_passthrough() {
        assert!((QualityLevel::Custom(0.33).clip_fraction() - 0.33).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn custom_out_of_range_panics() {
        QualityLevel::Custom(1.5).clip_fraction();
    }

    #[test]
    fn try_clip_fraction_rejects_what_clip_fraction_panics_on() {
        for f in [1.5, -0.25, f64::NAN, f64::INFINITY] {
            let err = QualityLevel::Custom(f).try_clip_fraction().unwrap_err();
            assert_eq!(err, format!("custom quality {f} outside [0, 1]"));
        }
        for q in QualityLevel::PAPER_LEVELS.into_iter().chain([QualityLevel::Custom(1.0)]) {
            assert_eq!(q.try_clip_fraction(), Ok(q.clip_fraction()));
        }
    }

    #[test]
    fn display_formats_percent() {
        assert_eq!(QualityLevel::Q5.to_string(), "5%");
    }

    #[test]
    fn default_is_lossless() {
        assert_eq!(QualityLevel::default(), QualityLevel::Q0);
    }
}
