//! LCD panel models.
//!
//! §4.1: "LCD displays are of three types: reflective, transmissive and
//! transflective. Most recent handhelds use transflective displays, which
//! perform best both indoors (low light) and outdoors (in sunlight)."
//!
//! The perceived pixel intensity is `I = ρ · L · Y` where `ρ` is the panel
//! transmittance, `L` the backlight luminance and `Y` the displayed image
//! luminance. Reflective and transflective panels additionally reflect a
//! fraction of the ambient light, which is why they remain readable with a
//! dimmed backlight outdoors.


/// The three LCD construction types discussed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PanelKind {
    /// Light passes from the backlight through the panel.
    Transmissive,
    /// Ambient light is reflected; a frontlight assists in the dark.
    Reflective,
    /// Hybrid: transmits backlight and reflects ambient light.
    Transflective,
}

annolight_support::impl_json!(enum PanelKind { Transmissive, Reflective, Transflective });

/// A parametric LCD panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Panel {
    kind: PanelKind,
    /// Transmittance `ρ` of the LCD stack, in `(0, 1]`.
    transmittance: f64,
    /// Fraction of ambient illuminance reflected towards the viewer.
    ambient_reflectance: f64,
    /// Gamma of the pixel-value → transmitted-luminance response (Fig. 8
    /// shows this is near-linear; a mild gamma captures the curvature).
    white_gamma: f64,
}

annolight_support::impl_json!(struct Panel { kind, transmittance, ambient_reflectance, white_gamma });

impl Panel {
    /// Creates a panel model.
    ///
    /// # Panics
    ///
    /// Panics on what [`Panel::check`] rejects.
    pub fn new(kind: PanelKind, transmittance: f64, ambient_reflectance: f64, white_gamma: f64) -> Self {
        let panel = Self { kind, transmittance, ambient_reflectance, white_gamma };
        if let Err(reason) = panel.check() {
            panic!("{reason}");
        }
        panel
    }

    /// Checks that `0 < transmittance ≤ 1`, `0 ≤ ambient_reflectance ≤ 1`
    /// and `white_gamma` is finite and positive. A panel decoded from
    /// outside the program skips [`Panel::new`], so it is checked here.
    ///
    /// # Errors
    ///
    /// Names the first parameter out of range.
    pub fn check(&self) -> Result<(), String> {
        let Self { transmittance, ambient_reflectance, white_gamma, .. } = *self;
        if !(transmittance > 0.0 && transmittance <= 1.0) {
            return Err(format!("transmittance {transmittance} outside (0, 1]"));
        }
        if !(0.0..=1.0).contains(&ambient_reflectance) {
            return Err(format!("ambient reflectance {ambient_reflectance} outside [0, 1]"));
        }
        if !(white_gamma.is_finite() && white_gamma > 0.0) {
            return Err(format!("white gamma {white_gamma} must be finite and positive"));
        }
        Ok(())
    }

    /// Panel construction type.
    pub fn kind(&self) -> PanelKind {
        self.kind
    }

    /// Transmittance `ρ`.
    pub fn transmittance(&self) -> f64 {
        self.transmittance
    }

    /// Fraction of ambient light reflected towards the viewer.
    pub fn ambient_reflectance(&self) -> f64 {
        self.ambient_reflectance
    }

    /// Gamma of the pixel-value response.
    pub fn white_gamma(&self) -> f64 {
        self.white_gamma
    }

    /// Perceived intensity `I = ρ · L · Y + reflected ambient`, where
    /// `backlight_luminance` (`L`) and `ambient` are relative luminances in
    /// `[0, 1]` and `white` is the displayed 8-bit gray level (`Y`).
    ///
    /// The result is a relative intensity; for a transmissive panel under
    /// zero ambient light it is exactly `ρ·L·Y^gamma`.
    pub fn perceived_intensity(&self, white: u8, backlight_luminance: f64, ambient: f64) -> f64 {
        let y = crate::transfer::panel_white_response(white, self.white_gamma);
        let transmitted = self.transmittance * backlight_luminance * y;
        let reflected = self.ambient_reflectance * ambient * y;
        transmitted + reflected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel() -> Panel {
        Panel::new(PanelKind::Transflective, 0.85, 0.12, 1.1)
    }

    #[test]
    fn perceived_intensity_zero_when_dark() {
        let p = panel();
        assert_eq!(p.perceived_intensity(0, 1.0, 1.0), 0.0);
        assert_eq!(p.perceived_intensity(255, 0.0, 0.0), 0.0);
    }

    #[test]
    fn perceived_intensity_scales_with_backlight() {
        let p = panel();
        let half = p.perceived_intensity(200, 0.5, 0.0);
        let full = p.perceived_intensity(200, 1.0, 0.0);
        assert!((full - 2.0 * half).abs() < 1e-12);
    }

    #[test]
    fn transflective_keeps_ambient_term() {
        let p = panel();
        let dark_room = p.perceived_intensity(128, 0.3, 0.0);
        let sunlight = p.perceived_intensity(128, 0.3, 1.0);
        assert!(sunlight > dark_room);
    }

    #[test]
    fn purely_transmissive_ignores_ambient() {
        let p = Panel::new(PanelKind::Transmissive, 0.9, 0.0, 1.0);
        assert_eq!(
            p.perceived_intensity(100, 0.4, 1.0),
            p.perceived_intensity(100, 0.4, 0.0)
        );
    }

    #[test]
    #[should_panic(expected = "transmittance")]
    fn rejects_bad_transmittance() {
        Panel::new(PanelKind::Reflective, 0.0, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "ambient")]
    fn rejects_bad_reflectance() {
        Panel::new(PanelKind::Reflective, 0.5, 1.5, 1.0);
    }

    #[test]
    fn check_requires_a_finite_positive_white_gamma() {
        for white_gamma in [0.0, f64::INFINITY, f64::NAN] {
            let err = Panel { white_gamma, ..panel() }.check().unwrap_err();
            assert!(err.contains("white gamma"), "{err}");
        }
    }

    #[test]
    fn getters() {
        let p = panel();
        assert_eq!(p.kind(), PanelKind::Transflective);
        assert!((p.transmittance() - 0.85).abs() < 1e-12);
        assert!((p.ambient_reflectance() - 0.12).abs() < 1e-12);
        assert!((p.white_gamma() - 1.1).abs() < 1e-12);
    }
}
