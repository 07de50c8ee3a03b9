//! Device profiles for the three PDAs characterised in §5.
//!
//! "Three devices with different LCD technology were used in our
//! experiments: iPAQ 3650 and Zaurus SL-5600 (reflective display, CCFL
//! backlight) and iPAQ 5555 (transflective display, LED backlight). …
//! Each display technology showed a different transfer characteristic."
//!
//! The transfer-curve shapes and power figures are calibrated from the
//! qualitative descriptions in the paper (LED: simpler drive, lower power,
//! faster response; backlight ≈ 25–30 % of total device power), not from
//! proprietary datasheets; see `DESIGN.md` §2 for the substitution note.

use crate::panel::{Panel, PanelKind};
use crate::power::BacklightPowerModel;
use crate::transfer::TransferFunction;

/// Backlight lamp technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BacklightTechnology {
    /// Cold-cathode fluorescent lamp: needs a high-voltage AC inverter,
    /// suited to larger panels, poor efficiency at low drive levels.
    Ccfl,
    /// White LED: simple drive circuitry, lower power, fast response.
    WhiteLed,
}

annolight_support::impl_json!(enum BacklightTechnology { Ccfl, WhiteLed });

/// A complete display subsystem description for one handheld device.
///
/// This is what the client sends to the server during the negotiation phase
/// (§4.3) so annotations can be tailored to the device; alternatively the
/// client keeps it and performs the final "multiplication + table look-up"
/// locally.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    panel: Panel,
    technology: BacklightTechnology,
    transfer: TransferFunction,
    backlight_power: BacklightPowerModel,
    /// Native display resolution (width, height).
    resolution: (u32, u32),
}

annolight_support::impl_json!(struct DeviceProfile { name, panel, technology, transfer, backlight_power, resolution });

impl DeviceProfile {
    /// Creates a custom device profile.
    ///
    /// # Panics
    ///
    /// Panics on what [`DeviceProfile::check`] rejects.
    pub fn new(
        name: impl Into<String>,
        panel: Panel,
        technology: BacklightTechnology,
        transfer: TransferFunction,
        backlight_power: BacklightPowerModel,
        resolution: (u32, u32),
    ) -> Self {
        let profile =
            Self { name: name.into(), panel, technology, transfer, backlight_power, resolution };
        if let Err(reason) = profile.check() {
            panic!("{reason}");
        }
        profile
    }

    /// Checks the panel, the transfer function and the power model
    /// ([`Panel::check`], [`TransferFunction::check`],
    /// [`BacklightPowerModel::check`]). A profile decoded from outside the
    /// program, such as the one a client's hello carries, skips their
    /// constructors, so it is checked here.
    ///
    /// # Errors
    ///
    /// The first part's reason.
    pub fn check(&self) -> Result<(), String> {
        self.panel.check()?;
        self.transfer.check()?;
        self.backlight_power.check()
    }

    /// The HP iPAQ 5555 (400 MHz XScale, 64K-colour transflective TFT,
    /// white-LED backlight) — the device the paper instruments for power
    /// measurements. LED backlights saturate towards full drive, so the
    /// transfer is concave (`SaturatingExp`).
    pub fn ipaq_5555() -> Self {
        Self::new(
            "ipaq-5555",
            Panel::new(PanelKind::Transflective, 0.85, 0.12, 1.08),
            BacklightTechnology::WhiteLed,
            TransferFunction::SaturatingExp { a: 1.3 },
            BacklightPowerModel::new(0.10, 0.85),
            (240, 320),
        )
    }

    /// The Compaq iPAQ 3650 (reflective TFT with CCFL frontlight). CCFL
    /// output collapses at low drive levels, giving a convex transfer.
    pub fn ipaq_3650() -> Self {
        Self::new(
            "ipaq-3650",
            Panel::new(PanelKind::Reflective, 0.70, 0.25, 1.15),
            BacklightTechnology::Ccfl,
            TransferFunction::Gamma { gamma: 1.55 },
            BacklightPowerModel::new(0.12, 1.10),
            (240, 320),
        )
    }

    /// The Sharp Zaurus SL-5600 (reflective TFT with CCFL frontlight, a
    /// slightly newer lamp than the iPAQ 3650's).
    pub fn zaurus_sl5600() -> Self {
        Self::new(
            "zaurus-sl5600",
            Panel::new(PanelKind::Reflective, 0.72, 0.22, 1.12),
            BacklightTechnology::Ccfl,
            TransferFunction::Gamma { gamma: 1.35 },
            BacklightPowerModel::new(0.10, 1.00),
            (240, 320),
        )
    }

    /// All three paper devices, iPAQ 5555 first.
    pub fn paper_devices() -> Vec<DeviceProfile> {
        vec![Self::ipaq_5555(), Self::ipaq_3650(), Self::zaurus_sl5600()]
    }

    /// Looks a paper device up by its stable name (`ipaq-5555`,
    /// `ipaq-3650`, `zaurus-sl5600`).
    ///
    /// ```
    /// use annolight_display::DeviceProfile;
    /// assert!(DeviceProfile::by_name("zaurus-sl5600").is_some());
    /// assert!(DeviceProfile::by_name("nokia-770").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<DeviceProfile> {
        Self::paper_devices().into_iter().find(|d| d.name() == name)
    }

    /// Device name (stable identifier used in annotations and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The panel model.
    pub fn panel(&self) -> &Panel {
        &self.panel
    }

    /// Backlight lamp technology.
    pub fn technology(&self) -> BacklightTechnology {
        self.technology
    }

    /// The backlight→luminance transfer function.
    pub fn transfer(&self) -> TransferFunction {
        self.transfer
    }

    /// The backlight power model.
    pub fn backlight_power(&self) -> &BacklightPowerModel {
        &self.backlight_power
    }

    /// Native resolution (width, height).
    pub fn resolution(&self) -> (u32, u32) {
        self.resolution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::BacklightLevel;

    #[test]
    fn paper_devices_pass_their_checks() {
        for d in DeviceProfile::paper_devices() {
            assert_eq!(d.check(), Ok(()), "{}", d.name());
        }
    }

    #[test]
    fn paper_devices_have_distinct_transfer_curves() {
        let devs = DeviceProfile::paper_devices();
        assert_eq!(devs.len(), 3);
        let mid = BacklightLevel(128);
        let lums: Vec<f64> = devs.iter().map(|d| d.transfer().luminance(mid)).collect();
        // All distinct ("each display technology showed a different
        // transfer characteristic").
        assert!((lums[0] - lums[1]).abs() > 0.01);
        assert!((lums[1] - lums[2]).abs() > 0.01);
    }

    #[test]
    fn led_device_uses_led_technology() {
        assert_eq!(DeviceProfile::ipaq_5555().technology(), BacklightTechnology::WhiteLed);
        assert_eq!(DeviceProfile::ipaq_3650().technology(), BacklightTechnology::Ccfl);
    }

    #[test]
    fn led_backlight_is_lowest_power() {
        let led = DeviceProfile::ipaq_5555();
        let ccfl = DeviceProfile::ipaq_3650();
        assert!(led.backlight_power().max_w() < ccfl.backlight_power().max_w());
    }

    #[test]
    fn names_are_unique() {
        let devs = DeviceProfile::paper_devices();
        let mut names: Vec<&str> = devs.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn by_name_finds_all_paper_devices() {
        for d in DeviceProfile::paper_devices() {
            assert_eq!(DeviceProfile::by_name(d.name()).as_ref(), Some(&d));
        }
        assert!(DeviceProfile::by_name("").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let dev = DeviceProfile::ipaq_5555();
        let json = annolight_support::json::to_string(&dev);
        let back: DeviceProfile = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(dev, back);
    }

    #[test]
    fn resolution_is_qvga() {
        assert_eq!(DeviceProfile::ipaq_5555().resolution(), (240, 320));
    }
}
