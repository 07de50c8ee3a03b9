//! Battery model: turning power savings into battery life.
//!
//! The paper's motivation is battery life ("battery life still remains a
//! major limitation of portable devices"); this module converts the
//! measured power numbers into the quantity a user feels — minutes of
//! playback per charge. The iPAQ 5555 ships a 1250 mAh / 3.7 V Li-ion
//! pack.


/// A simple energy-capacity battery model with a usable-fraction derating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Rated capacity, milliamp-hours.
    pub capacity_mah: f64,
    /// Nominal pack voltage, volts.
    pub voltage_v: f64,
    /// Fraction of the rated capacity usable before shutdown, `(0, 1]`.
    pub usable_fraction: f64,
}

annolight_support::impl_json!(struct Battery { capacity_mah, voltage_v, usable_fraction });

impl Battery {
    /// The iPAQ 5555's stock pack: 1250 mAh Li-ion at 3.7 V, ~92 % usable
    /// before the low-voltage cutoff.
    pub fn ipaq_5555() -> Self {
        Self { capacity_mah: 1250.0, voltage_v: 3.7, usable_fraction: 0.92 }
    }

    /// Creates a battery model.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are positive and
    /// `usable_fraction ≤ 1`.
    pub fn new(capacity_mah: f64, voltage_v: f64, usable_fraction: f64) -> Self {
        assert!(capacity_mah > 0.0, "capacity {capacity_mah} must be positive");
        assert!(voltage_v > 0.0, "voltage {voltage_v} must be positive");
        assert!(
            usable_fraction > 0.0 && usable_fraction <= 1.0,
            "usable fraction {usable_fraction} outside (0, 1]"
        );
        Self { capacity_mah, voltage_v, usable_fraction }
    }

    /// Usable energy, joules.
    pub fn usable_energy_j(&self) -> f64 {
        self.capacity_mah / 1000.0 * 3600.0 * self.voltage_v * self.usable_fraction
    }

    /// Continuous runtime at a constant draw, seconds.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive power draw.
    pub fn runtime_s(&self, power_w: f64) -> f64 {
        assert!(power_w > 0.0, "power draw {power_w} must be positive");
        self.usable_energy_j() / power_w
    }
}

/// Live charge state: the quantity the closed-loop quality governor
/// reads at every per-scene decision point.
///
/// Wraps a [`Battery`] with a running joule drain, clamped at empty —
/// draining can never go negative, and a session budget is always
/// derated to what the pack can actually deliver
/// ([`BatteryState::budget_clamp_j`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryState {
    battery: Battery,
    remaining_j: f64,
}

impl BatteryState {
    /// A fully charged pack.
    #[must_use]
    pub fn full(battery: Battery) -> Self {
        Self { remaining_j: battery.usable_energy_j(), battery }
    }

    /// A pack at `fraction` of its usable energy (clamped to `[0, 1]`).
    #[must_use]
    pub fn at_fraction(battery: Battery, fraction: f64) -> Self {
        let f = fraction.clamp(0.0, 1.0);
        Self { remaining_j: battery.usable_energy_j() * f, battery }
    }

    /// The underlying pack model.
    #[must_use]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Usable energy remaining, joules.
    #[must_use]
    pub fn remaining_j(&self) -> f64 {
        self.remaining_j
    }

    /// Remaining charge as a fraction of the pack's usable energy.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.remaining_j / self.battery.usable_energy_j()
    }

    /// Whether the pack is exhausted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining_j <= 0.0
    }

    /// Drains `energy_j` joules, clamped at empty; returns the energy
    /// actually delivered.
    ///
    /// # Panics
    ///
    /// Panics for a negative drain (charging is not modelled).
    pub fn drain_j(&mut self, energy_j: f64) -> f64 {
        assert!(energy_j >= 0.0, "drain {energy_j} must be non-negative");
        let delivered = energy_j.min(self.remaining_j);
        self.remaining_j -= delivered;
        delivered
    }

    /// Derates a session joule budget to what the pack can deliver:
    /// `max(0, min(budget, remaining))`. This is the governor's budget
    /// at every decision point — a budget larger than the charge (or a
    /// negative one) never over-promises.
    #[must_use]
    pub fn budget_clamp_j(&self, budget_j: f64) -> f64 {
        budget_j.min(self.remaining_j).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_pack_energy_is_plausible() {
        // 1250 mAh · 3.7 V ≈ 16.6 kJ; ~92% usable ≈ 15.3 kJ.
        let e = Battery::ipaq_5555().usable_energy_j();
        assert!((15_000.0..16_000.0).contains(&e), "{e} J");
    }

    #[test]
    fn runtime_at_streaming_power() {
        // ~3.2 W streaming: a bit over an hour — matches period reviews
        // of WiFi video playback on the hardware class.
        let rt = Battery::ipaq_5555().runtime_s(3.2);
        assert!((3500.0..6000.0).contains(&rt), "{rt} s");
    }

    #[test]
    fn runtime_monotone_in_power() {
        let b = Battery::ipaq_5555();
        assert!(b.runtime_s(2.0) > b.runtime_s(3.0));
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_bad_usable_fraction() {
        Battery::new(1000.0, 3.7, 1.5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_power() {
        Battery::ipaq_5555().runtime_s(0.0);
    }

    // --- Golden values at the governor's decision points ---------------
    //
    // The closed-loop governor reads `BatteryState` every scene; these
    // pin the exact numbers it sees, including the usable-fraction
    // derating edge cases.

    /// 1250 mAh · 3.7 V · 0.92 usable = 1.25 · 3600 · 3.7 · 0.92 J.
    const IPAQ_USABLE_J: f64 = 15318.0;

    #[test]
    fn golden_ipaq_usable_energy_is_exact() {
        assert_eq!(Battery::ipaq_5555().usable_energy_j(), IPAQ_USABLE_J);
        assert_eq!(BatteryState::full(Battery::ipaq_5555()).remaining_j(), IPAQ_USABLE_J);
    }

    #[test]
    fn golden_fractional_charge_and_drain() {
        let mut s = BatteryState::at_fraction(Battery::ipaq_5555(), 0.5);
        assert_eq!(s.remaining_j(), 7659.0);
        assert_eq!(s.fraction(), 0.5);
        assert_eq!(s.drain_j(659.0), 659.0);
        assert_eq!(s.remaining_j(), 7000.0);
    }

    #[test]
    fn golden_empty_battery_clamps_everything_to_zero() {
        let mut s = BatteryState::at_fraction(Battery::ipaq_5555(), 0.0);
        assert!(s.is_empty());
        assert_eq!(s.remaining_j(), 0.0);
        // A governor budget against an empty pack is exactly zero...
        assert_eq!(s.budget_clamp_j(100.0), 0.0);
        // ...and draining delivers nothing rather than going negative.
        assert_eq!(s.drain_j(10.0), 0.0);
        assert_eq!(s.remaining_j(), 0.0);
    }

    #[test]
    fn golden_budget_larger_than_capacity_derates_to_the_pack() {
        let s = BatteryState::full(Battery::ipaq_5555());
        assert_eq!(s.budget_clamp_j(1.0e9), IPAQ_USABLE_J);
        assert_eq!(s.budget_clamp_j(-5.0), 0.0);
        assert_eq!(s.budget_clamp_j(1000.0), 1000.0);
    }

    #[test]
    fn golden_overdrain_delivers_only_the_charge() {
        let mut s = BatteryState::at_fraction(Battery::ipaq_5555(), 0.001);
        let charge = s.remaining_j();
        assert_eq!(s.drain_j(1.0e6), charge);
        assert!(s.is_empty());
    }

    #[test]
    fn golden_zero_length_clip_projects_zero_drain() {
        let mut s = BatteryState::full(Battery::ipaq_5555());
        // A zero-length clip projects zero energy: no drain, state
        // untouched.
        assert_eq!(s.drain_j(0.0), 0.0);
        assert_eq!(s.remaining_j(), IPAQ_USABLE_J);
        assert_eq!(s.fraction(), 1.0);
    }

    #[test]
    fn fraction_is_clamped_and_runtime_tracks_charge() {
        let s = BatteryState::at_fraction(Battery::ipaq_5555(), 1.7);
        assert_eq!(s.fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn rejects_negative_drain() {
        BatteryState::full(Battery::ipaq_5555()).drain_j(-1.0);
    }
}
