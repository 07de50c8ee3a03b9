//! Simulated power measurement for the `annolight` workspace.
//!
//! §5 of the paper measured the iPAQ's whole-device power with a PCI
//! DAQ board sampling a sense resistor at 2 K samples/sec, batteries
//! removed. The sessions here charge modelled power directly instead.
//!
//! This crate provides:
//!
//! * [`SystemPowerModel`] — a whole-device power model (CPU, WNIC, base
//!   system; the backlight term is supplied by `annolight-display`),
//!   calibrated so the backlight is 25–30 % of total streaming power as
//!   the paper states;
//! * [`EnergyMeter`] — a thread-safe accumulator used by the streaming
//!   pipeline to attribute energy to components;
//! * [`Battery`] — a capacity model that turns power into minutes of
//!   playback per charge; [`BatteryState`] tracks the charge the
//!   streaming governor derates its budget from.
//!
//! # Example
//!
//! ```
//! use annolight_power::SystemPowerModel;
//!
//! let model = SystemPowerModel::ipaq_5555();
//! // Decoding video over WiFi at full backlight:
//! let p = model.power_w(0.8, true, 0.85);
//! assert!(p > 2.0 && p < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod meter;
pub mod model;

pub use battery::{Battery, BatteryState};
pub use meter::EnergyMeter;
pub use model::SystemPowerModel;
