//! The wireless hop: a bandwidth/latency channel model.
//!
//! The paper streams over 802.11b through an access point. For energy
//! accounting we only need delivery *timing* (how long the WNIC stays in
//! receive mode) — a fluid bandwidth + fixed latency model captures that.


/// A point-to-point channel with finite bandwidth and fixed latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirelessChannel {
    /// Usable throughput, bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency, seconds.
    pub latency_s: f64,
    /// Maximum transfer unit, bytes (packetisation granularity).
    pub mtu: usize,
}

annolight_support::impl_json!(struct WirelessChannel { bandwidth_bps, latency_s, mtu });

impl WirelessChannel {
    /// A typical 802.11b link of the era: ~5 Mbit/s goodput, 4 ms one-way
    /// latency, 1500-byte MTU.
    pub fn wifi_80211b() -> Self {
        Self { bandwidth_bps: 5_000_000.0, latency_s: 0.004, mtu: 1500 }
    }

    /// Time to deliver `bytes` (serialisation + latency), seconds.
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        (bytes as f64 * 8.0) / self.bandwidth_bps + self.latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size() {
        let ch = WirelessChannel::wifi_80211b();
        assert!(ch.transfer_time_s(2000) > ch.transfer_time_s(1000));
    }

    #[test]
    fn known_transfer_time() {
        let ch = WirelessChannel { bandwidth_bps: 1_000_000.0, latency_s: 0.01, mtu: 1500 };
        // 125000 bytes = 1 Mbit → 1 s + 10 ms latency.
        assert!((ch.transfer_time_s(125_000) - 1.01).abs() < 1e-9);
    }
}
