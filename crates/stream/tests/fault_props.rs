//! Property tests for the fault-injected channel: statistical behaviour
//! matches the configured model, structural invariants hold for
//! arbitrary configurations, and the zero-fault path is bit-identical
//! to the lossless [`WirelessChannel`] timing.

use annolight_stream::faults::retry::RetryPolicy;
use annolight_stream::{FaultConfig, FaultyChannel, WirelessChannel};

annolight_support::check! {
    /// The observed drop rate converges to the configured independent
    /// drop probability (no bursts, so drops are i.i.d. Bernoulli).
    fn drop_rate_converges(g, cases = 24) {
        let drop_p: f64 = f64::from(g.draw(0u32..400)) / 1000.0; // 0..0.4
        let seed = g.any::<u64>();
        let cfg = FaultConfig { drop_p, ..FaultConfig::lossless(seed) };
        let mut ch = FaultyChannel::new(WirelessChannel::wifi_80211b(), cfg);
        let n = 3000u64;
        for _ in 0..n {
            ch.send(1200);
        }
        let observed = ch.stats().dropped as f64 / n as f64;
        // 4 sigma of a Bernoulli(p) mean over n samples, floored for p≈0.
        let sigma = (drop_p * (1.0 - drop_p) / n as f64).sqrt();
        let tol = (4.0 * sigma).max(0.005);
        assert!(
            (observed - drop_p).abs() <= tol,
            "drop rate {observed:.4} vs configured {drop_p:.4} (tol {tol:.4}, seed {seed:#x})"
        );
    }

    /// Gilbert–Elliott burst lengths are geometric with mean 1/exit_p.
    fn burst_lengths_match_gilbert_elliott(g, cases = 16) {
        let exit_p: f64 = 0.2 + f64::from(g.draw(0u32..600)) / 1000.0; // 0.2..0.8
        let seed = g.any::<u64>();
        let cfg = FaultConfig {
            burst_enter_p: 0.05,
            burst_exit_p: exit_p,
            burst_drop_p: 1.0,
            ..FaultConfig::lossless(seed)
        };
        let mut ch = FaultyChannel::new(WirelessChannel::wifi_80211b(), cfg);
        let (mut bursts, mut current, mut lengths) = (0u64, 0u64, Vec::new());
        for _ in 0..20_000 {
            ch.send(1200);
            if ch.in_burst() {
                current += 1;
            } else if current > 0 {
                bursts += 1;
                lengths.push(current);
                current = 0;
            }
        }
        if bursts < 20 {
            return; // not enough bursts at this seed to estimate a mean
        }
        let mean = lengths.iter().sum::<u64>() as f64 / bursts as f64;
        let expected = 1.0 / exit_p;
        assert!(
            mean > expected * 0.5 && mean < expected * 2.0,
            "mean burst {mean:.2} vs expected {expected:.2} over {bursts} bursts (seed {seed:#x})"
        );
    }

    /// Reorder displacement never exceeds the configured window, and
    /// displaced packets still arrive after their send time.
    fn reorder_displacement_is_bounded(g, cases = 32) {
        let window = g.draw(1u32..8);
        let reorder_p = 0.1 + f64::from(g.draw(0u32..400)) / 1000.0;
        let seed = g.any::<u64>();
        let cfg = FaultConfig {
            reorder_p,
            reorder_window: window,
            ..FaultConfig::lossless(seed)
        };
        let mut ch = FaultyChannel::new(WirelessChannel::wifi_80211b(), cfg);
        let mut saw_displacement = false;
        for _ in 0..500 {
            let d = ch.send(1200);
            assert!(d.displaced <= window, "displacement {} > window {window}", d.displaced);
            if d.displaced > 0 {
                saw_displacement = true;
                let a = d.arrival_s.expect("reordered packets still arrive");
                assert!(a > d.sent_s, "arrival {a} before send {}", d.sent_s);
            }
        }
        assert!(saw_displacement, "reorder_p {reorder_p} produced no displacement in 500 packets");
    }

    /// With every fault disabled the channel is the lossless link: for an
    /// arbitrary packet-size trace, each arrival equals
    /// `WirelessChannel::transfer_time_s(cumulative bytes)` *bit for bit*.
    fn zero_fault_trace_is_bit_identical(g, cases = 32) {
        let seed = g.any::<u64>();
        let link = WirelessChannel::wifi_80211b();
        let mut ch = FaultyChannel::new(link, FaultConfig::lossless(seed));
        let mut cumulative = 0usize;
        let n = g.draw(1usize..40);
        for _ in 0..n {
            let bytes = g.draw(1usize..4000);
            cumulative += bytes;
            let d = ch.send(bytes);
            assert_eq!(d.displaced, 0);
            assert_eq!(d.duplicate_arrival_s, None);
            // Exact equality, not approximate: the fault layer must add
            // literally nothing to the baseline timing model.
            assert_eq!(d.arrival_s, Some(link.transfer_time_s(cumulative)));
        }
        let s = ch.stats();
        assert_eq!((s.dropped, s.duplicated, s.reordered, s.burst_packets), (0, 0, 0, 0));
    }

    /// The reactor's non-blocking `try_deliver` is byte-identical to the
    /// explicit send-then-retransmit sequence: same copies in the same
    /// order, same channel statistics, for arbitrary fault mixes, packet
    /// traces, and retry policies.
    fn try_deliver_matches_blocking_sequence(g, cases = 24) {
        let seed = g.any::<u64>();
        let cfg = FaultConfig {
            drop_p: f64::from(g.draw(0u32..300)) / 1000.0,
            dup_p: f64::from(g.draw(0u32..150)) / 1000.0,
            reorder_p: f64::from(g.draw(0u32..150)) / 1000.0,
            reorder_window: g.draw(1u32..5),
            jitter_s: f64::from(g.draw(0u32..3000)) / 1_000_000.0,
            burst_enter_p: f64::from(g.draw(0u32..50)) / 1000.0,
            burst_exit_p: 0.3,
            burst_drop_p: 0.8,
            ..FaultConfig::lossless(seed)
        };
        let link = WirelessChannel::wifi_80211b();
        let mut nonblocking = FaultyChannel::new(link, cfg);
        let mut blocking = FaultyChannel::new(link, cfg);
        let n = g.draw(50usize..400);
        for i in 0..n {
            let bytes = 40 + (i * 53) % 1400;
            let reliable = i % 3 == 0;
            let policy = if reliable {
                RetryPolicy::reliable()
            } else {
                RetryPolicy::annotation().with_deadline(0.05)
            };
            let got = nonblocking.try_deliver(bytes, |_| Some(policy));

            // By hand: send, and on loss retransmit.
            let fate = blocking.send(bytes);
            let mut want = Vec::new();
            match fate.arrival_s {
                Some(a) => {
                    want.push(a);
                    want.extend(fate.duplicate_arrival_s);
                }
                None => {
                    let out = blocking.retransmit(bytes, &policy, fate.sent_s);
                    want.extend(out.delivered_s);
                }
            }
            assert_eq!(got.sent_s.to_bits(), fate.sent_s.to_bits(), "packet {i} send clock");
            assert_eq!(got.lost_first, fate.arrival_s.is_none(), "packet {i} loss fate");
            assert_eq!(
                got.copies.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
                "packet {i} copies diverged (seed {seed:#x})"
            );
        }
        assert_eq!(nonblocking.stats(), blocking.stats(), "stats diverged (seed {seed:#x})");
        assert_eq!(nonblocking.clock_s().to_bits(), blocking.clock_s().to_bits());
    }

    /// Identical configuration => identical per-packet fates, even with
    /// every fault class enabled at an arbitrary seed.
    fn same_config_same_fates(g, cases = 16) {
        let seed = g.any::<u64>();
        let cfg = FaultConfig {
            drop_p: 0.1,
            dup_p: 0.05,
            reorder_p: 0.05,
            reorder_window: 3,
            jitter_s: 0.002,
            burst_enter_p: 0.02,
            burst_exit_p: 0.3,
            burst_drop_p: 0.5,
            ..FaultConfig::lossless(seed)
        };
        let mut a = FaultyChannel::new(WirelessChannel::wifi_80211b(), cfg);
        let mut b = FaultyChannel::new(WirelessChannel::wifi_80211b(), cfg);
        for i in 0..200usize {
            let bytes = 100 + (i * 37) % 1400;
            assert_eq!(a.send(bytes), b.send(bytes), "packet {i} diverged (seed {seed:#x})");
        }
        assert_eq!(a.stats(), b.stats());
    }
}
