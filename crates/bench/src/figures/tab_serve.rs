//! Serving-at-scale table — throughput of the sharded annotation service
//! as the number of threads calling it grows, plus the cold-profile vs
//! warm-hit latency gap that makes the content-addressed cache worth its
//! memory.
//!
//! The paper's server "stores profiled clips"; `annolight-serve` turns
//! that into a multi-tenant service. This table quantifies two claims:
//!
//! 1. cold annotation (profile + plan) is orders of magnitude slower than
//!    a warm cache hit, so amortising tracks across tenants matters;
//! 2. cold work scales with the callers: the service answers each request
//!    on a calling thread, so distinct clips profile in parallel when
//!    several sessions call at once.

use crate::table::Table;
use annolight_core::track::AnnotationMode;
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_serve::{AnnotationRequest, AnnotationService, Service, ServiceConfig};
use annolight_support::par::fan_out;
use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};
use std::time::Instant;

/// One caller-count measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRow {
    /// Threads calling the service at once.
    pub callers: usize,
    /// Requests submitted (all rounds).
    pub requests: usize,
    /// Cache hits observed.
    pub hits: u64,
    /// Cold computes observed.
    pub misses: u64,
    /// Wall-clock for the whole run, microseconds.
    pub elapsed_us: f64,
    /// Requests completed per second.
    pub throughput_rps: f64,
}

annolight_support::impl_json!(struct ServeRow { callers, requests, hits, misses, elapsed_us, throughput_rps });

/// The serving-at-scale table.
#[derive(Debug, Clone, PartialEq)]
pub struct TabServe {
    /// One row per caller count.
    pub rows: Vec<ServeRow>,
    /// Mean cold (profile + annotate) latency, microseconds.
    pub cold_mean_us: f64,
    /// Mean warm (cache hit) latency, microseconds.
    pub warm_mean_us: f64,
    /// `cold_mean_us / warm_mean_us`.
    pub speedup: f64,
}

annolight_support::impl_json!(struct TabServe { rows, cold_mean_us, warm_mean_us, speedup });

/// Synthetic catalogue clip `i`: distinct seed and scene mix so every
/// clip profiles differently and no two content digests collide.
fn catalogue_clip(i: usize, seconds: f64) -> Clip {
    Clip::new(ClipSpec {
        name: format!("serve-clip-{i}"),
        width: 128,
        height: 96,
        fps: 12.0,
        seed: 0x5EED_0000 + i as u64,
        scenes: vec![
            SceneSpec::new(
                ContentKind::Dark {
                    base: 30 + (i % 5) as u8 * 8,
                    spread: 12,
                    highlight_fraction: 0.01,
                    highlight: 240,
                },
                seconds / 2.0,
            ),
            SceneSpec::new(
                ContentKind::Bright { base: 180 + (i % 4) as u8 * 10, spread: 20 },
                seconds / 2.0,
            ),
        ],
    })
    .expect("synthetic catalogue clip is well-formed")
}

fn request(clip: usize, device: &DeviceProfile) -> AnnotationRequest {
    AnnotationRequest {
        tenant: format!("tenant-{clip}"),
        clip: format!("serve-clip-{clip}"),
        device: device.clone(),
        quality: QualityLevel::Q10,
        mode: AnnotationMode::PerScene,
        policy: annolight_core::PolicyKind::PeakClip,
    }
}

/// Measures throughput for each caller count in `caller_counts` over a
/// catalogue of `n_clips` clips × the three paper devices, requested for
/// `rounds` rounds (round 1 is all-cold, later rounds all-warm), plus the
/// cold/warm latency gap with one caller.
pub fn run(caller_counts: &[usize], n_clips: usize, rounds: usize, clip_seconds: f64) -> TabServe {
    let devices = DeviceProfile::paper_devices();
    // Device-major, so concurrent callers start on distinct clips.
    let keys: Vec<(usize, &DeviceProfile)> =
        devices.iter().flat_map(|d| (0..n_clips).map(move |c| (c, d))).collect();
    let per_round = keys.len();

    let rows = caller_counts
        .iter()
        .map(|&callers| {
            let service = AnnotationService::new(ServiceConfig {
                cache_shards: 8,
                cache_bytes: 32 << 20,
                ..ServiceConfig::default()
            });
            for i in 0..n_clips {
                service.register_clip(catalogue_clip(i, clip_seconds));
            }
            let start = Instant::now();
            for _ in 0..rounds {
                // The callers split a full round between them: within a
                // round every key is distinct, so miss counts stay exact.
                fan_out(callers, &keys, |&(c, d)| {
                    service.call(request(c, d)).expect("annotation succeeds");
                });
            }
            let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
            let report = service.report();
            ServeRow {
                callers,
                requests: per_round * rounds,
                hits: report.hits,
                misses: report.misses,
                elapsed_us,
                throughput_rps: (per_round * rounds) as f64 / (elapsed_us * 1e-6),
            }
        })
        .collect();

    // Cold vs warm with one caller: first call per key is a cold
    // profile+annotate, the immediate repeat is a cache hit.
    let service = AnnotationService::new(ServiceConfig::default());
    for i in 0..n_clips {
        service.register_clip(catalogue_clip(i, clip_seconds));
    }
    let (mut cold_us, mut warm_us) = (0.0, 0.0);
    let mut samples = 0u32;
    for c in 0..n_clips {
        for d in &devices {
            let t = Instant::now();
            let cold = service.call(request(c, d)).expect("cold annotation succeeds");
            cold_us += t.elapsed().as_secs_f64() * 1e6;
            assert!(!cold.cache_hit, "first call per key must be cold");
            let t = Instant::now();
            let warm = service.call(request(c, d)).expect("warm annotation succeeds");
            warm_us += t.elapsed().as_secs_f64() * 1e6;
            assert!(warm.cache_hit, "repeat call per key must hit");
            samples += 1;
        }
    }
    let cold_mean_us = cold_us / f64::from(samples);
    let warm_mean_us = warm_us / f64::from(samples);
    TabServe { rows, cold_mean_us, warm_mean_us, speedup: cold_mean_us / warm_mean_us.max(1e-3) }
}

/// Renders the table as text.
pub fn render(t: &TabServe) -> String {
    let mut out = String::new();
    out.push_str("Annotation service throughput vs caller threads\n\n");
    let mut tbl = Table::new(["callers", "requests", "hits", "misses", "elapsed (ms)", "req/s"]);
    for r in &t.rows {
        tbl.row([
            r.callers.to_string(),
            r.requests.to_string(),
            r.hits.to_string(),
            r.misses.to_string(),
            format!("{:.2}", r.elapsed_us / 1e3),
            format!("{:.0}", r.throughput_rps),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\ncold profile+annotate: {:.1} us mean   warm cache hit: {:.2} us mean   speedup: {:.0}x\n",
        t.cold_mean_us, t.warm_mean_us, t.speedup
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> &'static TabServe {
        static T: std::sync::OnceLock<TabServe> = std::sync::OnceLock::new();
        T.get_or_init(|| run(&[1, 2, 4], 6, 2, 2.0))
    }

    #[test]
    fn warm_hits_are_at_least_10x_faster_than_cold_profiles() {
        let t = quick();
        assert!(
            t.speedup >= 10.0,
            "warm hit should be >=10x faster: cold {:.1} us, warm {:.2} us",
            t.cold_mean_us,
            t.warm_mean_us
        );
    }

    #[test]
    fn every_row_completes_all_requests_with_exact_counts() {
        let t = quick();
        for r in &t.rows {
            assert_eq!(r.requests, 6 * 3 * 2);
            // Round 1: every (clip, device) key is cold. Round 2: all warm.
            assert_eq!(r.misses, 6 * 3, "callers={}", r.callers);
            assert_eq!(r.hits, 6 * 3, "callers={}", r.callers);
            assert!(r.throughput_rps > 0.0);
        }
    }

    #[test]
    fn more_callers_do_not_lose_throughput() {
        // A single-round, all-cold run isolates the parallelisable work.
        // On a single-core machine wall-clock speedup is impossible, so
        // only bound the threading overhead there; on multicore demand
        // parity or better. Either way take the best of three attempts —
        // the test harness runs other tests concurrently.
        let cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let floor = if cores >= 2 { 0.9 } else { 0.5 };
        let mut best = 0.0f64;
        let mut seen = Vec::new();
        for _ in 0..3 {
            let t = run(&[1, 4], 8, 1, 3.0);
            let ratio = t.rows[1].throughput_rps / t.rows[0].throughput_rps;
            seen.push(ratio);
            best = best.max(ratio);
            if best >= 1.0 {
                break;
            }
        }
        assert!(
            best >= floor,
            "4 callers persistently slower than 1 (cores={cores}): throughput ratios {seen:?}"
        );
    }

    #[test]
    fn json_roundtrip() {
        let t = run(&[1], 2, 1, 1.0);
        let json = annolight_support::json::to_string_pretty(&t);
        let back: TabServe = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
