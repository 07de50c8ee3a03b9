//! Determinism acceptance tests: driven from one thread, identical
//! request traces must produce identical hit/miss sequences,
//! and the counters report must match the observed sequence exactly.

use annolight_core::track::AnnotationMode;
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_serve::{
    AnnotationRequest, AnnotationService, ServeError, Service, ServiceConfig,
};
use annolight_video::clip::{Clip, ClipSpec, SceneSpec};
use annolight_video::content::ContentKind;
use std::sync::Arc;

fn test_clip(name: &str, seed: u64) -> Clip {
    Clip::new(ClipSpec {
        name: name.to_owned(),
        width: 48,
        height: 32,
        fps: 12.0,
        seed,
        scenes: vec![
            SceneSpec::new(
                ContentKind::Dark { base: 40, spread: 10, highlight_fraction: 0.01, highlight: 240 },
                1.0,
            ),
            SceneSpec::new(ContentKind::Bright { base: 200, spread: 20 }, 1.0),
        ],
    })
    .unwrap()
}

fn service() -> Arc<AnnotationService> {
    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 4,
        cache_bytes: 1 << 20,
        tenant_queue_depth: 8,
        ..ServiceConfig::default()
    });
    for (name, seed) in [("alpha", 11), ("beta", 22), ("gamma", 33)] {
        svc.register_clip(test_clip(name, seed));
    }
    svc
}

/// A tiny deterministic LCG for building the request trace.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn trace(seed: u64, len: usize) -> Vec<AnnotationRequest> {
    let clips = ["alpha", "beta", "gamma"];
    let devices =
        [DeviceProfile::ipaq_5555(), DeviceProfile::ipaq_3650(), DeviceProfile::zaurus_sl5600()];
    let qualities = [QualityLevel::Q5, QualityLevel::Q10, QualityLevel::Q20];
    let mut rng = Lcg(seed);
    (0..len)
        .map(|_| AnnotationRequest {
            tenant: format!("tenant-{}", rng.next(4)),
            clip: clips[rng.next(3) as usize].to_owned(),
            device: devices[rng.next(3) as usize].clone(),
            quality: qualities[rng.next(3) as usize],
            mode: if rng.next(2) == 0 { AnnotationMode::PerScene } else { AnnotationMode::PerFrame },
            policy: annolight_core::PolicyKind::PeakClip,
        })
        .collect()
}

/// Runs `reqs` through `svc`, returning the observed hit/miss sequence
/// (`true` = cache hit).
fn run_trace(svc: &Arc<AnnotationService>, reqs: &[AnnotationRequest]) -> Vec<bool> {
    reqs.iter().map(|r| svc.call(r.clone()).expect("trace requests succeed").cache_hit).collect()
}

#[test]
fn identical_traces_produce_identical_hit_miss_sequences() {
    let reqs = trace(0xDEAD_BEEF, 60);
    let a = run_trace(&service(), &reqs);
    let b = run_trace(&service(), &reqs);
    assert_eq!(a, b, "two fresh deterministic services must agree on every hit/miss");
    assert!(a.iter().any(|&h| h), "a 60-request trace over 54 keys must repeat some key");
    assert!(!a[0], "the very first request cannot be a hit");
}

#[test]
fn counters_report_matches_observed_sequence_exactly() {
    let svc = service();
    let reqs = trace(0x5EED, 40);
    let observed = run_trace(&svc, &reqs);
    let hits = observed.iter().filter(|&&h| h).count() as u64;
    let misses = observed.len() as u64 - hits;
    let report = svc.report();
    assert_eq!(report.hits, hits, "reported hits == observed hits, bit-for-bit");
    assert_eq!(report.misses, misses);
    assert_eq!(report.completed, hits + misses);
    assert_eq!(report.overloaded, 0);
    assert_eq!(report.queue_depth, 0);
    assert_eq!(report.profile_count, misses, "every miss cost exactly one profile");
    // And the report survives its own JSON round-trip.
    let json = report.to_json_string();
    assert_eq!(
        annolight_serve::CountersReport::from_json_string(&json).unwrap(),
        report
    );
}

#[test]
fn unknown_clip_is_a_typed_rejection_not_a_panic() {
    let svc = service();
    match svc.call(AnnotationRequest {
        tenant: "t".into(),
        clip: "missing".into(),
        device: DeviceProfile::ipaq_5555(),
        quality: QualityLevel::Q10,
        mode: AnnotationMode::PerScene,
        policy: annolight_core::PolicyKind::PeakClip,
    }) {
        Err(ServeError::UnknownClip(name)) => assert_eq!(name, "missing"),
        other => panic!("expected UnknownClip, got {other:?}"),
    }
}
