//! Bounded soak test: 64 simulated tenants hammer a service from
//! [`THREADS`] caller threads with a fixed-seed request trace. Run by
//! `scripts/ci.sh` via `cargo test -q -p annolight-serve --release -- soak`.
//!
//! The assertions are conservation laws, valid under any thread
//! interleaving: every accepted request completes, every rejection is
//! counted, and `hits + misses == completed`.

use annolight_core::track::AnnotationMode;
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_serve::workload::{generate_trace, ScenarioKind, SyntheticCorpus, WorkloadConfig};
use annolight_serve::{
    AnnotationRequest, AnnotationService, ServeError, Service, ServiceConfig, Ticket,
};
use annolight_support::par::fan_out;
use annolight_video::clip::{Clip, ClipSpec, SceneSpec};
use annolight_video::content::ContentKind;
use std::collections::HashMap;
use std::sync::Arc;

const TENANTS: u64 = 64;
const REQUESTS: usize = 600;
const SEED: u64 = 0xA550_11FE_DCBA_0042;
/// Caller threads in the threaded soaks.
const THREADS: usize = 4;

fn soak_clip(name: &str, seed: u64) -> Clip {
    Clip::new(ClipSpec {
        name: name.to_owned(),
        width: 48,
        height: 32,
        fps: 12.0,
        seed,
        scenes: vec![
            SceneSpec::new(
                ContentKind::Dark { base: 40, spread: 12, highlight_fraction: 0.01, highlight: 240 },
                1.0,
            ),
            SceneSpec::new(ContentKind::Bright { base: 190, spread: 25 }, 1.0),
        ],
    })
    .unwrap()
}

struct Lcg(u64);
impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Submits `requests` from [`THREADS`] threads: thread `k` submits every
/// `THREADS`-th request from `k` on, in order, then waits on the tickets
/// it got, so one thread's waits drain the queues while another still
/// submits. Returns `(request index, admitted)` sorted by index; every
/// admitted request has completed, every other one was `Overloaded`.
fn submit_from_threads(
    svc: &Arc<AnnotationService>,
    requests: &[AnnotationRequest],
) -> Vec<(usize, bool)> {
    let per_thread = fan_out(THREADS, 0..THREADS, |k| {
        let mut outcomes = Vec::new();
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        for i in (k..requests.len()).step_by(THREADS) {
            match svc.submit(requests[i].clone()) {
                Ok(t) => tickets.push((i, t)),
                Err(ServeError::Overloaded { .. }) => outcomes.push((i, false)),
                Err(other) => panic!("soak must only see Overloaded, got {other}"),
            }
        }
        for (i, t) in tickets {
            let resp = t.wait().expect("every accepted request completes");
            assert!(resp.track.frame_count() > 0);
            outcomes.push((i, true));
        }
        outcomes
    });
    let mut outcomes: Vec<(usize, bool)> = per_thread.into_iter().flatten().collect();
    outcomes.sort_unstable();
    outcomes
}

#[test]
fn soak_64_tenants_fixed_seed() {
    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 8,
        cache_bytes: 1 << 22,
        tenant_queue_depth: 4,
        ..ServiceConfig::default()
    });
    let clips = ["soak-a", "soak-b", "soak-c", "soak-d"];
    for (i, name) in clips.iter().enumerate() {
        svc.register_clip(soak_clip(name, 100 + i as u64));
    }
    let devices =
        [DeviceProfile::ipaq_5555(), DeviceProfile::ipaq_3650(), DeviceProfile::zaurus_sl5600()];
    let qualities = [QualityLevel::Q5, QualityLevel::Q10, QualityLevel::Q15, QualityLevel::Q20];

    let mut rng = Lcg(SEED);
    let requests: Vec<AnnotationRequest> = (0..REQUESTS)
        .map(|_| AnnotationRequest {
            tenant: format!("tenant-{:02}", rng.next(TENANTS)),
            clip: clips[rng.next(4) as usize].to_owned(),
            device: devices[rng.next(3) as usize].clone(),
            quality: qualities[rng.next(4) as usize],
            mode: if rng.next(4) == 0 {
                AnnotationMode::PerFrame
            } else {
                AnnotationMode::PerScene
            },
            policy: annolight_core::PolicyKind::PeakClip,
        })
        .collect();
    let outcomes = submit_from_threads(&svc, &requests);
    let accepted = outcomes.iter().filter(|(_, admitted)| *admitted).count() as u64;
    let rejected = outcomes.iter().filter(|(_, admitted)| !admitted).count() as u64;
    let report = svc.report();
    assert_eq!(accepted + rejected, REQUESTS as u64, "every request accounted for");
    assert_eq!(report.completed, accepted, "every accepted request completed");
    assert_eq!(report.hits + report.misses, report.completed, "hit/miss conservation");
    assert_eq!(report.overloaded, rejected);
    assert_eq!(report.queue_depth, 0, "nothing left queued after drain");
    // 96 distinct keys exist (4 clips x 3 devices x 4 qualities x 2
    // modes); concurrent dispatches of the same cold key may each miss,
    // so allow modest overshoot but not unbounded recomputation.
    assert!(report.misses >= 1, "a fresh cache must miss");
    assert!(report.misses <= 96 * 4, "misses explode past the keyspace: {}", report.misses);
    assert_eq!(report.profile_count, report.misses, "every miss times exactly one profile");
    assert!(
        report.clip_profiles <= clips.len() as u64,
        "single-flight memo must profile each clip at most once, got {}",
        report.clip_profiles
    );
    assert!(report.resident_entries > 0);
    // The report must serialise and round-trip even at soak scale.
    let back =
        annolight_serve::CountersReport::from_json_string(&report.to_json_string()).unwrap();
    assert_eq!(back, report);
}

/// A small churned workload trace (arriving/departing tenants, skewed
/// per-tenant demand) shared by the churn soaks below.
fn churned_config() -> WorkloadConfig {
    let mut cfg = WorkloadConfig::scenario_small(ScenarioKind::FlashCrowd, SEED);
    cfg.corpus_clips = 96;
    cfg.ticks = 12;
    cfg.base_rate = 30.0;
    cfg
}

/// Threaded churn soak: tenants that arrive mid-run are served, tenants
/// that depart never strand work, and the conservation laws of the
/// fixed-fleet soak keep holding under churn and [`THREADS`] callers.
#[test]
fn churned_soak_conserves_under_threads() {
    let cfg = churned_config();
    let trace = generate_trace(&cfg);
    // Churn must be visible in the trace: at least one request comes
    // from a tenant that arrived after the initial fleet formed.
    assert!(
        trace.requests.iter().any(|r| r.tenant >= cfg.churn.initial as u64),
        "trace must include requests from arriving tenants"
    );

    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 8,
        cache_bytes: 1 << 22,
        tenant_queue_depth: 4,
        ..ServiceConfig::default()
    });
    let corpus = SyntheticCorpus::new(cfg.corpus_clips);
    corpus.register_all(&svc);
    let devices = DeviceProfile::paper_devices();

    let requests: Vec<AnnotationRequest> = trace
        .requests
        .iter()
        .map(|req| AnnotationRequest {
            tenant: req.tenant_name(),
            clip: corpus.name(req.clip_rank),
            device: devices[req.device].clone(),
            quality: req.quality,
            mode: if req.per_frame { AnnotationMode::PerFrame } else { AnnotationMode::PerScene },
            policy: annolight_core::PolicyKind::PeakClip,
        })
        .collect();
    let outcomes = submit_from_threads(&svc, &requests);
    let mut rejected = 0u64;
    let mut accepted_per_tenant: HashMap<u64, u64> = HashMap::new();
    for &(i, admitted) in &outcomes {
        if admitted {
            *accepted_per_tenant.entry(trace.requests[i].tenant).or_default() += 1;
        } else {
            rejected += 1;
        }
    }
    let accepted = accepted_per_tenant.values().sum::<u64>();
    let report = svc.report();
    assert_eq!(accepted + rejected, trace.requests.len() as u64);
    assert_eq!(report.completed, accepted);
    assert_eq!(report.hits + report.misses, report.completed, "hit/miss conservation");
    assert_eq!(report.overloaded, rejected);
    assert_eq!(report.queue_depth, 0, "departed tenants must not strand queued work");
    // Fairness under churn: late arrivals (ids past the initial fleet)
    // are genuinely served, not starved by the incumbent hot tenants.
    let late_served = accepted_per_tenant
        .iter()
        .filter(|(&id, &n)| id >= cfg.churn.initial as u64 && n > 0)
        .count();
    assert!(late_served > 0, "no arriving tenant ever got a request through");
}

/// No counter drift: replaying the *same request multiset* without its
/// churn structure (tenants collapsed onto a fixed fleet, one request
/// drained at a time so queues never overflow) must land on identical
/// hit/miss/profile totals — tenant identity and churn may shift *who*
/// waits, never *what* is computed.
#[test]
fn churned_counters_match_churn_free_replay_of_same_multiset() {
    let cfg = churned_config();
    let trace = generate_trace(&cfg);
    let devices = DeviceProfile::paper_devices();
    let corpus = SyntheticCorpus::new(cfg.corpus_clips);

    let run = |tenant_of: &dyn Fn(usize, u64) -> String| {
        let svc = AnnotationService::new(ServiceConfig {
            tenant_queue_depth: usize::MAX >> 1,
            ..ServiceConfig::default()
        });
        corpus.register_all(&svc);
        for (i, req) in trace.requests.iter().enumerate() {
            svc.call(AnnotationRequest {
                tenant: tenant_of(i, req.tenant),
                clip: corpus.name(req.clip_rank),
                device: devices[req.device].clone(),
                quality: req.quality,
                mode: if req.per_frame {
                    AnnotationMode::PerFrame
                } else {
                    AnnotationMode::PerScene
                },
                policy: annolight_core::PolicyKind::PeakClip,
            })
            .expect("unbounded-queue replay never rejects");
        }
        let r = svc.report();
        (r.hits, r.misses, r.completed, r.profile_count, r.clip_profiles)
    };

    let churned = run(&|_, tenant| format!("t{tenant:04}"));
    let churn_free = run(&|i, _| format!("static-{:02}", i % 64));
    assert_eq!(
        churned, churn_free,
        "collapsing churned tenants onto a fixed fleet drifted the counters"
    );
}
