//! Fairness acceptance tests: a flooding tenant only ever hurts itself.
//! Its overflow is rejected with [`ServeError::Overloaded`], while a
//! trickling tenant is admitted and served every time.

use annolight_core::track::AnnotationMode;
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_serve::{
    AnnotationRequest, AnnotationService, ServeError, Service, ServiceConfig, Ticket, MAX_TENANTS,
};
use annolight_support::par::fan_out;
use annolight_video::clip::{Clip, ClipSpec, SceneSpec};
use annolight_video::content::ContentKind;

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

/// A request made unique (uncacheable) by a custom quality fraction, so
/// every admitted job really occupies its tenant's queue.
fn unique_request(tenant: &str, clip: &str, n: u32) -> AnnotationRequest {
    AnnotationRequest {
        tenant: tenant.to_owned(),
        clip: clip.to_owned(),
        device: DeviceProfile::ipaq_5555(),
        quality: QualityLevel::Custom(0.01 + f64::from(n % 400) * 0.002),
        mode: AnnotationMode::PerScene,
        policy: annolight_core::PolicyKind::PeakClip,
    }
}

#[test]
fn flooding_tenant_rejections_never_touch_trickler() {
    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 4,
        cache_bytes: 1 << 22,
        tenant_queue_depth: 4,
        ..ServiceConfig::default()
    });
    svc.register_clip(test_clip("flood-clip", 77));
    svc.register_clip(test_clip("trickle-clip", 88));

    // The flooder and the trickler run on threads of their own, ten
    // rounds each, and each one's waits drain both tenants' queues.
    let flood = || {
        let mut rejected = 0u32;
        for round in 0..10 {
            // The flooder slams 20 requests, then waits on those admitted.
            let mut tickets: Vec<Ticket> = Vec::new();
            for i in 0..20 {
                match svc.submit(unique_request("flooder", "flood-clip", round * 20 + i)) {
                    Ok(t) => tickets.push(t),
                    Err(ServeError::Overloaded { tenant }) => {
                        assert_eq!(tenant, "flooder", "only the flooder may be rejected");
                        rejected += 1;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            for t in tickets {
                t.wait().expect("admitted flood requests still complete");
            }
        }
        rejected
    };
    let trickle = || {
        // The trickler asks once per round and must always be admitted:
        // its own queue is empty.
        let mut served = 0u32;
        for round in 0..10 {
            let ticket = svc
                .submit(unique_request("trickler", "trickle-clip", 1000 + round))
                .unwrap_or_else(|e| panic!("trickler rejected in round {round}: {e}"));
            ticket.wait().expect("trickler request completes");
            served += 1;
        }
        served
    };
    let tenants: [&(dyn Fn() -> u32 + Sync); 2] = [&flood, &trickle];
    let counts = fan_out(2, tenants, |tenant| tenant());
    let (flood_rejected, trickle_served) = (counts[0], counts[1]);
    assert_eq!(trickle_served, 10, "trickler served every round");
    let report = svc.report();
    assert_eq!(report.overloaded, u64::from(flood_rejected));
    assert_eq!(report.queue_depth, 0, "everything drains");
}

#[test]
fn queue_bound_overflow_is_exact_in_deterministic_mode() {
    // Nothing drains until a caller waits, so admission arithmetic is
    // exact: depth 4 admits 4 of 20, rejects 16 — every round,
    // bit-for-bit.
    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 4,
        cache_bytes: 1 << 22,
        tenant_queue_depth: 4,
        ..ServiceConfig::default()
    });
    svc.register_clip(test_clip("flood-clip", 77));
    svc.register_clip(test_clip("trickle-clip", 88));
    let mut n = 0u32;
    for round in 0..3u32 {
        let mut admitted = Vec::new();
        let mut rejected = 0u32;
        for _ in 0..20 {
            n += 1;
            match svc.submit(unique_request("flooder", "flood-clip", n)) {
                Ok(t) => admitted.push(t),
                Err(ServeError::Overloaded { tenant }) => {
                    assert_eq!(tenant, "flooder");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!((admitted.len(), rejected), (4, 16), "round {round}");
        // The flooder's full queue does not block the trickler.
        let t = svc.submit(unique_request("trickler", "trickle-clip", 500 + round)).unwrap();
        svc.run_until_idle();
        t.wait().unwrap();
        for a in admitted {
            a.wait().unwrap();
        }
    }
    assert_eq!(svc.report().overloaded, 48);
}

#[test]
fn retrying_flooder_cannot_starve_trickler() {
    // Regression: the blessed Overloaded response is to retry through
    // `call_with_retry` (RetryPolicy::service). A flooder that does so
    // must still not starve a trickling tenant — backoff only ever
    // reschedules the flooder's *own* work.
    use annolight_support::retry::RetryPolicy;
    use annolight_support::rng::SmallRng;

    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 4,
        cache_bytes: 1 << 22,
        tenant_queue_depth: 2,
        ..ServiceConfig::default()
    });
    svc.register_clip(test_clip("flood-clip", 77));
    svc.register_clip(test_clip("trickle-clip", 88));

    let mut rng = SmallRng::stream(0xFA17, 6);
    let policy = RetryPolicy::service();
    let mut n = 0u32;
    let mut flood_served = 0u32;
    let mut flood_backoff_s = 0.0f64;
    for round in 0..5u32 {
        // Fill the flooder's queue to its bound without draining, then
        // push one more through with retry: the first attempt is
        // rejected, the backoff window drains the queue, the retry lands.
        let mut held = Vec::new();
        for _ in 0..2 {
            n += 1;
            held.push(svc.submit(unique_request("flooder", "flood-clip", n)).unwrap());
        }
        n += 1;
        let (_resp, backoff) = svc
            .call_with_retry(unique_request("flooder", "flood-clip", n), &policy, &mut rng)
            .unwrap_or_else(|e| panic!("flooder retry exhausted in round {round}: {e}"));
        assert!(backoff > 0.0, "round {round}: the retry path actually fired");
        flood_backoff_s += backoff;
        for t in held {
            t.wait().unwrap_or_else(|e| panic!("queued flood job failed: {e}"));
        }
        flood_served += 3;
        // The trickler's bare call is admitted first time, no retries:
        // its queue is independent of the flooder's backlog and backoff.
        let resp = svc
            .call(unique_request("trickler", "trickle-clip", 1000 + round))
            .unwrap_or_else(|e| panic!("trickler rejected in round {round}: {e}"));
        assert!(!resp.cache_hit, "each trickle request is unique");
    }
    assert_eq!(flood_served, 15, "every flood request eventually lands");
    let report = svc.report();
    assert_eq!(report.queue_depth, 0, "everything drains");
    assert_eq!(
        report.completed,
        u64::from(flood_served) + 5,
        "all flood + trickle jobs completed"
    );
    assert_eq!(report.overloaded, 5, "exactly one rejection per round, all flooder's");
    assert!(flood_backoff_s > 0.0, "backoff time was accounted (got {flood_backoff_s})");
}

#[test]
fn round_robin_interleaves_two_queued_tenants() {
    // Queue both tenants' jobs first, then drain and check the
    // service's round-robin alternated between them.
    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: 2,
        cache_bytes: 1 << 22,
        tenant_queue_depth: 16,
        ..ServiceConfig::default()
    });
    svc.register_clip(test_clip("a", 1));
    let mut tickets = Vec::new();
    for i in 0..4u32 {
        tickets.push(("even", svc.submit(unique_request("even", "a", i * 2)).unwrap()));
        tickets.push(("odd", svc.submit(unique_request("odd", "a", i * 2 + 1)).unwrap()));
    }
    assert_eq!(svc.queue_depth(), 8);
    svc.run_until_idle();
    assert_eq!(svc.queue_depth(), 0);
    for (tenant, t) in tickets {
        let resp = t.wait().unwrap_or_else(|e| panic!("{tenant} job failed: {e}"));
        assert!(!resp.cache_hit, "all 8 requests are unique qualities");
    }
    assert_eq!(svc.report().misses, 8);
}

#[test]
fn a_tenant_past_the_cap_is_rejected_and_counted() {
    // Tenant queues are never reclaimed, so distinct names are capped:
    // name MAX_TENANTS + 1 is rejected, while a tenant that already has
    // a queue is still admitted.
    let svc = AnnotationService::new(ServiceConfig::default());
    svc.register_clip(test_clip("a", 1));
    let mut tickets: Vec<Ticket> = (0..MAX_TENANTS)
        .map(|t| svc.submit(unique_request(&format!("t{t}"), "a", 0)).expect("under the cap"))
        .collect();
    let err = svc.submit(unique_request("one-too-many", "a", 0)).unwrap_err();
    assert_eq!(err, ServeError::Overloaded { tenant: "one-too-many".into() });
    tickets.push(svc.submit(unique_request("t0", "a", 1)).expect("a known tenant is admitted"));
    for t in tickets {
        t.wait().expect("admitted requests complete");
    }
    let report = svc.report();
    assert_eq!((report.overloaded, report.completed), (1, MAX_TENANTS as u64 + 1));
    // A cache hit needs no queue, so a new name is still answered.
    let hit = svc.call(unique_request("one-too-many", "a", 0)).expect("hits bypass the queues");
    assert!(hit.cache_hit);
}
