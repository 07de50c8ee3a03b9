//! Service lifecycle: dropping the caller's handle strands no admitted
//! ticket, because each pending ticket holds its service and drains it.
//!
//! Every wait runs on a helper thread behind a watchdog, so a ticket that
//! is never answered fails its test instead of hanging the suite.

use annolight_core::track::AnnotationMode;
use annolight_core::{PolicyKind, QualityLevel};
use annolight_display::DeviceProfile;
use annolight_serve::{AnnotationRequest, AnnotationService, ServiceConfig, Ticket};
use annolight_video::clip::{Clip, ClipSpec, SceneSpec};
use annolight_video::content::ContentKind;
use std::sync::mpsc;
use std::time::Duration;

/// How long a wait may take before the test calls it lost.
const WATCHDOG: Duration = Duration::from_secs(20);

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

/// A request made unique (uncacheable) by its custom quality, so every
/// admitted ticket stays pending until a dispatch answers it.
fn unique_request(tenant: &str, clip: &str, n: u32) -> AnnotationRequest {
    AnnotationRequest {
        tenant: tenant.to_owned(),
        clip: clip.to_owned(),
        device: DeviceProfile::ipaq_5555(),
        quality: QualityLevel::Custom(0.01 + f64::from(n) * 0.01),
        mode: AnnotationMode::PerScene,
        policy: PolicyKind::PeakClip,
    }
}

#[test]
fn dropping_the_last_handle_answers_every_admitted_ticket() {
    let svc = AnnotationService::new(ServiceConfig::default());
    svc.register_clip(test_clip("a", 7));
    svc.register_clip(test_clip("b", 8));
    let tickets: Vec<Ticket> = (0..6u32)
        .map(|n| {
            let (tenant, clip) = if n % 2 == 0 { ("even", "a") } else { ("odd", "b") };
            svc.submit(unique_request(tenant, clip, n)).expect("queues have room")
        })
        .collect();
    assert!(tickets.iter().all(|t| matches!(t, Ticket::Pending { .. })), "every request misses");
    drop(svc);

    let (tx, rx) = mpsc::channel();
    let count = tickets.len();
    for (n, ticket) in tickets.into_iter().enumerate() {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send((n, ticket.wait()));
        });
    }
    for _ in 0..count {
        let (n, reply) = rx.recv_timeout(WATCHDOG).expect("a ticket was never answered");
        let resp = reply.unwrap_or_else(|e| panic!("ticket {n}: {e}"));
        assert!(!resp.cache_hit, "ticket {n} is a unique key");
    }
}
