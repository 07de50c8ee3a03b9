//! A multi-tenant annotation service under concurrent load.
//!
//! The paper's Fig. 1 server "stores profiled clips" so that annotation
//! cost is paid once and amortised across every client. This example
//! runs that tier at small scale: one shared [`AnnotationService`] and
//! eight client threads spread across the three paper device classes,
//! each requesting clips at its own quality point. The service starts no
//! thread of its own: each request is profiled and planned on a client
//! thread that waits for it. The service content-addresses the tracks,
//! so the first request per `(clip, device, quality, mode)` key profiles
//! and plans; every later one is a cache hit. At the end we print the
//! counters report — the same JSON the ops side would scrape.
//!
//! ```text
//! cargo run --release --example annotation_service
//! ```

use annolight::core::track::AnnotationMode;
use annolight::core::QualityLevel;
use annolight::display::DeviceProfile;
use annolight::serve::{AnnotationRequest, AnnotationService, Service, ServiceConfig};
use annolight::video::ClipLibrary;
use std::sync::Arc;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;

fn main() {
    // One service for the whole server tier: 8 cache shards.
    let service = AnnotationService::new(ServiceConfig {
        cache_shards: 8,
        cache_bytes: 8 << 20,
        tenant_queue_depth: 32,
        ..ServiceConfig::default()
    });

    // The catalogue: four of the paper's clips, profiled on demand.
    let clips = ["themovie", "spiderman2", "ice_age", "catwoman"];
    for name in clips {
        let clip = ClipLibrary::paper_clip(name).expect("library clip").preview(6.0);
        let digest = service.register_clip(clip);
        println!("registered {name:<12} digest {digest:016x}");
    }

    let devices =
        [DeviceProfile::ipaq_5555(), DeviceProfile::ipaq_3650(), DeviceProfile::zaurus_sl5600()];
    let qualities = [QualityLevel::Q5, QualityLevel::Q10, QualityLevel::Q15, QualityLevel::Q20];

    // Eight clients hammer the service concurrently. Each is its own
    // tenant (its own bounded admission queue).
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let device = devices[c % devices.len()].clone();
            std::thread::spawn(move || {
                let mut hits = 0u32;
                for r in 0..REQUESTS_PER_CLIENT {
                    let req = AnnotationRequest {
                        tenant: format!("client-{c}"),
                        clip: clips[(c + r) % clips.len()].to_owned(),
                        device: device.clone(),
                        quality: qualities[r % qualities.len()],
                        mode: AnnotationMode::PerScene,
                        policy: annolight_core::PolicyKind::PeakClip,
                    };
                    let resp = service.call(req).expect("catalogue clips annotate");
                    hits += u32::from(resp.cache_hit);
                }
                (c, device, hits)
            })
        })
        .collect();

    println!();
    for h in handles {
        let (c, device, hits) = h.join().expect("client thread");
        println!(
            "client-{c} ({:<22}) {REQUESTS_PER_CLIENT} requests, {hits} cache hits",
            device.name()
        );
    }

    // The ops view: everything the service counted, as JSON.
    let report = service.report();
    println!(
        "\nservice totals: {} completed  {} hits / {} misses  ({} clip profiles, {:.0} us mean cold latency)",
        report.completed,
        report.hits,
        report.misses,
        report.clip_profiles,
        report.profile_latency_mean_us,
    );
    println!("\ncounters report:\n{}", report.to_json_string());
}
