//! # annolight-serve — the annotation service tier
//!
//! The paper's deployment model (Fig. 1) performs profiling and
//! annotation **away from the battery**: at a streaming server or a
//! proxy, where one expensive pass over a clip is amortised across
//! every thin client that later plays it. This crate is that tier as a
//! real subsystem rather than an inline call:
//!
//! | module | role |
//! |---|---|
//! | [`cache`] | sharded, content-addressed LRU cache of [`AnnotationTrack`](annolight_core::AnnotationTrack) sidecars with a byte budget |
//! | [`service`] | admission/backpressure front-end: bounded per-tenant queues, a cap on distinct tenants, round-robin fairness, typed [`ServeError::Overloaded`]; queued jobs are answered on the threads that wait for them |
//! | [`counters`] | hit/miss/overload counters + profile-latency histogram (exact-quantile reservoir mode), exported as JSON |
//! | [`workload`] | trace-driven planetary workload model (Zipf popularity, diurnal/flash-crowd curves, tenant churn) + SLO replay harness |
//!
//! Everything is hermetic: the only dependencies are sibling workspace
//! crates. The service keeps no thread: a pending [`Ticket`] drains the
//! queues on the thread that waits on it, and is answered on an
//! [`annolight_support::channel`]. Only a clip's one profile scan fans
//! out, through `support::par`'s scoped fan-out, over the host's cores.
//!
//! ## Example
//!
//! ```
//! use annolight_serve::{AnnotationRequest, AnnotationService, Service, ServiceConfig};
//! use annolight_core::{track::AnnotationMode, QualityLevel};
//! use annolight_display::DeviceProfile;
//! use annolight_video::ClipLibrary;
//!
//! let svc = AnnotationService::new(ServiceConfig::default());
//! svc.register_clip(ClipLibrary::paper_clip("shrek2").unwrap().preview(2.0));
//! let req = AnnotationRequest {
//!     tenant: "handheld-0".into(),
//!     clip: "shrek2".into(),
//!     device: DeviceProfile::ipaq_5555(),
//!     quality: QualityLevel::Q10,
//!     mode: AnnotationMode::PerScene,
//!     policy: annolight_core::PolicyKind::PeakClip,
//! };
//! let cold = svc.call(req.clone()).unwrap();
//! let warm = svc.call(req).unwrap();
//! assert!(!cold.cache_hit);
//! assert!(warm.cache_hit);
//! assert_eq!(svc.report().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod counters;
pub mod service;
pub mod workload;

pub use cache::{AnnotationCache, CacheKey, CacheStats};
pub use counters::{Counters, CountersReport, Exactness, LatencyHistogram};
pub use service::{
    AnnotationRequest, AnnotationResponse, AnnotationService, ServeError, Service, ServiceConfig,
    Ticket, MAX_TENANTS,
};
pub use workload::{
    generate_trace, replay_trace, run_scenario, ChurnConfig, DeterministicSummary, DiurnalCurve,
    FlashCrowd, ReplayConfig, ScenarioKind, ScenarioReport, SloThresholds, SyntheticCorpus,
    TraceRequest, WorkloadConfig, WorkloadTrace, ZipfSampler,
};
