//! # annolight-core — the DATE 2006 contribution
//!
//! Annotation-driven LCD backlight scaling for multimedia streaming
//! (Cornea, Nicolau, Dutt — *Software Annotations for Power Optimization on
//! Mobile Devices*, DATE 2006).
//!
//! The pipeline implemented here matches §4 of the paper:
//!
//! 1. **Profile** ([`profile`]) — analyse the stream offline (at the server
//!    or proxy): per-frame maximum luminance and luminance histograms.
//! 2. **Detect scenes** ([`scenes`]) — group frames into scenes using the
//!    paper's heuristic: a ≥10 % change in frame maximum luminance is a
//!    scene change, but no more often than a guard interval.
//! 3. **Plan** ([`plan`]) — per scene, pick the *effective* maximum
//!    luminance allowed by the user's [`QualityLevel`] (the brightest
//!    0/5/10/15/20 % of pixels may clip), derive the compensation factor
//!    `k = L/L'` and invert the device's backlight→luminance transfer to
//!    get the backlight level.
//! 4. **Annotate** ([`track`], [`annotate`]) — attach the per-scene
//!    backlight levels to the stream as an RLE-compressed annotation track
//!    ("hundreds of bytes for clips of a few megabytes").
//! 5. **Apply** ([`apply`]) — server/proxy side: compensate the frames;
//!    client side: a multiplication and a table look-up per scene change.
//!
//! # Example
//!
//! ```
//! use annolight_core::{Annotator, QualityLevel};
//! use annolight_display::DeviceProfile;
//! use annolight_video::ClipLibrary;
//!
//! let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(8.0);
//! let device = DeviceProfile::ipaq_5555();
//! let annotator = Annotator::new(device.clone(), QualityLevel::Q10);
//! let annotated = annotator.annotate_clip(&clip).unwrap();
//!
//! // The annotation track is tiny relative to the stream it describes...
//! assert!(annotated.track().to_rle_bytes().len() < 1000);
//! // ...and predicts a real backlight power saving on dark content.
//! assert!(annotated.predicted_backlight_savings(&device) > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod apply;
pub mod delta;
pub mod digest;
pub mod error;
pub mod extensions;
pub mod governor;
pub mod online;
pub mod parallel;
pub mod plan;
pub mod policy;
pub mod profile;
pub mod quality;
pub mod scenes;
pub mod track;

pub use annotate::{AnnotatedClip, Annotator};
pub use delta::{AnnotationDelta, DeltaStatus, DeltaTracker};
pub use apply::{apply_annotation, client_side_levels, compensate_frame, Compensation};
pub use digest::clip_digest;
pub use error::CoreError;
pub use governor::{
    fit_knob, trace_digest, GovernorAction, GovernorControl, GovernorDecision, GovernorEvent,
    GovernorFeedback, KnobSearch, QualityGovernor, ThermalModel, ThermalState,
};
pub use online::OnlineAnnotator;
pub use parallel::{
    chunk_ranges, chunked_map, compensate_frames_batched, profile_frames_batched, ParallelConfig,
};
pub use plan::{plan_levels_ambient, BacklightPlan, ScenePlan};
pub use policy::{
    hebs_levels, AnnotationPolicy, HebsRemapSet, PolicyKind, ResolutionCost, ResolutionDecision,
    SPATIAL_MARGIN,
};
pub use profile::{FrameStats, LuminanceProfile};
pub use quality::QualityLevel;
pub use scenes::{SceneDetector, SceneDetectorConfig, SceneSpan};
pub use track::{AnnotationEntry, AnnotationMode, AnnotationTrack};
