//! # annolight
//!
//! A full reproduction of *"Software Annotations for Power Optimization on
//! Mobile Devices"* (Cornea, Nicolau, Dutt — DATE 2006): annotation-driven
//! LCD backlight scaling for multimedia streaming, together with every
//! substrate the paper's evaluation depends on.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`imgproc`] | `annolight-imgproc` | pixels, luminance, histograms, compensation |
//! | [`video`] | `annolight-video` | synthetic clip library (the 10 paper clips) |
//! | [`codec`] | `annolight-codec` | MPEG-1-flavoured codec + annotation side-channel |
//! | [`display`] | `annolight-display` | LCD/backlight device models (iPAQ, Zaurus) |
//! | [`camera`] | `annolight-camera` | digital-camera quality validation (Fig. 2) |
//! | [`power`] | `annolight-power` | whole-device power model, energy meter, battery |
//! | [`core`] | `annolight-core` | **the paper's contribution**: profiling, scene detection, annotation, backlight planning |
//! | [`stream`] | `annolight-stream` | server → proxy → client session model (Fig. 1) |
//! | [`serve`] | `annolight-serve` | multi-tenant annotation service: sharded cache, admission control, run on its callers' threads |
//!
//! # Quickstart
//!
//! ```
//! use annolight::core::{Annotator, QualityLevel};
//! use annolight::display::DeviceProfile;
//! use annolight::video::ClipLibrary;
//!
//! // 1. Pick a clip and a device.
//! let clip = ClipLibrary::paper_clip("themovie").expect("known clip");
//! let device = DeviceProfile::ipaq_5555();
//!
//! // 2. Profile + annotate at a 10% quality level (server side).
//! let annotator = Annotator::new(device.clone(), QualityLevel::Q10);
//! let annotated = annotator.annotate_clip(&clip.preview(60.0)).expect("annotation");
//!
//! // 3. Inspect predicted savings (client side applies the track).
//! let savings = annotated.predicted_backlight_savings(&device);
//! assert!(savings > 0.0 && savings < 1.0);
//! ```

pub mod cli;

pub use annolight_camera as camera;
pub use annolight_codec as codec;
pub use annolight_core as core;
pub use annolight_display as display;
pub use annolight_imgproc as imgproc;
pub use annolight_power as power;
pub use annolight_serve as serve;
pub use annolight_stream as stream;
pub use annolight_video as video;
