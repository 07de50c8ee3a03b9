//! The media server.
//!
//! "The server stores media content and streams videos to clients upon
//! user requests." Our server stores *clips* (synthetic sources) and
//! serves per-request streams: annotated for the negotiated device and
//! quality, frames compensated server-side, and the RLE annotation track
//! embedded as a user-data packet ahead of the pictures.
//!
//! The expensive work — profiling and annotation — is delegated to an
//! [`AnnotationService`] ([`annolight_serve`]): a sharded,
//! content-addressed cache in front of fair, bounded admission, run on
//! its callers' threads. A server created with [`MediaServer::new`] owns
//! a private service; servers created with [`MediaServer::with_service`]
//! share one service (and therefore one cache) with other servers and
//! proxies, which is how one profile pass is amortised across every
//! client of the same content. Serving fails with the service's own
//! [`ServeError`].
//!
//! A served clip's closed GOPs fan out over the host's cores
//! ([`available_workers`]): each GOP job renders, compensates, converts
//! and codes its own frames, and the packets land in GOP order, so the
//! stream is the same bytes on any host.

use crate::message::{grant_quality, ClientHello, ServerOffer};
use annolight_codec::{CodecError, Encoder, EncoderConfig, FrameSource};
use annolight_core::track::AnnotationTrack;
use annolight_core::{Compensation, PolicyKind, QualityLevel};
use annolight_display::DeviceProfile;
use annolight_imgproc::{Frame, Yuv420Frame};
use annolight_serve::{AnnotationRequest, AnnotationService, ServeError, Service, ServiceConfig};
use annolight_support::par::{available_workers, ParallelConfig};
use annolight_video::Clip;
use annolight_core::track::AnnotationMode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A client's request, as negotiated at session start (§4.3: "client
/// characteristics are sent during the initial negotiation phase").
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Which clip to stream.
    pub clip_name: String,
    /// The client's device profile.
    pub device: DeviceProfile,
    /// The user-selected quality level.
    pub quality: QualityLevel,
    /// Per-scene or per-frame annotation.
    pub mode: AnnotationMode,
    /// Also embed per-scene DVFS hints (§3's frequency/voltage-scaling
    /// application of annotations).
    pub dvfs: bool,
    /// The annotation-policy backend to plan (and compensate) with.
    pub policy: PolicyKind,
}

impl ServeRequest {
    /// A request with the defaults (per-scene mode, no DVFS hints,
    /// peak-clip policy).
    pub fn new(clip_name: impl Into<String>, device: DeviceProfile, quality: QualityLevel) -> Self {
        Self {
            clip_name: clip_name.into(),
            device,
            quality,
            mode: AnnotationMode::PerScene,
            dvfs: false,
            policy: PolicyKind::PeakClip,
        }
    }

    /// Enables DVFS hint embedding.
    pub fn with_dvfs(mut self) -> Self {
        self.dvfs = true;
        self
    }

    /// Selects the annotation mode.
    pub fn with_mode(mut self, mode: AnnotationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the annotation-policy backend.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

/// The outcome of serving: the encoded stream plus server-side metadata.
#[derive(Debug, Clone)]
pub struct ServedStream {
    /// The encoded, annotated, compensated stream.
    pub stream: annolight_codec::EncodedStream,
    /// The annotation track the service returned (shared with its cache).
    pub track: Arc<AnnotationTrack>,
    /// Whether the track came from the service's cache (no profiling).
    pub cache_hit: bool,
    /// Size of the embedded annotation track, bytes.
    pub annotation_bytes: usize,
    /// Total pixels clipped by server-side compensation.
    pub clipped_pixels: u64,
    /// Total pixels processed by server-side compensation.
    pub total_pixels: u64,
}

/// The multimedia server of Fig. 1.
#[derive(Debug)]
pub struct MediaServer {
    clips: HashMap<String, Clip>,
    service: Arc<AnnotationService>,
    encoder_template: EncoderConfig,
}

impl MediaServer {
    /// Creates an empty server with the given encoder settings (dimensions
    /// are taken per clip; fps/gop/qscale from the template) and a private
    /// [`AnnotationService`].
    pub fn new(encoder_template: EncoderConfig) -> Self {
        Self::with_service(encoder_template, AnnotationService::new(ServiceConfig::default()))
    }

    /// Creates a server backed by a shared annotation service: several
    /// servers (and proxies) pointed at the same service share one
    /// content-addressed track cache and one profile memo.
    pub fn with_service(encoder_template: EncoderConfig, service: Arc<AnnotationService>) -> Self {
        Self { clips: HashMap::new(), service, encoder_template }
    }

    /// The backing annotation service (e.g. for counter reports).
    pub fn service(&self) -> &Arc<AnnotationService> {
        &self.service
    }

    /// Adds a clip to the catalogue, registering it with the annotation
    /// service and profiling it eagerly ("the video clips available for
    /// streaming at the servers are first profiled").
    ///
    /// # Panics
    ///
    /// Panics if the clip has no frames (library clips never do).
    pub fn add_clip(&mut self, clip: Clip) {
        let name = clip.name().to_owned();
        self.service.register_clip(clip.clone());
        self.service.profile_for(&name).expect("clips have at least one frame");
        self.clips.insert(name, clip);
    }

    /// Names of the stored clips (unordered).
    pub fn catalogue(&self) -> Vec<&str> {
        self.clips.keys().map(String::as_str).collect()
    }

    /// Answers a [`ClientHello`] with this server's offer: the paper's
    /// quality ladder, the granted (closest, never-exceeding) quality and
    /// the stream geometry. Unknown clip names are a *typed* negotiation
    /// failure — the session layer forwards them to the client instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownClip`] if the clip is not stored.
    pub fn negotiate(&self, hello: &ClientHello) -> Result<ServerOffer, ServeError> {
        let clip = self
            .clips
            .get(&hello.clip_name)
            .ok_or_else(|| ServeError::UnknownClip(hello.clip_name.clone()))?;
        let (w, h) = clip.dimensions();
        Ok(ServerOffer {
            offered_qualities: QualityLevel::PAPER_LEVELS.to_vec(),
            granted_quality: grant_quality(&QualityLevel::PAPER_LEVELS, hello.quality),
            width: w,
            height: h,
            fps: clip.fps(),
            // Coarse upper-bound estimate for client buffering: the
            // codec's worst case is near one byte per subsampled pixel.
            stream_bytes: u64::from(clip.frame_count()) * u64::from(w) * u64::from(h) * 3 / 2,
        })
    }

    /// Serves a request: obtain the annotation track from the service
    /// (cache hit or freshly profiled), compensate every
    /// frame, encode, and embed the track as user data *before* the
    /// pictures. The clip's closed GOPs fan out over
    /// [`available_workers`] threads.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownClip`] for an unknown name,
    /// [`ServeError::Overloaded`] when the service sheds load, and
    /// [`ServeError::Internal`] for annotation/encode failures.
    pub fn serve(&self, req: &ServeRequest) -> Result<ServedStream, ServeError> {
        self.serve_with(req, available_workers())
    }

    /// [`MediaServer::serve`] with its closed GOPs fanned out over
    /// `workers` threads; every count serves the same bytes.
    pub(crate) fn serve_with(
        &self,
        req: &ServeRequest,
        workers: usize,
    ) -> Result<ServedStream, ServeError> {
        let clip = self
            .clips
            .get(&req.clip_name)
            .ok_or_else(|| ServeError::UnknownClip(req.clip_name.clone()))?;

        // The fairness domain is the requesting device class: every
        // device model shares one queue at the service.
        let response = self.service.call(AnnotationRequest {
            tenant: req.device.name().to_owned(),
            clip: req.clip_name.clone(),
            device: req.device.clone(),
            quality: req.quality,
            mode: req.mode,
            policy: req.policy,
        })?;
        let track = response.track;
        let track_bytes = track.to_rle_bytes();

        let (w, h) = clip.dimensions();
        let mut enc = Encoder::new(EncoderConfig {
            width: w,
            height: h,
            fps: clip.fps(),
            ..self.encoder_template
        })
        .map_err(|e| ServeError::Internal(e.to_string()))?
        .with_parallelism(ParallelConfig::with_workers(workers));
        enc.push_user_data(&track_bytes);
        // DVFS hints and HEBS remaps need the luminance profile; the
        // service memoises it, so this is a lookup, not a re-profile.
        let profile = self.service.profile_for(&req.clip_name)?;
        if req.dvfs {
            let hints = annolight_core::extensions::dvfs_hints(&profile, &track.spans());
            enc.push_user_data(&annolight_core::extensions::hints_to_bytes(&hints));
        }

        let compensation = Compensation::new(&track, req.policy, &profile);
        let (clipped, total) = (AtomicU64::new(0), AtomicU64::new(0));
        enc.push_frames_from(clip.frame_count() as usize, || ServedFrames {
            clip,
            compensation: &compensation,
            rgb: Frame::new(w, h),
            yuv: Yuv420Frame::new(w, h).expect("the encoder accepted these dimensions"),
            clipped: &clipped,
            total: &total,
        })
        .map_err(|Internal(e)| ServeError::Internal(e))?;
        Ok(ServedStream {
            stream: enc.finish(),
            annotation_bytes: track_bytes.len(),
            track,
            cache_hit: response.cache_hit,
            clipped_pixels: clipped.into_inner(),
            total_pixels: total.into_inner(),
        })
    }
}

/// A serve job's frames: each rendered into one reused frame, compensated
/// and converted to 4:2:0, with the clipping statistics summed into
/// counters the request's jobs share (a sum, so job order cannot move it).
struct ServedFrames<'a> {
    clip: &'a Clip,
    compensation: &'a Compensation<'a>,
    rgb: Frame,
    yuv: Yuv420Frame,
    clipped: &'a AtomicU64,
    total: &'a AtomicU64,
}

/// A failure while serving a frame, reported as [`ServeError::Internal`].
struct Internal(String);

impl From<CodecError> for Internal {
    fn from(e: CodecError) -> Self {
        Self(e.to_string())
    }
}

impl FrameSource for ServedFrames<'_> {
    type Error = Internal;

    fn frame(&mut self, i: usize) -> Result<&Yuv420Frame, Internal> {
        let i = i as u32;
        self.clip.frame_into(i, &mut self.rgb);
        let stats = self.compensation.apply(&mut self.rgb, i).map_err(|e| Internal(e.to_string()))?;
        self.clipped.fetch_add(stats.clipped_pixels, Ordering::Relaxed);
        self.total.fetch_add(stats.total_pixels, Ordering::Relaxed);
        self.rgb.to_yuv420_into(&mut self.yuv).map_err(|e| Internal(e.to_string()))?;
        Ok(&self.yuv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_codec::Decoder;
    use annolight_video::ClipLibrary;

    fn server_with(name: &str, seconds: f64) -> (MediaServer, String) {
        let clip = ClipLibrary::paper_clip(name).unwrap().preview(seconds);
        let mut server = MediaServer::new(EncoderConfig::default());
        server.add_clip(clip);
        (server, name.to_owned())
    }

    fn request(clip: &str) -> ServeRequest {
        ServeRequest {
            clip_name: clip.into(),
            device: DeviceProfile::ipaq_5555(),
            quality: QualityLevel::Q10,
            mode: AnnotationMode::PerScene,
            dvfs: false,
            policy: PolicyKind::PeakClip,
        }
    }

    #[test]
    fn unknown_clip_is_error() {
        let (server, _) = server_with("themovie", 2.0);
        let err = server.serve(&request("nope")).unwrap_err();
        assert_eq!(err, ServeError::UnknownClip("nope".into()));
    }

    #[test]
    fn served_stream_contains_track_before_pictures() {
        let (server, name) = server_with("themovie", 3.0);
        let served = server.serve(&request(&name)).unwrap();
        let dec = Decoder::new(&served.stream).unwrap();
        assert_eq!(dec.user_data().len(), 1);
        let track = AnnotationTrack::from_rle_bytes(&dec.user_data()[0]).unwrap();
        assert_eq!(track.frame_count(), served.stream.frame_count());
        assert_eq!(track.device_name(), "ipaq-5555");
    }

    #[test]
    fn compensation_respects_quality_budget() {
        // The budget is defined over pixel *luminance*; compensation
        // saturates individual RGB channels, and a colored pixel's maximum
        // channel sits slightly above its luminance — the paper's "pixels
        // become saturated and clipping occurs or colors change". The
        // channel-level clip count may therefore exceed the luminance
        // budget by a small epsilon, never by much.
        let (server, name) = server_with("themovie", 4.0);
        let served = server.serve(&request(&name)).unwrap();
        let frac = served.clipped_pixels as f64 / served.total_pixels as f64;
        assert!(frac <= 0.10 + 0.02, "clipped fraction {frac}");
        assert!(served.total_pixels > 0);
    }

    #[test]
    fn annotation_overhead_is_tiny() {
        let (server, name) = server_with("catwoman", 6.0);
        let served = server.serve(&request(&name)).unwrap();
        assert!(
            served.annotation_bytes * 100 < served.stream.len(),
            "annotation {} vs stream {}",
            served.annotation_bytes,
            served.stream.len()
        );
    }

    #[test]
    fn lossless_quality_barely_clips() {
        // Q0 admits no *luminance* clipping; the only saturation left is
        // the channel-vs-luminance epsilon on colored pixels (see
        // `compensation_respects_quality_budget`), well under 1 %.
        let (server, name) = server_with("i_robot", 3.0);
        let req = ServeRequest { quality: QualityLevel::Q0, ..request(&name) };
        let served = server.serve(&req).unwrap();
        let frac = served.clipped_pixels as f64 / served.total_pixels as f64;
        assert!(frac < 0.01, "lossless clipped fraction {frac}");
    }

    #[test]
    fn catalogue_lists_clips() {
        let (server, name) = server_with("shrek2", 2.0);
        assert_eq!(server.catalogue(), vec![name.as_str()]);
    }

    #[test]
    fn repeat_serves_hit_the_annotation_cache() {
        let (server, name) = server_with("themovie", 2.0);
        let cold = server.serve(&request(&name)).unwrap();
        let warm = server.serve(&request(&name)).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(Arc::ptr_eq(&cold.track, &warm.track), "one resident track serves both");
        let report = server.service().report();
        assert_eq!((report.hits, report.misses), (1, 1));
    }

    #[test]
    fn shared_service_amortises_across_servers() {
        let service = AnnotationService::new(ServiceConfig::default());
        let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(2.0);
        let mut a = MediaServer::with_service(EncoderConfig::default(), Arc::clone(&service));
        let mut b = MediaServer::with_service(EncoderConfig::default(), Arc::clone(&service));
        a.add_clip(clip.clone());
        b.add_clip(clip); // same bytes => same content digest
        let first = a.serve(&request("officexp")).unwrap();
        let second = b.serve(&request("officexp")).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit, "server B reuses server A's profiling work");
        assert_eq!(service.report().misses, 1);
    }

    #[test]
    fn negotiate_offers_paper_ladder_and_typed_unknown_clip() {
        let (server, name) = server_with("themovie", 2.0);
        let hello = ClientHello::new(
            name.clone(),
            DeviceProfile::ipaq_5555(),
            QualityLevel::Custom(0.12),
            AnnotationMode::PerScene,
        );
        let offer = server.negotiate(&hello).unwrap();
        assert_eq!(offer.granted_quality, QualityLevel::Q10);
        assert_eq!(offer.offered_qualities, QualityLevel::PAPER_LEVELS.to_vec());
        assert!(offer.width > 0 && offer.fps > 0.0 && offer.stream_bytes > 0);

        let bad = ClientHello::new(
            "missing",
            DeviceProfile::ipaq_5555(),
            QualityLevel::Q10,
            AnnotationMode::PerScene,
        );
        assert_eq!(
            server.negotiate(&bad).unwrap_err(),
            ServeError::UnknownClip("missing".into())
        );
    }

    #[test]
    fn hebs_policy_plans_darker_and_stays_within_budget() {
        let (server, name) = server_with("themovie", 4.0);
        let peak = server.serve(&request(&name)).unwrap();
        let hebs = server.serve(&request(&name).with_policy(PolicyKind::Hebs)).unwrap();
        // HEBS reshapes pixels to tolerate a dimmer backlight: entrywise
        // never brighter than the peak-clip plan for the same scenes.
        for (p, h) in peak.track.entries().iter().zip(hebs.track.entries()) {
            assert!(h.backlight.0 <= p.backlight.0, "scene at {}", p.start_frame);
        }
        // The remap honours the same clip budget the track was planned to.
        let frac = hebs.clipped_pixels as f64 / hebs.total_pixels as f64;
        assert!(frac <= 0.10 + 0.02, "hebs clipped fraction {frac}");
        // Distinct policy => distinct cache entry, not a collision.
        assert!(!hebs.cache_hit);
    }

    #[test]
    fn every_worker_count_serves_the_same_bytes_and_clip_counts() {
        for name in annolight_video::library::PAPER_CLIP_NAMES {
            let (server, name) = server_with(name, 3.0);
            for policy in [PolicyKind::PeakClip, PolicyKind::Hebs] {
                let req = request(&name).with_policy(policy);
                let reference = server.serve_with(&req, 0).unwrap();
                assert!(reference.total_pixels > 0);
                for workers in [1, 2, 4] {
                    let served = server.serve_with(&req, workers).unwrap();
                    let at = format!("{name} {policy:?} workers {workers}");
                    assert_eq!(served.stream.as_bytes(), reference.stream.as_bytes(), "{at}");
                    assert_eq!(served.clipped_pixels, reference.clipped_pixels, "{at}");
                    assert_eq!(served.total_pixels, reference.total_pixels, "{at}");
                    assert_eq!(served.annotation_bytes, reference.annotation_bytes, "{at}");
                }
            }
        }
    }

    #[test]
    fn dvfs_hints_survive_the_service_refactor() {
        let (server, name) = server_with("spiderman2", 3.0);
        let served = server.serve(&request(&name).with_dvfs()).unwrap();
        let dec = Decoder::new(&served.stream).unwrap();
        assert_eq!(dec.user_data().len(), 2, "track + DVFS hints");
        let hints =
            annolight_core::extensions::hints_from_bytes(&dec.user_data()[1]).unwrap();
        assert_eq!(hints.len(), served.track.entries().len());
    }
}
