//! The proxy node.
//!
//! "The communication between the handheld device and the server can be
//! routed through a proxy node — a high-end machine with the ability to
//! process the video stream in real-time, on-the-fly (example in
//! videoconferencing). Note that for our scheme either the proxy or the
//! server node suffices."
//!
//! [`Proxy::transcode`] takes an *unannotated* stream (e.g. straight from
//! a camera or a legacy server), decodes it, profiles the decoded frames,
//! annotates for the negotiated device/quality, compensates, and
//! re-encodes — producing exactly what the annotation-aware server would
//! have sent, with no change for the client.
//!
//! Annotation itself is delegated to an [`AnnotationService`]
//! ([`annolight_serve`]): the proxy content-addresses the incoming byte
//! stream (FNV digest of the encoded input) and asks the service for the
//! track, so repeated transcodes of the same stream for the same device
//! class hit the shared cache instead of re-annotating. A proxy built
//! with [`Proxy::with_service`] can share that cache with a
//! [`crate::server::MediaServer`].

use annolight_codec::{
    decode_all_batched, encode_yuv_batched, CodecError, Decoder, EncodedStream, Encoder,
    EncoderConfig,
};
use annolight_core::digest::Digester;
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::parallel::{self, ParallelConfig};
use annolight_core::{CoreError, HebsRemapSet, LuminanceProfile, PolicyKind, QualityLevel};
use annolight_imgproc::{Frame, Yuv420Frame};
use annolight_display::DeviceProfile;
use annolight_serve::{AnnotationService, ServiceConfig};
use annolight_support::par::fan_out;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors during proxy transcoding.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProxyError {
    /// The incoming stream failed to decode.
    Codec(CodecError),
    /// Annotation failed.
    Core(CoreError),
    /// The annotation service refused or failed the request.
    Serve(annolight_serve::ServeError),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Codec(e) => write!(f, "proxy decode/encode failed: {e}"),
            ProxyError::Core(e) => write!(f, "proxy annotation failed: {e}"),
            ProxyError::Serve(e) => write!(f, "proxy annotation service failed: {e}"),
        }
    }
}

impl Error for ProxyError {}

impl From<CodecError> for ProxyError {
    fn from(e: CodecError) -> Self {
        ProxyError::Codec(e)
    }
}

impl From<CoreError> for ProxyError {
    fn from(e: CoreError) -> Self {
        ProxyError::Core(e)
    }
}

/// One clip's worth of work for [`Proxy::transcode_batch`]: an
/// unannotated input stream plus the device/quality/mode it is being
/// prepared for.
#[derive(Debug, Clone, Copy)]
pub struct TranscodeRequest<'a> {
    /// The unannotated input stream.
    pub input: &'a EncodedStream,
    /// The client device the output is negotiated for.
    pub device: &'a DeviceProfile,
    /// The negotiated quality level.
    pub quality: QualityLevel,
    /// Per-scene or per-frame annotation granularity.
    pub mode: AnnotationMode,
}

/// The transcoding proxy.
#[derive(Debug, Clone)]
pub struct Proxy {
    encoder_template: EncoderConfig,
    service: Arc<AnnotationService>,
    parallel: ParallelConfig,
    policy: PolicyKind,
}

impl Proxy {
    /// Creates a proxy that re-encodes with the given settings, backed by
    /// a private deterministic [`AnnotationService`].
    pub fn new(encoder_template: EncoderConfig) -> Self {
        Self::with_service(encoder_template, AnnotationService::new(ServiceConfig::default()))
    }

    /// Creates a proxy sharing `service` (and its annotation cache) with
    /// other proxies/servers.
    pub fn with_service(encoder_template: EncoderConfig, service: Arc<AnnotationService>) -> Self {
        Self {
            encoder_template,
            service,
            parallel: ParallelConfig::serial(),
            policy: PolicyKind::PeakClip,
        }
    }

    /// Selects the annotation-policy backend the proxy plans (and
    /// compensates) with. Distinct policies never share cached tracks —
    /// the policy is part of the service's cache key.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The annotation-policy backend in use.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Fans the proxy's decode, profiling, compensation and re-encode
    /// stages out over an intra-clip worker pool (the codec endpoints
    /// fan out per closed GOP and per macroblock band). The default
    /// (`workers == 0`) is the serial reference path; every worker count
    /// produces a byte-identical output stream (see
    /// `tests/parallel_identity.rs`).
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The intra-clip parallelism configuration.
    pub fn parallelism(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// The backing annotation service (e.g. for counter reports).
    pub fn service(&self) -> &Arc<AnnotationService> {
        &self.service
    }

    /// Content digest of an incoming encoded stream; `variant` tags
    /// derived framings (0 = as-is, 1 = downscaled 2×) so their tracks
    /// never alias.
    fn stream_digest(input: &EncodedStream, variant: u32) -> u64 {
        let mut d = Digester::new();
        d.write(input.as_bytes()).write_u32(variant);
        d.finish()
    }

    /// Fetches the annotation track for decoded content through the
    /// service cache.
    fn annotate(
        &self,
        digest: u64,
        profile: &LuminanceProfile,
        device: &DeviceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
    ) -> Result<Arc<AnnotationTrack>, ProxyError> {
        self.service
            .annotate_profile(digest, profile, device, quality, mode, self.policy)
            .map(|resp| resp.track)
            .map_err(ProxyError::Serve)
    }

    /// Policy-aware compensation: HEBS reshapes pixels through its
    /// per-scene equalisation remap; every other policy applies the
    /// track's linear gain on the worker pool.
    fn compensate(
        &self,
        frames: &mut [Frame],
        track: &AnnotationTrack,
        profile: &LuminanceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
    ) -> Result<(), ProxyError> {
        if self.policy == PolicyKind::Hebs {
            // Rebuilt from the same profile/mode/quality the planner saw,
            // so the remap's scene spans match the track's entries.
            let set = HebsRemapSet::new(profile, mode, quality);
            for (i, f) in frames.iter_mut().enumerate() {
                set.apply_frame(f, i as u32);
            }
            Ok(())
        } else {
            parallel::compensate_frames(frames, track, &self.parallel)
                .map_err(ProxyError::Core)?;
            Ok(())
        }
    }

    /// Transcodes `input` into an annotated, compensated stream for
    /// `device` at `quality`: [`Proxy::transcode_batch`] with one request.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError`] when the input stream cannot be decoded or
    /// the re-encode fails.
    pub fn transcode(
        &self,
        input: &EncodedStream,
        device: &DeviceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
    ) -> Result<EncodedStream, ProxyError> {
        let request = TranscodeRequest { input, device, quality, mode };
        let mut outs = self.transcode_batch(&[request])?;
        Ok(outs.pop().expect("one request, one stream"))
    }

    /// Transcodes a whole batch of streams, scheduling the work of all
    /// of them onto **one** worker pool per stage.
    ///
    /// One [`decode_all_batched`] dispatch decodes every closed GOP of
    /// every stream (converting to RGB inside the GOP jobs), one
    /// [`parallel::profile_frames_batched`] dispatch profiles every
    /// frame, one [`parallel::compensate_frames_batched`] dispatch
    /// compensates them, and one [`encode_yuv_batched`] dispatch
    /// re-encodes — so a short clip does not leave the pool idle while a
    /// long clip's last GOP finishes. Annotation still goes through the
    /// shared service cache per clip.
    ///
    /// Every output stream is byte-identical for every worker count;
    /// `workers <= 1` runs each stage inline over the codec's and core's
    /// serial primitives.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProxyError`] encountered, stage by stage and
    /// in request order within a stage.
    pub fn transcode_batch(
        &self,
        requests: &[TranscodeRequest<'_>],
    ) -> Result<Vec<EncodedStream>, ProxyError> {
        // Stage 1: one batched decode across every stream's closed GOPs,
        // straight to RGB.
        let mut decoders = requests
            .iter()
            .map(|r| Decoder::new(r.input))
            .collect::<Result<Vec<_>, _>>()?;
        let mut frames = decode_all_batched(&mut decoders, &self.parallel, Yuv420Frame::to_rgb)?;
        drop(decoders);

        // Stage 2: one batched profiling dispatch over every frame of
        // every clip (job-local indices keep each profile identical to
        // its serial reference).
        let profile_jobs: Vec<(f64, &[Frame])> = requests
            .iter()
            .zip(&frames)
            .map(|(r, f)| (r.input.fps(), f.as_slice()))
            .collect();
        let profiles = parallel::profile_frames_batched(&profile_jobs, &self.parallel)
            .map_err(ProxyError::Core)?;

        // Stage 3: per-clip annotation through the shared service cache
        // (cache look-ups are cheap and keep hit/miss accounting exact).
        let tracks = requests
            .iter()
            .zip(&profiles)
            .map(|(r, p)| {
                self.annotate(Self::stream_digest(r.input, 0), p, r.device, r.quality, r.mode)
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Stage 4: compensation. HEBS reshapes per clip (its remap is a
        // serial per-scene table); every other policy batches all clips
        // into one dispatch.
        if self.policy == PolicyKind::Hebs {
            for ((clip, profile), r) in frames.iter_mut().zip(&profiles).zip(requests) {
                let set = HebsRemapSet::new(profile, r.mode, r.quality);
                for (i, f) in clip.iter_mut().enumerate() {
                    set.apply_frame(f, i as u32);
                }
            }
        } else {
            let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = frames
                .iter_mut()
                .zip(&tracks)
                .map(|(f, t)| (f.as_mut_slice(), t.as_ref()))
                .collect();
            parallel::compensate_frames_batched(&mut jobs, &self.parallel)
                .map_err(ProxyError::Core)?;
        }

        // Stage 5: the same RGB→YUV mapping `push_frames` applies (one
        // fan-out over every frame of every clip), then one batched
        // re-encode across every stream's GOPs.
        let mut encoders = requests
            .iter()
            .map(|r| {
                Encoder::new(EncoderConfig {
                    width: r.input.width(),
                    height: r.input.height(),
                    fps: r.input.fps(),
                    ..self.encoder_template
                })
                .map(|e| e.with_parallelism(self.parallel))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (enc, track) in encoders.iter_mut().zip(&tracks) {
            enc.push_user_data(&track.to_rle_bytes());
        }
        let rgb: Vec<&Frame> = frames.iter().flatten().collect();
        let mut yuv = fan_out(self.parallel.workers, rgb, |f| {
            f.to_yuv420().map_err(|e| CodecError::Malformed { reason: e.to_string() })
        })
        .into_iter();
        let yuv_clips: Vec<Vec<Yuv420Frame>> = frames
            .iter()
            .map(|clip| yuv.by_ref().take(clip.len()).collect())
            .collect::<Result<_, _>>()?;
        let clip_refs: Vec<&[Yuv420Frame]> = yuv_clips.iter().map(Vec::as_slice).collect();
        encode_yuv_batched(&mut encoders, &clip_refs, &self.parallel)?;
        Ok(encoders.into_iter().map(Encoder::finish).collect())
    }

    /// Transcodes *and downscales* by 2× in each dimension — the
    /// data-shaping role of the Fig. 1 proxy when the wireless hop is
    /// constrained. Annotations are recomputed on the reshaped frames.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError`] if the input cannot be decoded, the halved
    /// dimensions are not multiples of 16, or the re-encode fails.
    pub fn transcode_downscaled(
        &self,
        input: &EncodedStream,
        device: &DeviceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
    ) -> Result<EncodedStream, ProxyError> {
        let mut dec = Decoder::new(input)?.with_parallelism(self.parallel);
        let mut frames = Vec::with_capacity(dec.frame_count() as usize);
        for f in dec.decode_all()? {
            frames.push(
                annolight_imgproc::downscale_2x(&f)
                    .map_err(|e| ProxyError::Codec(CodecError::Malformed { reason: e.to_string() }))?,
            );
        }
        let profile =
            parallel::profile_frames(input.fps(), &frames, &self.parallel).map_err(ProxyError::Core)?;
        let track =
            self.annotate(Self::stream_digest(input, 1), &profile, device, quality, mode)?;
        let mut enc = Encoder::new(EncoderConfig {
            width: input.width() / 2,
            height: input.height() / 2,
            fps: input.fps(),
            ..self.encoder_template
        })?
        .with_parallelism(self.parallel);
        enc.push_user_data(&track.to_rle_bytes());
        self.compensate(&mut frames, &track, &profile, quality, mode)?;
        enc.push_frames(&frames)?;
        Ok(enc.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PlaybackClient;
    use annolight_power::SystemPowerModel;
    use annolight_video::ClipLibrary;

    fn raw_stream() -> EncodedStream {
        let clip = ClipLibrary::paper_clip("spiderman2").unwrap().preview(3.0);
        let (w, h) = clip.dimensions();
        let mut enc = Encoder::new(EncoderConfig {
            width: w,
            height: h,
            fps: clip.fps(),
            ..EncoderConfig::default()
        })
        .unwrap();
        for f in clip.frames() {
            enc.push_frame(&f).unwrap();
        }
        enc.finish()
    }

    #[test]
    fn proxy_adds_annotations_to_plain_stream() {
        let input = raw_stream();
        assert!(Decoder::new(&input).unwrap().user_data().is_empty());
        let proxy = Proxy::new(EncoderConfig::default());
        let out = proxy
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        let dec = Decoder::new(&out).unwrap();
        assert_eq!(dec.user_data().len(), 1);
        assert_eq!(out.frame_count(), input.frame_count());
    }

    #[test]
    fn proxied_stream_plays_with_savings() {
        let input = raw_stream();
        let proxy = Proxy::new(EncoderConfig::default());
        let out = proxy
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q15, AnnotationMode::PerScene)
            .unwrap();
        let client = PlaybackClient::new(DeviceProfile::ipaq_5555(), SystemPowerModel::ipaq_5555());
        let report = client.play(&out, None).unwrap();
        assert!(report.annotated);
        assert!(report.total_savings() > 0.02, "savings {}", report.total_savings());
    }

    #[test]
    fn downscaling_proxy_shrinks_stream_and_keeps_savings() {
        let input = raw_stream();
        let proxy = Proxy::new(EncoderConfig::default());
        let out = proxy
            .transcode_downscaled(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        assert_eq!(out.width(), input.width() / 2);
        assert_eq!(out.height(), input.height() / 2);
        assert_eq!(out.frame_count(), input.frame_count());
        assert!(out.len() < input.len(), "quarter-area stream must be smaller");
        let client = PlaybackClient::new(DeviceProfile::ipaq_5555(), SystemPowerModel::ipaq_5555());
        let report = client.play(&out, None).unwrap();
        assert!(report.annotated);
        assert!(report.total_savings() > 0.02);
    }

    #[test]
    fn repeat_transcodes_hit_the_shared_annotation_cache() {
        let input = raw_stream();
        let proxy = Proxy::new(EncoderConfig::default());
        let a = proxy
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        let b = proxy
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        assert_eq!(a.as_bytes(), b.as_bytes(), "cached track yields identical output");
        let report = proxy.service().report();
        assert_eq!(report.misses, 1, "one annotation pass");
        assert_eq!(report.hits, 1, "second transcode hits the cache");
        // The downscaled variant is different content: never aliases.
        let down = proxy
            .transcode_downscaled(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        assert_eq!(down.width(), input.width() / 2);
        assert_eq!(proxy.service().report().misses, 2);
    }

    #[test]
    fn hebs_proxy_plans_darker_than_peak_clip() {
        let input = raw_stream();
        let service = AnnotationService::new(ServiceConfig::default());
        let peak = Proxy::with_service(EncoderConfig::default(), Arc::clone(&service));
        let hebs = peak.clone().with_policy(PolicyKind::Hebs);
        let a = peak
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        let b = hebs
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        let track = |s: &EncodedStream| {
            AnnotationTrack::from_rle_bytes(&Decoder::new(s).unwrap().user_data()[0]).unwrap()
        };
        let (ta, tb) = (track(&a), track(&b));
        assert_eq!(ta.entries().len(), tb.entries().len(), "same scene structure");
        for (p, h) in ta.entries().iter().zip(tb.entries()) {
            assert!(h.backlight.0 <= p.backlight.0, "scene at {}", p.start_frame);
        }
        // Distinct policies are distinct cache entries on the shared service.
        assert_eq!(service.report().misses, 2);
    }

    #[test]
    fn transcode_batch_matches_per_clip_transcode() {
        // Mixed devices, qualities and clip lengths; batched output must
        // be byte-identical to per-clip transcode for every pool shape.
        let long = raw_stream();
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(1.0);
        let (w, h) = clip.dimensions();
        let mut enc = Encoder::new(EncoderConfig {
            width: w,
            height: h,
            fps: clip.fps(),
            ..EncoderConfig::default()
        })
        .unwrap();
        for f in clip.frames() {
            enc.push_frame(&f).unwrap();
        }
        let short = enc.finish();
        let requests = [
            TranscodeRequest {
                input: &long,
                device: &DeviceProfile::ipaq_5555(),
                quality: QualityLevel::Q10,
                mode: AnnotationMode::PerScene,
            },
            TranscodeRequest {
                input: &short,
                device: &DeviceProfile::zaurus_sl5600(),
                quality: QualityLevel::Q5,
                mode: AnnotationMode::PerFrame,
            },
            TranscodeRequest {
                input: &long,
                device: &DeviceProfile::ipaq_5555(),
                quality: QualityLevel::Q15,
                mode: AnnotationMode::PerScene,
            },
        ];
        let serial = Proxy::new(EncoderConfig::default());
        let reference: Vec<EncodedStream> = requests
            .iter()
            .map(|r| serial.transcode(r.input, r.device, r.quality, r.mode).unwrap())
            .collect();
        for workers in [0usize, 2, 7] {
            let proxy = Proxy::new(EncoderConfig::default())
                .with_parallelism(ParallelConfig::with_workers(workers).with_chunk_frames(4));
            let got = proxy.transcode_batch(&requests).unwrap();
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.as_bytes(), r.as_bytes(), "workers={workers}");
            }
        }
    }

    #[test]
    fn transcode_batch_hebs_matches_per_clip_transcode() {
        let input = raw_stream();
        let requests = [TranscodeRequest {
            input: &input,
            device: &DeviceProfile::ipaq_5555(),
            quality: QualityLevel::Q10,
            mode: AnnotationMode::PerScene,
        }];
        let serial = Proxy::new(EncoderConfig::default()).with_policy(PolicyKind::Hebs);
        let reference = serial
            .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
            .unwrap();
        let proxy = Proxy::new(EncoderConfig::default())
            .with_policy(PolicyKind::Hebs)
            .with_parallelism(ParallelConfig::with_workers(3));
        let got = proxy.transcode_batch(&requests).unwrap();
        assert_eq!(got[0].as_bytes(), reference.as_bytes());
    }

    #[test]
    fn proxy_preserves_frame_count_and_rate() {
        let input = raw_stream();
        let proxy = Proxy::new(EncoderConfig::default());
        let out = proxy
            .transcode(&input, &DeviceProfile::zaurus_sl5600(), QualityLevel::Q5, AnnotationMode::PerScene)
            .unwrap();
        assert_eq!(out.frame_count(), input.frame_count());
        assert!((out.fps() - input.fps()).abs() < 1e-9);
    }
}
