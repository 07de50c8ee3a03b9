//! End-to-end session orchestration.
//!
//! A session follows Fig. 1: the client opens with a negotiation message
//! carrying its device profile and requested quality; the server (or a
//! proxy on its behalf) answers with the annotated stream, delivered in
//! MTU-sized packets over the wireless channel model; the client plays it
//! back with energy accounting. Every entry point here runs the one
//! session implementation, [`crate::machine::SessionMachine`], alone on a
//! one-task reactor. All *timing* is simulated (the channel model), so
//! results are deterministic.

use crate::client::{PlaybackClient, PlaybackError, PlaybackReport};
use crate::faults::{DegradationConfig, DegradationEvent, FaultConfig, FaultReport, LossyDelivery};
use crate::network::WirelessChannel;
use crate::proxy::Proxy;
use crate::server::{MediaServer, ServeError, ServeRequest};
use annolight_codec::{EncodedStream, EncoderConfig};
use annolight_core::track::AnnotationMode;
use annolight_core::{PolicyKind, QualityLevel};
use annolight_display::DeviceProfile;
use annolight_power::{EnergyMeter, SystemPowerModel};
use annolight_video::Clip;
use std::error::Error;
use std::fmt;

/// Where annotations are inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationSite {
    /// The server annotates (the common case).
    Server,
    /// The server sends a plain stream; a proxy annotates mid-path.
    Proxy,
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The clip to stream.
    pub clip: Clip,
    /// The client's device.
    pub device: DeviceProfile,
    /// Requested quality level.
    pub quality: QualityLevel,
    /// Per-scene or per-frame annotations.
    pub mode: AnnotationMode,
    /// Who inserts the annotations.
    pub site: AnnotationSite,
    /// The wireless hop model.
    pub channel: WirelessChannel,
    /// The client's system power model.
    pub system: SystemPowerModel,
    /// Encoder settings.
    pub encoder: EncoderConfig,
    /// Embed and apply DVFS hints (the §3 extension).
    pub dvfs: bool,
    /// Burst-prefetch the stream so the WNIC idles between bursts (§3's
    /// "network packet optimizations", enabled by annotations being
    /// available ahead of the data).
    pub burst_prefetch: bool,
    /// Fault injection on the wireless hop. The default is lossless;
    /// [`run_session`] ignores it, [`run_session_faulty`] and
    /// [`crate::governor::run_session_governed`] honour it.
    pub faults: FaultConfig,
    /// The annotation-policy backend the client asks for. Carried in the
    /// hello, so the serving side plans (and compensates) with it.
    pub policy: PolicyKind,
}

impl SessionConfig {
    /// A default session: server-side annotation over 802.11b to an
    /// iPAQ 5555.
    pub fn new(clip: Clip, quality: QualityLevel) -> Self {
        Self {
            clip,
            device: DeviceProfile::ipaq_5555(),
            quality,
            mode: AnnotationMode::PerScene,
            site: AnnotationSite::Server,
            channel: WirelessChannel::wifi_80211b(),
            system: SystemPowerModel::ipaq_5555(),
            encoder: EncoderConfig::default(),
            dvfs: false,
            burst_prefetch: false,
            faults: FaultConfig::lossless(0),
            policy: PolicyKind::PeakClip,
        }
    }

    /// Selects the annotation-policy backend for the session.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

/// Errors running a session.
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionError {
    /// Negotiation failed before any media moved: the server answered
    /// the client's hello with a typed refusal (e.g. an unknown clip
    /// name). This is the client-visible form of
    /// [`crate::server::ServeError::UnknownClip`] — a protocol outcome,
    /// not a panic.
    Negotiation(ServeError),
    /// The server refused the request.
    Serve(ServeError),
    /// The proxy failed to transcode.
    Proxy(crate::proxy::ProxyError),
    /// Playback failed on the client.
    Playback(PlaybackError),
    /// A pipeline stage failed outside playback: the hello or a packet did
    /// not round-trip its wire format, the stream or its annotation track
    /// did not decode or reassemble, or a picture packet exhausted even
    /// the reliable retry budget.
    Pipeline(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Negotiation(e) => write!(f, "negotiation failed: {e}"),
            SessionError::Serve(e) => write!(f, "server error: {e}"),
            SessionError::Proxy(e) => write!(f, "proxy error: {e}"),
            SessionError::Playback(e) => write!(f, "client error: {e}"),
            SessionError::Pipeline(r) => write!(f, "pipeline error: {r}"),
        }
    }
}

impl Error for SessionError {}

/// The outcome of a whole streaming session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The quality level the negotiation granted (closest offered level
    /// not exceeding the request).
    pub granted_quality: QualityLevel,
    /// Total stream size delivered, bytes.
    pub stream_bytes: usize,
    /// Size of the embedded annotation track, bytes.
    pub annotation_bytes: usize,
    /// Number of network packets delivered.
    pub packets: usize,
    /// Simulated delivery time over the wireless hop, seconds.
    pub transfer_time_s: f64,
    /// Whether delivery kept up with real-time playback.
    pub real_time: bool,
    /// The client's playback/energy report.
    pub playback: PlaybackReport,
    /// Per-component energy breakdown.
    pub energy_breakdown: std::collections::BTreeMap<String, f64>,
}

annolight_support::impl_json!(struct SessionReport { granted_quality, stream_bytes, annotation_bytes, packets, transfer_time_s, real_time, playback, energy_breakdown });

/// Runs one complete session over a lossless hop: [`run_session_faulty`]
/// with [`SessionConfig::faults`] ignored, reporting the session
/// measurements.
///
/// # Errors
///
/// Returns [`SessionError`] for failures anywhere in the pipeline.
pub fn run_session(config: SessionConfig) -> Result<SessionReport, SessionError> {
    run_session_faulty(SessionConfig { faults: FaultConfig::default(), ..config })
        .map(|report| report.session)
}

/// The wired half of every session — negotiation, then serving or proxy
/// transcoding. Returns the served stream, its annotation-track size, and
/// the post-negotiation config (granted quality, echoed device and
/// policy).
pub(crate) fn negotiate_and_serve(
    config: SessionConfig,
) -> Result<(EncodedStream, usize, SessionConfig), SessionError> {
    negotiate_and_serve_at(config, true)
}

/// [`negotiate_and_serve`] with the spatial-scaling escape hatch.
///
/// `allow_spatial: false` pins the stream to full resolution even when the
/// negotiated policy is [`PolicyKind::SpatialScale`] — the governor uses
/// this, because its energy ladders are calibrated against full-resolution
/// playback and a mid-session geometry change would invalidate them.
pub(crate) fn negotiate_and_serve_at(
    config: SessionConfig,
    allow_spatial: bool,
) -> Result<(EncodedStream, usize, SessionConfig), SessionError> {
    let clip_name = config.clip.name().to_owned();

    // --- Server-side preparation (Fig. 1, wired segment) ----------------
    let mut server = MediaServer::new(config.encoder);
    server.add_clip(config.clip.clone());

    // --- Negotiation (§4.3): the client sends its device profile and ---
    // --- requested quality; the server answers with a typed offer ------
    let hello = crate::message::ClientHello::new(
        clip_name.clone(),
        config.device.clone(),
        config.quality,
        config.mode,
    )
    .with_policy(config.policy);
    let hello = crate::message::ClientHello::from_wire(&hello.to_wire())
        .map_err(SessionError::Pipeline)?;
    let offer = server.negotiate(&hello).map_err(SessionError::Negotiation)?;
    let config = SessionConfig {
        quality: offer.granted_quality,
        device: hello.device,
        policy: hello.policy,
        ..config
    };

    // --- Spatial scaling (§3): the policy prices full vs. half --------
    // --- resolution with *this* client's channel and power model ------
    let downscale = allow_spatial
        && config.policy == PolicyKind::SpatialScale
        && crate::spatial::spatial_decision(
            config.policy,
            offer.width,
            offer.height,
            config.clip.frame_count(),
            offer.fps,
            &config.channel,
            &config.system,
        )
        .use_half;

    if config.site == AnnotationSite::Server && !downscale {
        let served = server
            .serve(&ServeRequest {
                clip_name,
                device: config.device.clone(),
                quality: config.quality,
                mode: config.mode,
                dvfs: config.dvfs,
                policy: config.policy,
            })
            .map_err(SessionError::Serve)?;
        return Ok((served.stream, served.annotation_bytes, config));
    }

    // The Fig. 1 proxy: the server sends the plain stream a legacy server
    // would emit, and the proxy annotates it on the fly. Under spatial
    // scaling it also shapes the data — downscale 2× and annotate the
    // reshaped frames.
    let plain = server
        .serve(&ServeRequest {
            clip_name,
            device: config.device.clone(),
            quality: QualityLevel::Q0,
            mode: config.mode,
            dvfs: false,
            policy: PolicyKind::PeakClip,
        })
        .map_err(SessionError::Serve)?;
    let proxy = Proxy::new(config.encoder).with_policy(config.policy);
    let out = if downscale {
        proxy.transcode_downscaled(&plain.stream, &config.device, config.quality, config.mode)
    } else {
        proxy.transcode(&plain.stream, &config.device, config.quality, config.mode)
    }
    .map_err(SessionError::Proxy)?;
    let annotation_bytes = annolight_codec::Decoder::new(&out)
        .map_err(|e| SessionError::Pipeline(e.to_string()))?
        .user_data()
        .first()
        .map_or(0, |b| b.len());
    Ok((out, annotation_bytes, config))
}

/// The outcome of a fault-injected session ([`run_session_faulty`]).
#[derive(Debug, Clone)]
pub struct FaultySessionReport {
    /// The usual session measurements. With a lossless
    /// [`SessionConfig::faults`] this is byte-for-byte what
    /// [`run_session`] reports.
    pub session: SessionReport,
    /// Channel/retransmission/hint-loss summary, including the WNIC
    /// energy the retransmissions cost.
    pub faults: FaultReport,
    /// The client's degradation log (deterministic per seed).
    pub events: Vec<DegradationEvent>,
    /// Frames played without their annotation available.
    pub degraded_frames: u32,
    /// Mean perceived-intensity error vs. the annotated schedule.
    pub perceived_error: f64,
}

annolight_support::impl_json!(struct FaultySessionReport { session, faults, events, degraded_frames, perceived_error });

/// Runs one complete session over the fault-injected wireless hop in
/// [`SessionConfig::faults`]: annotation hints are streamed as lossy
/// per-scene deltas (retried only until their scene starts), pictures are
/// retransmitted reliably, and the client degrades gracefully — playback
/// never stalls on a lost hint. Retransmission energy is charged to the
/// meter as `wnic_retransmit` on top of the playback breakdown.
///
/// # Errors
///
/// Returns [`SessionError`] for failures anywhere in the pipeline.
pub fn run_session_faulty(config: SessionConfig) -> Result<FaultySessionReport, SessionError> {
    crate::machine::play_alone(config)
}

/// The client half of a play session, fixed once the stream is served:
/// everything [`finish_faulty`] needs besides the delivery itself.
#[derive(Debug)]
pub(crate) struct ClientTail {
    pub(crate) annotation_bytes: usize,
    pub(crate) granted: QualityLevel,
    pub(crate) device: DeviceProfile,
    pub(crate) channel: WirelessChannel,
    pub(crate) system: SystemPowerModel,
    pub(crate) burst_prefetch: bool,
}

impl ClientTail {
    /// The tail of a session negotiated to `config`.
    pub(crate) fn of(config: &SessionConfig, annotation_bytes: usize) -> Self {
        Self {
            annotation_bytes,
            granted: config.quality,
            device: config.device.clone(),
            channel: config.channel,
            system: config.system,
            burst_prefetch: config.burst_prefetch,
        }
    }
}

/// WNIC energy of `retransmits` link-layer retransmissions over
/// `channel`, joules: each keeps the radio receiving for one extra packet
/// airtime and transmits a NACK — charged above the baseline the playback
/// already accounts.
pub(crate) fn retransmit_energy_j(
    retransmits: u64,
    channel: &WirelessChannel,
    system: &SystemPowerModel,
) -> f64 {
    if retransmits == 0 {
        return 0.0;
    }
    let slot = (channel.mtu as f64 * 8.0) / channel.bandwidth_bps;
    system.retransmit_energy_j(retransmits, slot)
}

/// The WNIC receive duty while `stream` plays. With burst prefetch the
/// client knows the stream layout up front (from its annotations) and
/// fetches it in bursts, so the radio only receives for the fraction of
/// playback the transfer takes; otherwise, or for an empty stream, it
/// receives throughout (1).
pub(crate) fn burst_wnic_duty(
    stream: &EncodedStream,
    channel: &WirelessChannel,
    burst_prefetch: bool,
) -> f64 {
    let frames = stream.frame_count();
    if !burst_prefetch || frames == 0 {
        return 1.0;
    }
    let duration = f64::from(frames) / stream.fps().max(f64::EPSILON);
    (channel.transfer_time_s(stream.as_bytes().len()) / duration).clamp(0.0, 1.0)
}

/// The client-side end of a play session: degraded playback,
/// retransmission energy accounting, and report assembly.
pub(crate) fn finish_faulty(
    lossy: LossyDelivery,
    tail: ClientTail,
) -> Result<FaultySessionReport, SessionError> {
    let total = lossy.stream.as_bytes().len();
    let transfer_time = tail.channel.transfer_time_s(total);
    let meter = EnergyMeter::new();
    let duty = burst_wnic_duty(&lossy.stream, &tail.channel, tail.burst_prefetch);
    let client = PlaybackClient::new(tail.device, tail.system).with_wnic_duty(duty);
    let degraded = client
        .play_degraded(&lossy.stream, &lossy.arrivals, DegradationConfig::default(), Some(&meter))
        .map_err(SessionError::Playback)?;

    let mut faults = lossy.report;
    faults.retransmit_energy_j =
        retransmit_energy_j(faults.channel.retransmits, &tail.channel, &tail.system);
    if faults.channel.retransmits > 0 {
        meter.add("wnic_retransmit", faults.retransmit_energy_j);
    }

    let playback = degraded.report;
    Ok(FaultySessionReport {
        session: SessionReport {
            granted_quality: tail.granted,
            stream_bytes: total,
            annotation_bytes: tail.annotation_bytes,
            packets: lossy.picture_packets,
            transfer_time_s: transfer_time,
            real_time: transfer_time <= playback.duration_s,
            playback,
            energy_breakdown: meter.breakdown(),
        },
        faults,
        events: degraded.events,
        degraded_frames: degraded.degraded_frames,
        perceived_error: degraded.perceived_error,
    })
}

/// Client-side knobs for [`run_session_with_server`]: what the clip and
/// device do *not* determine (the hop model, the power model, and the
/// optional §3 extensions).
#[derive(Debug, Clone)]
pub struct SharedSessionOptions {
    /// The wireless hop model.
    pub channel: WirelessChannel,
    /// The client's system power model.
    pub system: SystemPowerModel,
    /// Embed DVFS hints.
    pub dvfs: bool,
    /// Burst-prefetch the stream (see [`SessionConfig::burst_prefetch`]).
    pub burst_prefetch: bool,
}

impl Default for SharedSessionOptions {
    /// 802.11b to an iPAQ 5555, no extensions.
    fn default() -> Self {
        Self {
            channel: WirelessChannel::wifi_80211b(),
            system: SystemPowerModel::ipaq_5555(),
            dvfs: false,
            burst_prefetch: false,
        }
    }
}

/// Runs a session against an existing (possibly shared) server
/// catalogue over a lossless hop. Unlike [`run_session`], which builds a
/// private server around one clip, this entry negotiates by *name*: a
/// hello for a clip the server does not store comes back as
/// [`SessionError::Negotiation`]`(`[`ServeError::UnknownClip`]`)` — the
/// typed, client-visible failure — rather than a panic or a silent
/// empty stream. Once served, the stream takes the same delivery and
/// playback steps as every other session.
///
/// # Errors
///
/// Returns [`SessionError::Negotiation`] when the hello is refused and
/// the usual [`SessionError`] variants for downstream failures.
pub fn run_session_with_server(
    server: &MediaServer,
    hello: &crate::message::ClientHello,
    options: &SharedSessionOptions,
) -> Result<SessionReport, SessionError> {
    // Wire round-trip: the server sees exactly what crossed the network.
    let hello = crate::message::ClientHello::from_wire(&hello.to_wire())
        .map_err(SessionError::Pipeline)?;
    let offer = server.negotiate(&hello).map_err(SessionError::Negotiation)?;
    let granted = offer.granted_quality;
    let served = server
        .serve(&ServeRequest {
            clip_name: hello.clip_name.clone(),
            device: hello.device.clone(),
            quality: granted,
            mode: hello.mode,
            dvfs: options.dvfs,
            policy: hello.policy,
        })
        .map_err(SessionError::Serve)?;
    let tail = ClientTail {
        annotation_bytes: served.annotation_bytes,
        granted,
        device: hello.device,
        channel: options.channel,
        system: options.system,
        burst_prefetch: options.burst_prefetch,
    };
    crate::machine::play_served(&served.stream, tail).map(|report| report.session)
}

/// Runs several sessions sharing one wireless hop (Fig. 1 shows multiple
/// users behind the access point): the channel bandwidth is divided
/// equally among the clients, then each session runs independently.
///
/// # Errors
///
/// Returns the first [`SessionError`] encountered.
pub fn run_shared_sessions(configs: Vec<SessionConfig>) -> Result<Vec<SessionReport>, SessionError> {
    let n = configs.len().max(1) as f64;
    configs
        .into_iter()
        .map(|mut cfg| {
            cfg.channel =
                WirelessChannel { bandwidth_bps: cfg.channel.bandwidth_bps / n, ..cfg.channel };
            run_session(cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_video::ClipLibrary;

    fn config(quality: QualityLevel) -> SessionConfig {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(3.0);
        SessionConfig::new(clip, quality)
    }

    #[test]
    fn server_annotated_session_end_to_end() {
        let report = run_session(config(QualityLevel::Q10)).unwrap();
        assert!(report.playback.annotated);
        assert!(report.playback.total_savings() > 0.02);
        assert!(report.annotation_bytes > 0);
        assert!(report.packets >= report.stream_bytes / 1500);
        assert!(report.real_time, "transfer {}s", report.transfer_time_s);
        assert!(!report.energy_breakdown.is_empty());
    }

    #[test]
    fn proxy_annotated_session_end_to_end() {
        let mut cfg = config(QualityLevel::Q10);
        cfg.site = AnnotationSite::Proxy;
        let report = run_session(cfg).unwrap();
        assert!(report.playback.annotated);
        assert!(report.playback.total_savings() > 0.02);
    }

    #[test]
    fn delivery_is_lossless() {
        let report = run_session(config(QualityLevel::Q5)).unwrap();
        // All frames decoded: the chunked transfer reassembled the exact
        // byte stream.
        assert!(report.playback.frames > 0);
        assert_eq!(report.playback.frames, 36); // 3 s at 12 fps
    }

    #[test]
    fn negotiation_grants_closest_offered_quality() {
        // A 12% request is granted the 10% stream — the server never
        // degrades more than the user agreed to.
        let mut cfg = config(QualityLevel::Custom(0.12));
        cfg.clip = ClipLibrary::paper_clip("themovie").unwrap().preview(2.0);
        let report = run_session(cfg).unwrap();
        assert_eq!(report.granted_quality, QualityLevel::Q10);
    }

    #[test]
    fn burst_prefetch_idles_the_radio() {
        let plain = run_session(config(QualityLevel::Q10)).unwrap();
        let mut cfg = config(QualityLevel::Q10);
        cfg.burst_prefetch = true;
        let burst = run_session(cfg).unwrap();
        assert!(
            burst.playback.total_savings() > plain.playback.total_savings() + 0.02,
            "burst {} vs plain {}",
            burst.playback.total_savings(),
            plain.playback.total_savings()
        );
    }

    #[test]
    fn hebs_session_dims_the_backlight_at_least_as_far() {
        let peak = run_session(config(QualityLevel::Q10)).unwrap();
        let hebs = run_session(config(QualityLevel::Q10).with_policy(PolicyKind::Hebs)).unwrap();
        assert!(hebs.playback.annotated);
        assert!(
            hebs.playback.mean_backlight <= peak.playback.mean_backlight + 1e-9,
            "hebs {} vs peak-clip {}",
            hebs.playback.mean_backlight,
            peak.playback.mean_backlight
        );
        assert!(hebs.playback.total_savings() + 1e-9 >= peak.playback.total_savings());
    }

    #[test]
    fn spatial_scale_session_halves_the_stream() {
        let peak = run_session(config(QualityLevel::Q10)).unwrap();
        let spatial =
            run_session(config(QualityLevel::Q10).with_policy(PolicyKind::SpatialScale)).unwrap();
        // 128×96 over 802.11b clears the energy margin, so the policy
        // reshapes the stream to quarter area and far fewer bytes.
        assert!(
            spatial.stream_bytes * 2 < peak.stream_bytes,
            "spatial {} vs full {}",
            spatial.stream_bytes,
            peak.stream_bytes
        );
        assert!(spatial.playback.annotated, "downscaled stream is still annotated");
        assert_eq!(spatial.playback.frames, peak.playback.frames);
        assert!(spatial.transfer_time_s < peak.transfer_time_s);
    }

    #[test]
    fn session_report_serialises_for_tooling() {
        let report = run_session(config(QualityLevel::Q5)).unwrap();
        let json = annolight_support::json::to_string(&report);
        let back: SessionReport = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(back.stream_bytes, report.stream_bytes);
        assert!((back.playback.energy_j - report.playback.energy_j).abs() < 1e-12);
    }

    #[test]
    fn shared_channel_divides_bandwidth() {
        let mk = || {
            let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(2.0);
            SessionConfig::new(clip, QualityLevel::Q10)
        };
        let solo = run_session(mk()).unwrap();
        let shared = run_shared_sessions(vec![mk(), mk(), mk(), mk()]).unwrap();
        assert_eq!(shared.len(), 4);
        for r in &shared {
            assert!(
                r.transfer_time_s > solo.transfer_time_s * 3.0,
                "shared {} vs solo {}",
                r.transfer_time_s,
                solo.transfer_time_s
            );
            // The energy result is unchanged — contention affects
            // delivery, not the playback power.
            assert!((r.playback.energy_j - solo.playback.energy_j).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_server_session_and_typed_unknown_clip() {
        use crate::message::ClientHello;
        let mut server = MediaServer::new(EncoderConfig::default());
        server.add_clip(ClipLibrary::paper_clip("themovie").unwrap().preview(2.0));
        let options = SharedSessionOptions::default();

        // Happy path: two clients, second rides the annotation cache.
        let hello = ClientHello::new(
            "themovie",
            DeviceProfile::ipaq_5555(),
            QualityLevel::Q10,
            AnnotationMode::PerScene,
        );
        let a = run_session_with_server(&server, &hello, &options).unwrap();
        let b = run_session_with_server(&server, &hello, &options).unwrap();
        assert!(a.playback.annotated && b.playback.annotated);
        let report = server.service().report();
        assert_eq!(report.misses, 1, "one profile pass serves both sessions");
        assert!(report.hits >= 1);

        // Unknown clip: a typed negotiation failure reaches the client.
        let bad = ClientHello::new(
            "not-in-catalogue",
            DeviceProfile::ipaq_5555(),
            QualityLevel::Q10,
            AnnotationMode::PerScene,
        );
        match run_session_with_server(&server, &bad, &options) {
            Err(SessionError::Negotiation(ServeError::UnknownClip(name))) => {
                assert_eq!(name, "not-in-catalogue");
            }
            other => panic!("expected typed negotiation failure, got {other:?}"),
        }
    }

    #[test]
    fn faulty_session_lossless_matches_plain_byte_for_byte() {
        let plain = run_session(config(QualityLevel::Q10)).unwrap();
        let faulty = run_session_faulty(config(QualityLevel::Q10)).unwrap();
        assert_eq!(
            annolight_support::json::to_string(&plain),
            annolight_support::json::to_string(&faulty.session),
            "zero-fault session must reproduce the lossless trace exactly"
        );
        assert!(faulty.events.is_empty());
        assert_eq!(faulty.degraded_frames, 0);
        assert_eq!(faulty.perceived_error, 0.0);
        assert_eq!(faulty.faults.channel.dropped, 0);
        assert_eq!(faulty.faults.deltas_lost, 0);
    }

    #[test]
    fn lossy_session_degrades_but_never_stalls() {
        let mut cfg = config(QualityLevel::Q10);
        cfg.faults = FaultConfig::lossy(42, 0.2);
        let r = run_session_faulty(cfg).unwrap();
        // Every frame still plays — annotation loss degrades, never stalls.
        assert_eq!(r.session.playback.frames, 36);
        assert!(r.faults.channel.dropped > 0, "20 % loss must drop packets");
        assert!(r.perceived_error <= 0.25, "error {}", r.perceived_error);
        assert!(r.faults.channel.retransmits > 0);
        assert!(r.faults.retransmit_energy_j > 0.0);
        assert!(r.session.energy_breakdown.contains_key("wnic_retransmit"));
    }

    #[test]
    fn proxy_annotated_session_survives_burst_loss() {
        let mut cfg = config(QualityLevel::Q10);
        cfg.site = AnnotationSite::Proxy;
        cfg.faults = FaultConfig::bursty(7);
        let r = run_session_faulty(cfg).unwrap();
        assert!(r.session.playback.annotated);
        assert_eq!(r.session.playback.frames, 36);
    }

    #[test]
    fn faulty_report_serialises_for_tooling() {
        let mut cfg = config(QualityLevel::Q5);
        cfg.faults = FaultConfig::lossy(1, 0.1);
        let r = run_session_faulty(cfg).unwrap();
        let json = annolight_support::json::to_string(&r);
        let back: FaultySessionReport = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(back.session.stream_bytes, r.session.stream_bytes);
        assert_eq!(back.faults.channel.dropped, r.faults.channel.dropped);
        assert_eq!(back.events.len(), r.events.len());
    }

    #[test]
    fn quality_sweep_is_monotone() {
        let mut last = -1.0;
        for q in [QualityLevel::Q0, QualityLevel::Q10, QualityLevel::Q20] {
            let r = run_session(config(q)).unwrap();
            let s = r.playback.total_savings();
            assert!(s + 1e-9 >= last, "saving {s} decreased at {q:?}");
            last = s;
        }
    }
}
