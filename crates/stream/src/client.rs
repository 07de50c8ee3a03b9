//! The playback client.
//!
//! "The only extra operation that the device has to perform during
//! playback is to adjust the backlight level periodically, according to
//! the annotations in the video stream." The client decodes the stream,
//! reads the annotation track from the user data (before decoding any
//! picture), drives the backlight controller, and accounts energy with the
//! device + system power models — producing the measured numbers behind
//! Fig. 10.

use crate::faults::{
    AnnotationArrivals, DegradationConfig, DegradationEvent, DegradationKind, DegradedPlayback,
};
use annolight_codec::{CodecError, Decoder, EncodedStream};
use annolight_core::track::AnnotationTrack;
use annolight_display::{BacklightController, BacklightLevel, ControllerConfig, DeviceProfile, SwitchStats};
use annolight_imgproc::Yuv420Frame;
use annolight_power::{EnergyMeter, SystemPowerModel};
use std::error::Error;
use std::fmt;

/// Fraction of CPU time spent decoding while playing (XScale 400 MHz
/// decoding QVGA-class MPEG in software runs near saturation).
pub(crate) const DECODE_CPU_BUSY: f64 = 0.75;

/// Extra CPU-busy fraction charged per backlight switch — "because
/// adjustments are not performed very often, the amount of work is
/// negligible" (a multiplication and a table look-up).
const SWITCH_CPU_COST: f64 = 1e-4;

/// Errors during playback.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlaybackError {
    /// The bitstream failed to decode.
    Codec(CodecError),
    /// The embedded annotation track was malformed.
    BadTrack(String),
    /// The annotation track targets a different device.
    DeviceMismatch {
        /// Device named in the track.
        track_device: String,
        /// The client's actual device.
        client_device: String,
    },
}

impl fmt::Display for PlaybackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaybackError::Codec(e) => write!(f, "decode failed: {e}"),
            PlaybackError::BadTrack(r) => write!(f, "bad annotation track: {r}"),
            PlaybackError::DeviceMismatch { track_device, client_device } => write!(
                f,
                "annotation track is for {track_device} but this client is {client_device}"
            ),
        }
    }
}

impl Error for PlaybackError {}

impl From<CodecError> for PlaybackError {
    fn from(e: CodecError) -> Self {
        PlaybackError::Codec(e)
    }
}

/// The result of playing one stream to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackReport {
    /// Number of frames decoded and displayed.
    pub frames: u32,
    /// Playback duration, seconds.
    pub duration_s: f64,
    /// Total device energy with annotations applied, joules.
    pub energy_j: f64,
    /// Total device energy the same playback would use at full backlight.
    pub baseline_energy_j: f64,
    /// Mean total device power, watts.
    pub avg_power_w: f64,
    /// Backlight subsystem energy, joules.
    pub backlight_energy_j: f64,
    /// Whether an annotation track was found and applied.
    pub annotated: bool,
    /// Whether DVFS hints were found and applied.
    pub dvfs_applied: bool,
    /// Backlight switching statistics.
    pub switches: SwitchStats,
    /// Mean backlight level over the session.
    pub mean_backlight: f64,
}

annolight_support::impl_json!(struct PlaybackReport { frames, duration_s, energy_j, baseline_energy_j, avg_power_w, backlight_energy_j, annotated, dvfs_applied, switches, mean_backlight });

impl PlaybackReport {
    /// Fractional total-device power saving vs. full backlight — the
    /// per-clip quantity of Fig. 10.
    pub fn total_savings(&self) -> f64 {
        if self.baseline_energy_j <= 0.0 {
            0.0
        } else {
            1.0 - self.energy_j / self.baseline_energy_j
        }
    }
}

/// The handheld playback client.
#[derive(Debug, Clone)]
pub struct PlaybackClient {
    device: DeviceProfile,
    system: SystemPowerModel,
    controller: ControllerConfig,
    /// WNIC receive duty cycle during playback (1.0 = continuous
    /// reception; below 1 models annotation-driven burst prefetching,
    /// §3's "network packet optimizations").
    wnic_duty: f64,
}

impl PlaybackClient {
    /// Creates a client for `device` with the given system power model.
    pub fn new(device: DeviceProfile, system: SystemPowerModel) -> Self {
        Self { device, system, controller: ControllerConfig::default(), wnic_duty: 1.0 }
    }

    /// Sets the WNIC receive duty cycle (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn with_wnic_duty(mut self, duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "wnic duty {duty} outside [0, 1]");
        self.wnic_duty = duty;
        self
    }

    /// Overrides the backlight controller configuration.
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = controller;
        self
    }

    /// The client's device profile (what it sends in the negotiation
    /// phase).
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Plays a stream to completion, returning the energy report.
    ///
    /// An annotation track found in the stream's user data is applied; a
    /// stream without one plays at full backlight. Optionally `meter`
    /// receives a per-component energy breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`PlaybackError`] for codec failures, malformed tracks, or
    /// a track targeting a different device.
    pub fn play(
        &self,
        stream: &EncodedStream,
        meter: Option<&EnergyMeter>,
    ) -> Result<PlaybackReport, PlaybackError> {
        self.play_loop(stream, meter, |frame, _now, track| match track {
            Some(t) => Ok(t
                .entry_at(frame.min(t.frame_count().saturating_sub(1)))
                .map_err(|e| PlaybackError::BadTrack(e.to_string()))?
                .backlight),
            None => Ok(BacklightLevel::MAX),
        })
    }

    /// Scans the stream's user data for the annotation track and DVFS
    /// hints, validating the track against this client's device.
    #[allow(clippy::type_complexity)]
    fn scan_user_data(
        &self,
        dec: &Decoder,
    ) -> Result<
        (Option<AnnotationTrack>, Option<Vec<annolight_core::extensions::DvfsHint>>),
        PlaybackError,
    > {
        // Annotations are available before any picture is decoded (§3).
        // User-data payloads are distinguished by magic: `ALT1` is the
        // backlight track, `ADV1` a DVFS hint packet.
        let mut track: Option<AnnotationTrack> = None;
        let mut hints: Option<Vec<annolight_core::extensions::DvfsHint>> = None;
        for bytes in dec.user_data() {
            if annolight_core::extensions::is_dvfs_payload(bytes) {
                hints = Some(
                    annolight_core::extensions::hints_from_bytes(bytes)
                        .map_err(|e| PlaybackError::BadTrack(e.to_string()))?,
                );
            } else if track.is_none() {
                let t = AnnotationTrack::from_rle_bytes(bytes)
                    .map_err(|e| PlaybackError::BadTrack(e.to_string()))?;
                if t.device_name() != self.device.name() {
                    return Err(PlaybackError::DeviceMismatch {
                        track_device: t.device_name().to_owned(),
                        client_device: self.device.name().to_owned(),
                    });
                }
                track = Some(t);
            }
        }
        Ok((track, hints))
    }

    /// The shared playback loop. `desired` picks the backlight level to
    /// *request* for each frame (given the frame index, the playback time
    /// and the embedded track); everything else — decoding, the
    /// controller, the power integration — is identical between the
    /// lossless and degraded paths, which is what makes their reports
    /// byte-identical when every annotation arrives on time.
    fn play_loop(
        &self,
        stream: &EncodedStream,
        meter: Option<&EnergyMeter>,
        mut desired: impl FnMut(u32, f64, Option<&AnnotationTrack>) -> Result<BacklightLevel, PlaybackError>,
    ) -> Result<PlaybackReport, PlaybackError> {
        let mut dec = Decoder::new(stream)?;
        let (track, hints) = self.scan_user_data(&dec)?;

        let fps = dec.fps().max(f64::EPSILON);
        let dt = 1.0 / fps;
        let mut controller = BacklightController::new(self.controller);
        let mut frames = 0u32;
        let mut energy = 0.0f64;
        let mut baseline = 0.0f64;
        let mut backlight_energy = 0.0f64;
        let mut level_sum = 0.0f64;

        // Nothing here reads the pixels — the client's one extra job is the
        // backlight — so pictures decode into one reused 4:2:0 frame and
        // are never converted to RGB.
        let (w, h) = dec.dimensions();
        let mut picture =
            Yuv420Frame::new(w, h).map_err(|_| CodecError::BadDimensions { width: w, height: h })?;
        while dec.decode_next_yuv_into(&mut picture)? {
            let now = f64::from(frames) * dt;
            let want = desired(frames, now, track.as_ref())?;
            let level = controller.request(now, want);
            let backlight_w = self.device.backlight_power().power_w(level);
            let full_w = self.device.backlight_power().power_w(BacklightLevel::MAX);
            let switch_cost = SWITCH_CPU_COST * controller.stats().switches as f64;
            // With DVFS hints the decoder runs at the annotated frequency:
            // busier per cycle, but far cheaper per cycle.
            let p = match hints
                .as_deref()
                .and_then(|h| annolight_core::extensions::hint_for_frame(h, frames))
            {
                Some(h) => {
                    let busy = (h.busy_at(h.frequency) + switch_cost).min(1.0);
                    // DVFS scales the CPU term; the WNIC duty is applied on
                    // top by subtracting the idle↔rx difference saved.
                    let full_duty =
                        self.system.power_w_dvfs(busy, h.frequency.relative_power(), true, backlight_w);
                    full_duty
                        - (1.0 - self.wnic_duty) * (self.system.wnic_rx_w - self.system.wnic_idle_w)
                }
                None => self.system.power_w_duty(
                    (DECODE_CPU_BUSY + switch_cost).min(1.0),
                    self.wnic_duty,
                    backlight_w,
                ),
            };
            let p_base = self.system.power_w(DECODE_CPU_BUSY, true, full_w);
            energy += p * dt;
            baseline += p_base * dt;
            backlight_energy += backlight_w * dt;
            level_sum += f64::from(level.0);
            if let Some(m) = meter {
                m.add("backlight", backlight_w * dt);
                m.add("system", (p - backlight_w) * dt);
            }
            frames += 1;
        }

        let duration = f64::from(frames) * dt;
        Ok(PlaybackReport {
            frames,
            duration_s: duration,
            energy_j: energy,
            baseline_energy_j: baseline,
            avg_power_w: if duration > 0.0 { energy / duration } else { 0.0 },
            backlight_energy_j: backlight_energy,
            annotated: track.is_some(),
            dvfs_applied: hints.is_some(),
            switches: controller.stats(),
            mean_backlight: if frames > 0 { level_sum / f64::from(frames) } else { 255.0 },
        })
    }

    /// Plays a stream whose annotation hints crossed a lossy hop.
    ///
    /// `arrivals` records when each scene's hint reached the client (see
    /// [`crate::faults::LossyEngine`]). A scene whose hint is present by
    /// the time its first frame displays plays exactly as [`Self::play`]
    /// would; a missing hint triggers the graceful-degradation policy in
    /// `degradation` — hold the last annotated level for a few frames,
    /// then slew gently toward full backlight (always-safe brightness,
    /// bounded step size, so no flicker) — and a hint that lands mid-scene
    /// is applied from that frame on. Every transition is recorded as a
    /// [`DegradationEvent`]; identical seeds produce byte-identical logs.
    ///
    /// With every hint on time the returned report is *byte-identical* to
    /// [`Self::play`] — the two paths share one playback loop.
    ///
    /// # Errors
    ///
    /// Returns [`PlaybackError`] for the same conditions as
    /// [`Self::play`].
    pub fn play_degraded(
        &self,
        stream: &EncodedStream,
        arrivals: &AnnotationArrivals,
        degradation: DegradationConfig,
        meter: Option<&EnergyMeter>,
    ) -> Result<DegradedPlayback, PlaybackError> {
        let mut events: Vec<DegradationEvent> = Vec::new();
        let mut degraded_frames = 0u32;
        let mut error_sum = 0.0f64;
        let mut last_good = BacklightLevel::MAX;
        let mut degraded_since: Option<u32> = None;
        let mut missing_seq: Option<u32> = None;

        let report = self.play_loop(stream, meter, |frame, now, track| {
            let Some(t) = track else { return Ok(BacklightLevel::MAX) };
            let entries = t.entries();
            let f = frame.min(t.frame_count().saturating_sub(1));
            let idx = match entries.binary_search_by_key(&f, |e| e.start_frame) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let annotated = entries[idx].backlight;
            if arrivals.arrived_by(idx, now) {
                if missing_seq.take() == Some(idx as u32) {
                    // The hint landed mid-scene: recover from this frame.
                    events.push(DegradationEvent {
                        frame,
                        seq: idx as u32,
                        kind: DegradationKind::Recovered,
                        level: annotated.0,
                    });
                }
                degraded_since = None;
                last_good = annotated;
                return Ok(annotated);
            }
            if missing_seq != Some(idx as u32) {
                missing_seq = Some(idx as u32);
                degraded_since = Some(frame);
                events.push(DegradationEvent {
                    frame,
                    seq: idx as u32,
                    kind: DegradationKind::Missed,
                    level: last_good.0,
                });
            }
            let held = frame - degraded_since.unwrap_or(frame);
            let level = if held < degradation.hold_frames {
                // Hold: the last annotated level stays a good guess for a
                // short while (scenes change slowly).
                last_good
            } else {
                // Slew toward full backlight — always legible, and the
                // bounded step keeps the ramp invisible.
                let ramp = u32::from(degradation.ramp_step_per_frame)
                    * (held - degradation.hold_frames + 1);
                BacklightLevel((u32::from(last_good.0) + ramp).min(255) as u8)
            };
            degraded_frames += 1;
            error_sum += f64::from(level.0.abs_diff(annotated.0));
            Ok(level)
        })?;

        // Post-hoc: hints that arrived only after their whole scene had
        // played (useless arrivals — the scene degraded start to finish).
        if report.annotated && !arrivals.is_empty() {
            let dec = Decoder::new(stream)?;
            if let (Some(t), _) = self.scan_user_data(&dec)? {
                let fps = stream.fps().max(f64::EPSILON);
                let entries = t.entries();
                for (i, e) in entries.iter().enumerate() {
                    let end_frame =
                        entries.get(i + 1).map_or(t.frame_count(), |n| n.start_frame);
                    let last_frame_s = f64::from(end_frame.saturating_sub(1)) / fps;
                    if let Some(a) = arrivals.arrival_s(i) {
                        if a > arrivals.startup_s() + last_frame_s {
                            events.push(DegradationEvent {
                                frame: end_frame.saturating_sub(1).min(report.frames.saturating_sub(1)),
                                seq: i as u32,
                                kind: DegradationKind::Late,
                                level: e.backlight.0,
                            });
                        }
                    }
                }
            }
            events.sort_by_key(|e| (e.frame, e.seq));
        }

        let perceived_error = if report.frames > 0 {
            error_sum / (255.0 * f64::from(report.frames))
        } else {
            0.0
        };
        Ok(DegradedPlayback { report, events, degraded_frames, perceived_error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{MediaServer, ServeRequest};
    use annolight_codec::EncoderConfig;
    use annolight_core::track::AnnotationMode;
    use annolight_core::QualityLevel;
    use annolight_video::ClipLibrary;

    fn served(quality: QualityLevel) -> annolight_codec::EncodedStream {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(4.0);
        let mut server = MediaServer::new(EncoderConfig::default());
        server.add_clip(clip);
        server
            .serve(&ServeRequest {
                clip_name: "themovie".into(),
                device: DeviceProfile::ipaq_5555(),
                quality,
                mode: AnnotationMode::PerScene,
                dvfs: false,
                policy: annolight_core::PolicyKind::PeakClip,
            })
            .unwrap()
            .stream
    }

    fn client() -> PlaybackClient {
        PlaybackClient::new(DeviceProfile::ipaq_5555(), SystemPowerModel::ipaq_5555())
    }

    #[test]
    fn annotated_playback_saves_total_power() {
        let report = client().play(&served(QualityLevel::Q10), None).unwrap();
        assert!(report.annotated);
        assert!(report.frames > 0);
        let s = report.total_savings();
        assert!(s > 0.02 && s < 0.30, "total savings {s}");
        assert!(report.mean_backlight < 255.0);
    }

    #[test]
    fn unannotated_stream_plays_at_full_backlight() {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(2.0);
        let (w, h) = clip.dimensions();
        let mut enc = annolight_codec::Encoder::new(EncoderConfig {
            width: w,
            height: h,
            fps: clip.fps(),
            ..EncoderConfig::default()
        })
        .unwrap();
        for f in clip.frames() {
            enc.push_frame(&f).unwrap();
        }
        let report = client().play(&enc.finish(), None).unwrap();
        assert!(!report.annotated);
        assert!(report.total_savings().abs() < 1e-9);
        assert_eq!(report.mean_backlight, 255.0);
    }

    #[test]
    fn device_mismatch_is_detected() {
        let stream = served(QualityLevel::Q10); // annotated for ipaq-5555
        let wrong =
            PlaybackClient::new(DeviceProfile::ipaq_3650(), SystemPowerModel::ipaq_5555());
        assert!(matches!(
            wrong.play(&stream, None),
            Err(PlaybackError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn higher_quality_loss_saves_more() {
        let low = client().play(&served(QualityLevel::Q0), None).unwrap();
        let high = client().play(&served(QualityLevel::Q20), None).unwrap();
        assert!(high.total_savings() > low.total_savings());
    }

    #[test]
    fn dvfs_hints_add_savings_on_top_of_backlight() {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(4.0);
        let mut server = MediaServer::new(EncoderConfig::default());
        server.add_clip(clip);
        let base_req = ServeRequest::new("themovie", DeviceProfile::ipaq_5555(), QualityLevel::Q10);
        let plain = server.serve(&base_req).unwrap().stream;
        let dvfs = server.serve(&base_req.clone().with_dvfs()).unwrap().stream;

        let c = client();
        let plain_report = c.play(&plain, None).unwrap();
        let dvfs_report = c.play(&dvfs, None).unwrap();
        assert!(!plain_report.dvfs_applied);
        assert!(dvfs_report.dvfs_applied);
        assert!(
            dvfs_report.total_savings() > plain_report.total_savings(),
            "dvfs {} vs plain {}",
            dvfs_report.total_savings(),
            plain_report.total_savings()
        );
    }

    #[test]
    fn meter_breakdown_matches_total() {
        let meter = EnergyMeter::new();
        let report = client().play(&served(QualityLevel::Q10), Some(&meter)).unwrap();
        let sum = meter.total_j();
        assert!((sum - report.energy_j).abs() < 1e-6, "meter {sum} vs report {}", report.energy_j);
        assert!(meter.component_j("backlight") > 0.0);
    }

    #[test]
    fn degraded_with_punctual_arrivals_matches_plain_play() {
        let stream = served(QualityLevel::Q10);
        let c = client();
        let plain = c.play(&stream, None).unwrap();
        let deg = c
            .play_degraded(
                &stream,
                &AnnotationArrivals::punctual(64),
                DegradationConfig::default(),
                None,
            )
            .unwrap();
        // Byte-identical: the two paths share one playback loop.
        assert_eq!(deg.report, plain);
        assert!(deg.events.is_empty());
        assert_eq!(deg.degraded_frames, 0);
        assert_eq!(deg.perceived_error, 0.0);
    }

    #[test]
    fn missing_hints_hold_then_ramp_to_full() {
        let stream = served(QualityLevel::Q20);
        let c = client();
        let none = AnnotationArrivals::new(0.0, 12.0, vec![0.0; 64], vec![None; 64]);
        let deg = c
            .play_degraded(
                &stream,
                &none,
                DegradationConfig { hold_frames: 2, ramp_step_per_frame: 50 },
                None,
            )
            .unwrap();
        assert!(deg.degraded_frames > 0);
        assert!(deg.perceived_error > 0.0);
        assert!(deg.events.iter().any(|e| e.kind == DegradationKind::Missed));
        // The ramp heads toward full backlight: never darker than the
        // annotated schedule would have been on average.
        let plain = c.play(&stream, None).unwrap();
        assert!(deg.report.mean_backlight >= plain.mean_backlight);
    }

    #[test]
    fn late_hint_triggers_missed_then_recovered() {
        let stream = served(QualityLevel::Q10);
        let fps = stream.fps();
        let mut arr = vec![Some(0.0); 64];
        arr[0] = Some(5.5 / fps); // scene 0's hint lands ~6 frames late
        let arrivals = AnnotationArrivals::new(0.0, fps, vec![0.0; 64], arr);
        let c = client();
        let deg = c
            .play_degraded(&stream, &arrivals, DegradationConfig::default(), None)
            .unwrap();
        let kinds: Vec<_> = deg.events.iter().map(|e| (e.seq, e.kind)).collect();
        assert!(kinds.contains(&(0, DegradationKind::Missed)));
        assert!(kinds.contains(&(0, DegradationKind::Recovered)));
        assert!(deg.degraded_frames >= 5);
        // Identical inputs replay to a byte-identical event log.
        let again = c
            .play_degraded(&stream, &arrivals, DegradationConfig::default(), None)
            .unwrap();
        assert_eq!(
            annolight_support::json::to_string(&deg.events),
            annolight_support::json::to_string(&again.events)
        );
    }

    #[test]
    fn energy_is_power_times_time() {
        let report = client().play(&served(QualityLevel::Q10), None).unwrap();
        assert!((report.avg_power_w * report.duration_s - report.energy_j).abs() < 1e-9);
        assert!(report.avg_power_w > 1.5 && report.avg_power_w < 4.0);
    }
}
