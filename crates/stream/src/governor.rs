//! Closed-loop governed sessions: fit this playback into N joules.
//!
//! Wires the [`annolight_core::governor`] control law into the session
//! tier. The server negotiates as usual and additionally prepares a
//! per-quality **plan ladder** (one [`BacklightPlan`] per offered level,
//! sharing one scene detection); the client then plays scene by scene
//! under the governor:
//!
//! 1. each scene, project the energy of *everything still to play* at
//!    every ladder level — plan backlight × device transfer × system
//!    power model × duration, the same per-frame arithmetic the playback
//!    client integrates;
//! 2. read the device state: remaining joule budget (derated to the
//!    battery charge), the thermal Schmitt trigger, the ambient light
//!    sensor (a seeded per-scene stream);
//! 3. run the knob search + hysteresis ([`QualityGovernor::decide`]);
//! 4. ship the decision upstream as a [`GovernorFeedback`] packet over
//!    the same sequence-numbered hint channel the annotation deltas ride
//!    (`StreamPacket::delta` wire round-trip — the server re-plans the
//!    remainder of the session from the *decoded* packet, so the wire
//!    format is load-bearing);
//! 5. play the scene from the plan at the actuated knob, drain the
//!    battery, integrate the thermal state.
//!
//! The hint stream first crosses the hop in [`SessionConfig::faults`]:
//! retransmission energy is debited against the budget *before* the
//! first scene plays, and a scene whose hint missed its deadline plays at
//! full backlight at every knob — the governor compensates on the scenes
//! it still controls. A lossless hop loses nothing and draws no channel
//! randomness the governor can see, so its trace does not depend on the
//! channel seed.
//!
//! [`run_session_governed`] runs the one session machine
//! ([`crate::machine::SessionMachine`]) alone, and the reactor hosts the
//! same machine, so governor traces are byte-identical across hosts and
//! worker counts by construction.

use crate::client::DECODE_CPU_BUSY;
use crate::faults::{AnnotationArrivals, LossyDelivery};
use crate::message::StreamPacket;
use crate::session::{
    burst_wnic_duty, negotiate_and_serve_at, retransmit_energy_j, SessionConfig, SessionError,
};
use annolight_codec::{Decoder, EncodedStream};
use annolight_core::extensions::DvfsHint;
use annolight_core::governor::{
    trace_digest, GovernorControl, GovernorEvent, GovernorFeedback,
    QualityGovernor, ThermalModel, ThermalState,
};
use annolight_core::scenes::SceneSpan;
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::{Annotator, LuminanceProfile, QualityLevel};
use annolight_display::BacklightLevel;
use annolight_power::{Battery, BatteryState, SystemPowerModel};
use annolight_support::rng::SmallRng;

/// RNG stream id for the ambient light sensor (one draw per scene).
const AMBIENT_STREAM: u64 = 11;

/// Ambient light below which the eye fully resolves backlight error,
/// lux; brighter surroundings mask it (the `ext_ambient` model).
const AMBIENT_MASK_LUX: f64 = 300.0;

/// A governed session: the usual [`SessionConfig`] plus the joule
/// budget and the device-state models the governor reads.
#[derive(Debug, Clone)]
pub struct GovernorSessionConfig {
    /// The underlying session (clip, device, requested quality, channel,
    /// power model, extensions, faults). Governed sessions use per-scene
    /// annotation mode.
    pub session: SessionConfig,
    /// The whole-session energy budget, joules. Always derated to the
    /// battery charge at every decision point.
    pub budget_j: f64,
    /// The battery pack model.
    pub battery: Battery,
    /// Initial charge as a fraction of usable energy.
    pub battery_fraction: f64,
    /// Control-law parameters (ladder, hysteresis).
    pub control: GovernorControl,
    /// The thermal model.
    pub thermal: ThermalModel,
    /// Seed for the ambient light sensor stream (one lux draw per
    /// scene; weights the perceived-quality error).
    pub ambient_seed: u64,
}

impl GovernorSessionConfig {
    /// A governed session over the default lossless hop with a full
    /// iPAQ pack and the paper's quality ladder.
    #[must_use]
    pub fn new(session: SessionConfig, budget_j: f64) -> Self {
        Self {
            session,
            budget_j,
            battery: Battery::ipaq_5555(),
            battery_fraction: 1.0,
            control: GovernorControl::default(),
            thermal: ThermalModel::ipaq_passive(),
            ambient_seed: 0,
        }
    }

    /// Sets the ambient sensor seed.
    #[must_use]
    pub fn with_ambient_seed(mut self, seed: u64) -> Self {
        self.ambient_seed = seed;
        self
    }
}

/// The outcome of a governed session — the deterministic artefact the
/// budget conformance tier double-runs and byte-compares.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernedSessionReport {
    /// The negotiated quality (the user's request, granted).
    pub granted_quality: QualityLevel,
    /// The configured session budget, joules.
    pub budget_j: f64,
    /// The budget after battery derating at session start, joules.
    pub effective_budget_j: f64,
    /// Playback energy under governance, joules.
    pub playback_energy_j: f64,
    /// Retransmission energy debited against the budget, joules.
    pub retransmit_energy_j: f64,
    /// Everything charged against the budget, joules.
    pub total_j: f64,
    /// Whether the session landed within the effective budget.
    pub within_budget: bool,
    /// Whether any scene found no knob that fit (best-effort floor).
    pub infeasible: bool,
    /// Projected energy at the granted quality, joules (what the
    /// session would have cost open-loop).
    pub requested_energy_j: f64,
    /// Energy at full backlight without annotations, joules.
    pub full_energy_j: f64,
    /// Fractional saving vs. the open-loop granted quality.
    pub savings_vs_requested: f64,
    /// Fractional saving vs. full backlight.
    pub savings_vs_full: f64,
    /// Perceived-quality error: mean per-frame backlight *shortfall*
    /// below the granted-quality plan (playing at or above the request
    /// is not a loss), visibility-weighted by ambient light, in
    /// `[0, 1]`.
    pub quality_error: f64,
    /// Scenes that played at full backlight because their hint missed
    /// its deadline.
    pub degraded_scenes: u32,
    /// Scenes decided under thermal throttling.
    pub throttled_scenes: u32,
    /// Hint packets lost on the hop (0 over a lossless hop).
    pub deltas_lost: u64,
    /// Link-layer retransmissions spent (0 over a lossless hop).
    pub retransmits: u64,
    /// Battery charge remaining after the session, joules.
    pub final_battery_j: f64,
    /// Case temperature after the session, °C.
    pub final_temp_c: f64,
    /// Frames played.
    pub frames: u32,
    /// Playback duration, seconds.
    pub duration_s: f64,
    /// Scenes governed.
    pub scenes: u32,
    /// Stream size delivered, bytes.
    pub stream_bytes: usize,
    /// FNV-1a digest of the governor trace, hex.
    pub trace_hex: String,
    /// The per-scene governor trace.
    pub events: Vec<GovernorEvent>,
}

annolight_support::impl_json!(struct GovernedSessionReport { granted_quality, budget_j, effective_budget_j, playback_energy_j, retransmit_energy_j, total_j, within_budget, infeasible, requested_energy_j, full_energy_j, savings_vs_requested, savings_vs_full, quality_error, degraded_scenes, throttled_scenes, deltas_lost, retransmits, final_battery_j, final_temp_c, frames, duration_s, scenes, stream_bytes, trace_hex, events });

// ---------------------------------------------------------------------------
// Server-side preparation: the plan ladder.
// ---------------------------------------------------------------------------

/// Everything the governed playback loop needs, computed once per
/// session from the served stream: the scene spans, one plan per ladder
/// level (shared spans), the scene → hint-sequence map, the DVFS hints,
/// and the precomputed per-knob per-scene backlight wattages.
#[derive(Debug)]
pub(crate) struct GovernedPrep {
    pub(crate) granted: QualityLevel,
    pub(crate) requested_knob: usize,
    pub(crate) fps: f64,
    pub(crate) frames: u32,
    pub(crate) spans: Vec<SceneSpan>,
    /// `[knob][scene]` backlight power, watts.
    pub(crate) backlight_w: Vec<Vec<f64>>,
    /// Backlight power at `BacklightLevel::MAX`, watts.
    pub(crate) full_w: f64,
    /// Backlight levels `[knob][scene]` (for the quality-error metric).
    pub(crate) levels: Vec<Vec<u8>>,
    /// Scene → canonical hint sequence number.
    pub(crate) scene_seq: Vec<usize>,
    pub(crate) hints: Option<Vec<DvfsHint>>,
    pub(crate) wnic_duty: f64,
    pub(crate) stream_bytes: usize,
}

impl GovernedPrep {
    /// Builds the ladder for a served stream. `config` is the
    /// post-negotiation session config (its quality is the granted one).
    fn build(
        stream: &EncodedStream,
        config: &SessionConfig,
        control: &GovernorControl,
    ) -> Result<Self, SessionError> {
        let granted = config.quality;
        control.validate();
        let pipeline = |e: String| SessionError::Pipeline(e);

        // The embedded track (for the hint-sequence map) and DVFS hints,
        // exactly as the playback client scans them.
        let dec = Decoder::new(stream).map_err(|e| pipeline(e.to_string()))?;
        let mut track: Option<AnnotationTrack> = None;
        let mut hints: Option<Vec<DvfsHint>> = None;
        for bytes in dec.user_data() {
            if annolight_core::extensions::is_dvfs_payload(bytes) {
                hints = Some(
                    annolight_core::extensions::hints_from_bytes(bytes)
                        .map_err(|e| pipeline(e.to_string()))?,
                );
            } else if track.is_none() {
                track = Some(
                    AnnotationTrack::from_rle_bytes(bytes).map_err(|e| pipeline(e.to_string()))?,
                );
            }
        }
        let track = track
            .ok_or_else(|| pipeline("governed session needs an annotated stream".into()))?;

        // The plan ladder: one profile pass, one plan per ladder level
        // (the same annotator pipeline the server ran for the granted
        // level, so scene spans line up with the served track).
        let profile =
            LuminanceProfile::of_clip(&config.clip).map_err(|e| pipeline(e.to_string()))?;
        let mut spans: Option<Vec<SceneSpan>> = None;
        let mut backlight_w: Vec<Vec<f64>> = Vec::with_capacity(control.levels.len());
        let mut levels: Vec<Vec<u8>> = Vec::with_capacity(control.levels.len());
        for &level in &control.levels {
            let annotated = Annotator::new(config.device.clone(), level)
                .with_mode(AnnotationMode::PerScene)
                .with_policy(config.policy)
                .annotate_profile(&profile)
                .map_err(|e| pipeline(e.to_string()))?;
            let plan = annotated.plan();
            if spans.is_none() {
                spans = Some(plan.scenes().iter().map(|s| s.span).collect());
            }
            backlight_w.push(
                plan.scenes()
                    .iter()
                    .map(|s| config.device.backlight_power().power_w(s.backlight))
                    .collect(),
            );
            levels.push(plan.scenes().iter().map(|s| s.backlight.0).collect());
        }
        let spans = spans.expect("ladder has at least one level");

        // Scene → canonical hint sequence: the served track, RLE-merged,
        // is what crossed (or failed to cross) the lossy hop.
        let entries = track.canonicalized();
        let entries = entries.entries();
        let scene_seq: Vec<usize> = spans
            .iter()
            .map(|span| {
                match entries.binary_search_by_key(&span.start, |e| e.start_frame) {
                    Ok(i) => i,
                    Err(i) => i.saturating_sub(1),
                }
            })
            .collect();

        let fps = stream.fps().max(f64::EPSILON);
        let frames = stream.frame_count();
        let wnic_duty = burst_wnic_duty(stream, &config.channel, config.burst_prefetch);
        let requested_knob = control
            .levels
            .iter()
            .position(|&l| (l.clip_fraction() - granted.clip_fraction()).abs() < 1e-12)
            .unwrap_or(0);
        Ok(Self {
            granted,
            requested_knob,
            fps,
            frames,
            spans,
            backlight_w,
            full_w: config.device.backlight_power().power_w(BacklightLevel::MAX),
            levels,
            scene_seq,
            hints: if config.dvfs { hints } else { None },
            wnic_duty,
            stream_bytes: stream.as_bytes().len(),
        })
    }

    /// Mean device power during `scene` at `knob`, watts — the same
    /// per-frame expression [`crate::client::PlaybackClient`] integrates
    /// (sans the negligible per-switch microcost). A scene whose hint is
    /// missing plays at full backlight at every knob.
    fn scene_power_w(
        &self,
        system: &SystemPowerModel,
        knob: usize,
        scene: usize,
        hint_present: bool,
    ) -> f64 {
        let backlight_w =
            if hint_present { self.backlight_w[knob][scene] } else { self.full_w };
        let span = self.spans[scene];
        match self
            .hints
            .as_deref()
            .and_then(|h| annolight_core::extensions::hint_for_frame(h, span.start))
        {
            Some(h) => {
                let busy = h.busy_at(h.frequency).min(1.0);
                system.power_w_dvfs(busy, h.frequency.relative_power(), true, backlight_w)
                    - (1.0 - self.wnic_duty) * (system.wnic_rx_w - system.wnic_idle_w)
            }
            None => system.power_w_duty(DECODE_CPU_BUSY, self.wnic_duty, backlight_w),
        }
    }

    /// Energy of `scene` at `knob`, joules.
    fn scene_energy_j(
        &self,
        system: &SystemPowerModel,
        knob: usize,
        scene: usize,
        hint_present: bool,
    ) -> f64 {
        self.scene_power_w(system, knob, scene, hint_present)
            * (f64::from(self.spans[scene].len()) / self.fps)
    }

    /// Projected energy of scenes `from..` at every knob, given the
    /// per-scene hint availability. Monotone non-increasing in the knob
    /// (deeper clipping never brightens a scene).
    fn projections_from(
        &self,
        system: &SystemPowerModel,
        from: usize,
        hint_present: &dyn Fn(usize) -> bool,
    ) -> Vec<f64> {
        (0..self.backlight_w.len())
            .map(|k| {
                (from..self.spans.len())
                    .map(|s| self.scene_energy_j(system, k, s, hint_present(s)))
                    .sum()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The scene driver.
// ---------------------------------------------------------------------------

/// The governed playback loop as a resumable scene-stepper: the reactor
/// machine drives it one scene per step.
#[derive(Debug)]
pub(crate) struct GovernorDriver {
    prep: GovernedPrep,
    system: SystemPowerModel,
    governor: QualityGovernor,
    thermal_model: ThermalModel,
    thermal: ThermalState,
    battery: BatteryState,
    ambient: SmallRng,
    budget_j: f64,
    effective_budget_j: f64,
    spent_j: f64,
    /// When each hint reached the client.
    arrivals: AnnotationArrivals,
    retransmit_energy_j: f64,
    retransmits: u64,
    deltas_lost: u64,
    scene: usize,
    seq: u32,
    events: Vec<GovernorEvent>,
    err_weighted_frames: f64,
    degraded_scenes: u32,
    throttled_scenes: u32,
    infeasible: bool,
}

impl GovernorDriver {
    /// A driver for `prep`, after the hint stream crossed the hop as
    /// `lossy` records.
    pub(crate) fn new(
        prep: GovernedPrep,
        cfg: &GovernorSessionConfig,
        lossy: LossyDelivery,
    ) -> Self {
        let mut battery = BatteryState::at_fraction(cfg.battery, cfg.battery_fraction);
        let effective_budget_j = battery.budget_clamp_j(cfg.budget_j);
        let retransmits = lossy.report.channel.retransmits;
        let retransmit_energy_j =
            retransmit_energy_j(retransmits, &cfg.session.channel, &cfg.session.system);
        // Retransmissions already happened when playback starts: debit
        // them against the budget (and the pack) before scene 0.
        battery.drain_j(retransmit_energy_j.min(battery.remaining_j()));
        let governor =
            QualityGovernor::new(cfg.control.clone()).with_knob(prep.requested_knob);
        Self {
            system: cfg.session.system.clone(),
            governor,
            thermal_model: cfg.thermal,
            thermal: cfg.thermal.start(),
            battery,
            ambient: SmallRng::stream(cfg.ambient_seed, AMBIENT_STREAM),
            budget_j: cfg.budget_j,
            effective_budget_j,
            spent_j: retransmit_energy_j,
            arrivals: lossy.arrivals,
            retransmit_energy_j,
            retransmits,
            deltas_lost: lossy.report.deltas_lost,
            scene: 0,
            seq: 0,
            events: Vec::with_capacity(prep.spans.len()),
            err_weighted_frames: 0.0,
            degraded_scenes: 0,
            throttled_scenes: 0,
            infeasible: false,
            prep,
        }
    }

    fn hint_present(&self, scene: usize) -> bool {
        let now = f64::from(self.prep.spans[scene].start) / self.prep.fps;
        self.arrivals.arrived_by(self.prep.scene_seq[scene], now)
    }

    /// Whether another scene remains to govern.
    pub(crate) fn done(&self) -> bool {
        self.scene >= self.prep.spans.len()
    }

    /// Playback time at which the current scene ends, seconds (the
    /// reactor machine's sleep clock).
    pub(crate) fn scene_end_s(&self) -> f64 {
        let end = self
            .prep
            .spans
            .get(self.scene)
            .map_or(self.prep.frames, |s| s.end);
        f64::from(end) / self.prep.fps
    }

    /// Governs and plays one scene.
    ///
    /// # Errors
    ///
    /// Returns a pipeline error when the upstream feedback packet fails
    /// to round-trip the wire.
    pub(crate) fn step_scene(&mut self) -> Result<(), SessionError> {
        let s = self.scene;
        debug_assert!(s < self.prep.spans.len());
        let span = self.prep.spans[s];

        // Device state at the decision point.
        let lux = 50.0 + self.ambient.gen_f64() * 950.0;
        let throttled = self.thermal.throttled;
        let remaining = self.battery.budget_clamp_j(self.budget_j - self.spent_j);
        let hint_present = self.hint_present(s);

        // Project everything still to play, at every knob.
        let projections = self
            .prep
            .projections_from(&self.system, s, &|t| self.hint_present(t));

        let decision = self.governor.decide(remaining, &projections, throttled);
        if !decision.fits {
            self.infeasible = true;
        }

        // Ship the decision upstream over the hint channel and actuate
        // the *decoded* knob — the wire format is load-bearing.
        let mut flags = 0u8;
        if throttled {
            flags |= GovernorFeedback::FLAG_THROTTLED;
        }
        if !decision.fits {
            flags |= GovernorFeedback::FLAG_BEST_EFFORT;
        }
        let feedback = GovernorFeedback {
            scene: s as u32,
            knob: decision.knob as u8,
            flags,
            remaining_mj: (remaining * 1000.0).round().min(u64::MAX as f64).max(0.0) as u64,
        };
        let wire = StreamPacket::delta(self.seq, feedback.to_bytes()).to_wire();
        self.seq = self.seq.wrapping_add(1);
        let packet = StreamPacket::from_wire(&wire).map_err(SessionError::Pipeline)?;
        let echoed = GovernorFeedback::from_bytes(&packet.payload)
            .map_err(|e| SessionError::Pipeline(e.to_string()))?;
        let knob = usize::from(echoed.knob);

        // Play the scene at the actuated knob.
        let scene_j = self.prep.scene_energy_j(&self.system, knob, s, hint_present);
        let dt = f64::from(span.len()) / self.prep.fps;
        let power_w = if dt > 0.0 { scene_j / dt } else { 0.0 };
        self.spent_j += scene_j;
        self.battery.drain_j(scene_j.min(self.battery.remaining_j()));
        self.thermal.step(&self.thermal_model, power_w, dt);

        // Perceived-quality error vs. the granted-quality plan,
        // one-sided (only a backlight *shortfall* below the requested
        // plan is a quality loss — improvements and the full-backlight
        // missing-hint fallback play at or above the request) and
        // visibility-weighted by ambient light (bright surroundings
        // mask backlight deviation).
        let requested_level = self.prep.levels[self.prep.requested_knob][s];
        let applied_level = if hint_present { self.prep.levels[knob][s] } else { 255 };
        let visibility = (AMBIENT_MASK_LUX / lux.max(AMBIENT_MASK_LUX)).min(1.0);
        self.err_weighted_frames += visibility
            * (f64::from(requested_level.saturating_sub(applied_level)) / 255.0)
            * f64::from(span.len());

        if !hint_present {
            self.degraded_scenes += 1;
        }
        if throttled {
            self.throttled_scenes += 1;
        }
        self.events.push(GovernorEvent {
            scene: s as u32,
            start_frame: span.start,
            knob: knob as u32,
            quality: self.governor.control().levels[knob],
            action: decision.action,
            fits: decision.fits,
            probes: decision.probes,
            projected_j: decision.projected_j,
            scene_j,
            remaining_j: remaining,
            battery_j: self.battery.remaining_j(),
            temp_c: self.thermal.temp_c,
            throttled,
            ambient_lux: lux,
            hint_missing: !hint_present,
        });
        self.scene += 1;
        Ok(())
    }

    /// Assembles the report once every scene has played.
    pub(crate) fn finish(self) -> GovernedSessionReport {
        debug_assert!(self.done());
        let prep = &self.prep;
        let duration = f64::from(prep.frames) / prep.fps;
        // Open-loop baselines: the granted-quality plan with every hint
        // on time, and full backlight without annotations (the client's
        // baseline power expression).
        let requested_energy_j: f64 = (0..prep.spans.len())
            .map(|s| prep.scene_energy_j(&self.system, prep.requested_knob, s, true))
            .sum();
        let full_energy_j =
            self.system.power_w(DECODE_CPU_BUSY, true, prep.full_w) * duration;
        let playback_energy_j = self.spent_j - self.retransmit_energy_j;
        let total_j = self.spent_j;
        let frames_governed: f64 =
            prep.spans.iter().map(|s| f64::from(s.len())).sum();
        let quality_error = if frames_governed > 0.0 {
            self.err_weighted_frames / frames_governed
        } else {
            0.0
        };
        GovernedSessionReport {
            granted_quality: prep.granted,
            budget_j: self.budget_j,
            effective_budget_j: self.effective_budget_j,
            playback_energy_j,
            retransmit_energy_j: self.retransmit_energy_j,
            total_j,
            within_budget: total_j <= self.effective_budget_j + 1e-9,
            infeasible: self.infeasible,
            requested_energy_j,
            full_energy_j,
            savings_vs_requested: if requested_energy_j > 0.0 {
                1.0 - playback_energy_j / requested_energy_j
            } else {
                0.0
            },
            savings_vs_full: if full_energy_j > 0.0 {
                1.0 - playback_energy_j / full_energy_j
            } else {
                0.0
            },
            quality_error,
            degraded_scenes: self.degraded_scenes,
            throttled_scenes: self.throttled_scenes,
            deltas_lost: self.deltas_lost,
            retransmits: self.retransmits,
            final_battery_j: self.battery.remaining_j(),
            final_temp_c: self.thermal.temp_c,
            frames: prep.frames,
            duration_s: duration,
            scenes: prep.spans.len() as u32,
            stream_bytes: prep.stream_bytes,
            trace_hex: format!("{:016x}", trace_digest(&self.events)),
            events: self.events,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Negotiates, serves and prepares the governed session: the served
/// stream, the plan ladder, and the post-negotiation config.
pub(crate) fn prepare_governed(
    cfg: &GovernorSessionConfig,
) -> Result<(EncodedStream, GovernedPrep, SessionConfig), SessionError> {
    // Full resolution always: the governor's ladders price quality levels
    // against a fixed stream geometry, so spatial rescaling is pinned off.
    let (stream, _, config) = negotiate_and_serve_at(cfg.session.clone(), false)?;
    let prep = GovernedPrep::build(&stream, &config, &cfg.control)?;
    Ok((stream, prep, config))
}

/// Runs one governed session with the hint stream crossing the hop in
/// [`SessionConfig::faults`]: retransmission energy is debited against
/// the budget before the first scene, and scenes whose hints missed
/// their deadline play at full backlight — the governor compensates on
/// the scenes it still controls. Over a lossless hop (the default) no
/// hint is lost.
///
/// # Errors
///
/// Returns [`SessionError`] for failures anywhere in the pipeline.
pub fn run_session_governed(
    cfg: GovernorSessionConfig,
) -> Result<GovernedSessionReport, SessionError> {
    crate::machine::govern_alone(cfg)
}

/// Projects the whole-session energy at every ladder level with all
/// hints on time — what tests and benches use to derive joule budgets
/// ("fit this playback into N joules" needs to know what the playback
/// could cost).
///
/// # Errors
///
/// Returns [`SessionError`] for negotiation/pipeline failures.
pub fn governed_projections(cfg: &GovernorSessionConfig) -> Result<Vec<f64>, SessionError> {
    let (_, prep, _) = prepare_governed(cfg)?;
    Ok(prep.projections_from(&cfg.session.system, 0, &|_| true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use annolight_core::governor::GovernorAction;
    use annolight_video::ClipLibrary;

    fn governed(budget_j: f64) -> GovernorSessionConfig {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(3.0);
        GovernorSessionConfig::new(SessionConfig::new(clip, QualityLevel::Q10), budget_j)
    }

    #[test]
    fn loose_budget_plays_at_the_granted_quality() {
        let cfg = governed(1.0e6);
        let ladder = governed_projections(&cfg).unwrap();
        let r = run_session_governed(cfg).unwrap();
        assert!(r.within_budget && !r.infeasible);
        // Never degrades below the request when the budget is loose.
        assert!(r.events.iter().all(|e| e.knob <= 2), "knobs {:?}",
            r.events.iter().map(|e| e.knob).collect::<Vec<_>>());
        assert!((r.playback_energy_j - ladder[2]).abs() < ladder[2] * 0.05 + 1e-9);
        assert_eq!(r.degraded_scenes, 0);
        assert_eq!(r.retransmit_energy_j, 0.0);
    }

    #[test]
    fn tight_budget_degrades_and_still_fits() {
        let ladder = governed_projections(&governed(0.0)).unwrap();
        let budget = ladder[ladder.len() - 1] + 0.05 * (ladder[0] - ladder[ladder.len() - 1]);
        let r = run_session_governed(governed(budget)).unwrap();
        assert!(r.within_budget, "total {} vs budget {}", r.total_j, r.effective_budget_j);
        assert!(!r.infeasible);
        assert!(r.events.iter().any(|e| e.action == GovernorAction::Degrade));
        assert!(r.quality_error > 0.0 && r.quality_error < 0.5);
    }

    #[test]
    fn infeasible_budget_floors_at_best_effort() {
        let r = run_session_governed(governed(0.5)).unwrap();
        assert!(r.infeasible);
        let floor = (r.events[0].probes, r.events[0].knob);
        assert_eq!(floor.1, 4, "must pin the most aggressive knob");
        assert!(r.events.iter().all(|e| e.knob == 4));
    }

    #[test]
    fn battery_derates_the_budget() {
        let mut cfg = governed(1.0e6);
        cfg.battery_fraction = 0.0005; // ~7.7 J left in the pack
        let r = run_session_governed(cfg).unwrap();
        assert!(r.effective_budget_j < 10.0);
        assert!(r.infeasible, "an exhausted pack cannot fit the session");
        assert_eq!(r.final_battery_j, 0.0);
    }

    #[test]
    fn double_run_is_byte_identical() {
        let run = || {
            let ladder = governed_projections(&governed(0.0)).unwrap();
            let budget = (ladder[0] + ladder[4]) / 2.0;
            let r =
                run_session_governed(governed(budget).with_ambient_seed(7)).unwrap();
            annolight_support::json::to_string_pretty(&r)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_fault_governed_trace_matches_reference() {
        let ladder = governed_projections(&governed(0.0)).unwrap();
        let budget = (ladder[0] + ladder[4]) / 2.0;
        let reference = run_session_governed(governed(budget)).unwrap();
        let mut cfg = governed(budget);
        cfg.session.faults = FaultConfig::lossless(42);
        let faulty = run_session_governed(cfg).unwrap();
        assert_eq!(
            annolight_support::json::to_string_pretty(&reference),
            annolight_support::json::to_string_pretty(&faulty),
            "zero-fault governed path must reproduce the reference byte for byte"
        );
    }

    #[test]
    fn report_serialises_for_tooling() {
        let r = run_session_governed(governed(1000.0)).unwrap();
        let json = annolight_support::json::to_string(&r);
        let back: GovernedSessionReport = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(back.trace_hex, r.trace_hex);
        assert_eq!(back.events.len(), r.events.len());
        assert!((back.total_j - r.total_j).abs() < 1e-12);
    }
}
