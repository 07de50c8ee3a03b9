//! Lossy-channel fault injection (the robustness tier).
//!
//! The paper's wireless hop is an 802.11b link — lossy in practice, lossless
//! in the baseline [`WirelessChannel`] model. This module extends the hop
//! with *seeded, replayable* faults so the annotation pipeline can be tested
//! under packet loss instead of merely alongside it:
//!
//! * [`FaultyChannel`] — a [`WirelessChannel`] wrapped with independent-drop
//!   **and** Gilbert–Elliott burst loss, duplication, bounded reordering and
//!   per-packet delay jitter. Every fault class draws from its **own**
//!   [`SmallRng`] stream (split from one seed), so enabling one fault never
//!   perturbs another's decisions and every run replays exactly from the
//!   seed.
//! * [`retry`] — the deadline-aware exponential-backoff
//!   [`RetryPolicy`](retry::RetryPolicy) (shared with the serve tier's
//!   admission backpressure; it lives in `annolight_support::retry`).
//! * [`LossyEngine`] / [`LossyCollector`] — the end-to-end delivery engine
//!   as a non-blocking sender/receiver pair: picture packets are
//!   retransmitted *reliably* (the player buffers), annotation deltas are
//!   *hints* retried only until their scene starts; a lost hint degrades
//!   playback gracefully instead of stalling it. Every session drives this
//!   pair one packet at a time from [`crate::machine::SessionMachine`].
//! * [`DegradationEvent`] / [`DegradationConfig`] — the client-side policy
//!   when a hint is missing: hold the last annotated level briefly, then
//!   slew toward full backlight (safe brightness, no flicker), and recover
//!   the moment a late hint lands.
//!
//! Determinism contract: a zero-fault [`FaultConfig`] consumes RNG draws but
//! triggers nothing, and the channel clock is the *same f64 expression* as
//! [`WirelessChannel::transfer_time_s`], so the lossless path is
//! bit-identical to the baseline model — a property the test tier pins.

use crate::message::{PacketKind, StreamPacket};
use crate::network::WirelessChannel;
use annolight_codec::{Decoder, EncodedStream};
use annolight_core::delta::{AnnotationDelta, DeltaTracker};
use annolight_core::track::AnnotationTrack;
use annolight_support::rng::SmallRng;

/// Deadline-aware retry with exponential backoff and jitter.
///
/// Re-exported from [`annolight_support::retry`] so the stream tier's
/// retransmission code and the serve tier's admission backoff share one
/// policy type without a crate cycle.
pub mod retry {
    pub use annolight_support::retry::RetryPolicy;
}

use retry::RetryPolicy;

/// Per-concern RNG stream identifiers (see [`SmallRng::stream`]).
mod stream_id {
    pub const GILBERT: u64 = 1;
    pub const DROP: u64 = 2;
    pub const DUP: u64 = 3;
    pub const REORDER: u64 = 4;
    pub const JITTER: u64 = 5;
    pub const RETRY: u64 = 6;
}

/// Fault-injection parameters for one session. All probabilities are per
/// packet; a default config injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; every fault class derives its own stream from it.
    pub seed: u64,
    /// Independent drop probability outside a burst (the Good state).
    pub drop_p: f64,
    /// Probability of entering a loss burst (Good → Bad), per packet.
    pub burst_enter_p: f64,
    /// Probability of leaving a burst (Bad → Good), per packet; the mean
    /// burst length is `1 / burst_exit_p` packets.
    pub burst_exit_p: f64,
    /// Drop probability inside a burst (the Bad state).
    pub burst_drop_p: f64,
    /// Duplication probability (the channel or a raced retransmit delivers
    /// a second copy one packet slot later).
    pub dup_p: f64,
    /// Probability a delivered packet is displaced behind later traffic.
    pub reorder_p: f64,
    /// Maximum displacement of a reordered packet, in packets.
    pub reorder_window: u32,
    /// Maximum extra one-way delay jitter, seconds (uniform in `[0, j]`).
    pub jitter_s: f64,
    /// Client-side buffering before playback starts, seconds. Annotation
    /// deadlines are measured against `latency + startup_buffer_s`.
    pub startup_buffer_s: f64,
}

annolight_support::impl_json!(struct FaultConfig { seed, drop_p, burst_enter_p, burst_exit_p, burst_drop_p, dup_p, reorder_p, reorder_window, jitter_s, startup_buffer_s });

impl Default for FaultConfig {
    fn default() -> Self {
        Self::lossless(0)
    }
}

impl FaultConfig {
    /// No faults at all; the channel is bit-identical to the baseline
    /// [`WirelessChannel`] timing.
    #[must_use]
    pub fn lossless(seed: u64) -> Self {
        Self {
            seed,
            drop_p: 0.0,
            burst_enter_p: 0.0,
            burst_exit_p: 0.0,
            burst_drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_window: 0,
            jitter_s: 0.0,
            startup_buffer_s: 0.25,
        }
    }

    /// Independent (Bernoulli) loss at rate `drop_p`, nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `drop_p` is outside `[0, 1]`.
    #[must_use]
    pub fn lossy(seed: u64, drop_p: f64) -> Self {
        let cfg = Self { drop_p, ..Self::lossless(seed) };
        cfg.validate();
        cfg
    }

    /// A bursty 802.11b-like hop: occasional fades (2 % entry) lasting
    /// ~4 packets (25 % exit) during which half the packets are lost, on
    /// top of a small independent floor.
    #[must_use]
    pub fn bursty(seed: u64) -> Self {
        Self {
            drop_p: 0.01,
            burst_enter_p: 0.02,
            burst_exit_p: 0.25,
            burst_drop_p: 0.5,
            ..Self::lossless(seed)
        }
    }

    /// Whether this config can inject any fault at all.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.drop_p == 0.0
            && (self.burst_enter_p == 0.0 || self.burst_drop_p == 0.0)
            && self.dup_p == 0.0
            && self.reorder_p == 0.0
            && self.jitter_s == 0.0
    }

    /// Checks every field is in range.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or a duration is
    /// negative.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop_p", self.drop_p),
            ("burst_enter_p", self.burst_enter_p),
            ("burst_exit_p", self.burst_exit_p),
            ("burst_drop_p", self.burst_drop_p),
            ("dup_p", self.dup_p),
            ("reorder_p", self.reorder_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} {p} outside [0, 1]");
        }
        assert!(self.jitter_s >= 0.0, "jitter_s {} negative", self.jitter_s);
        assert!(self.startup_buffer_s >= 0.0, "startup_buffer_s {} negative", self.startup_buffer_s);
    }
}

/// Counters accumulated by a [`FaultyChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelStats {
    /// Packets offered to the channel (first transmissions).
    pub packets: u64,
    /// First transmissions lost.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Delivered packets displaced behind later traffic.
    pub reordered: u64,
    /// Packets sent while the Gilbert–Elliott state was Bad.
    pub burst_packets: u64,
    /// Link-layer retransmissions attempted (all packet kinds).
    pub retransmits: u64,
    /// Total backoff waited across all retransmissions, seconds.
    pub retransmit_backoff_s: f64,
    /// Retransmission sequences that exhausted their budget or deadline.
    pub retransmit_failures: u64,
}

annolight_support::impl_json!(struct ChannelStats { packets, dropped, duplicated, reordered, burst_packets, retransmits, retransmit_backoff_s, retransmit_failures });

/// The fate of one packet offered to a [`FaultyChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the packet's serialisation onto the link finished, seconds.
    pub sent_s: f64,
    /// Arrival time at the receiver, `None` if the packet was lost.
    pub arrival_s: Option<f64>,
    /// Arrival time of a duplicated second copy, if any.
    pub duplicate_arrival_s: Option<f64>,
    /// Reorder displacement, packets (0 = in order).
    pub displaced: u32,
}

/// The result of a retransmission sequence ([`FaultyChannel::retransmit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryOutcome {
    /// Arrival time of the recovered packet, `None` if the policy's
    /// attempt budget or deadline ran out first.
    pub delivered_s: Option<f64>,
    /// Retransmissions actually sent.
    pub attempts: u32,
    /// Total backoff waited, seconds.
    pub backoff_s: f64,
}

/// A [`WirelessChannel`] with seeded fault injection.
///
/// The clock is *cumulative bytes over bandwidth*: after `n` bytes the send
/// time is `(n as f64 * 8.0) / bandwidth_bps` — the identical expression
/// [`WirelessChannel::transfer_time_s`] uses, so zero-fault arrivals are
/// bit-identical to the baseline model.
#[derive(Debug, Clone)]
pub struct FaultyChannel {
    link: WirelessChannel,
    cfg: FaultConfig,
    bytes_sent: u64,
    in_burst: bool,
    ge_rng: SmallRng,
    drop_rng: SmallRng,
    dup_rng: SmallRng,
    reorder_rng: SmallRng,
    jitter_rng: SmallRng,
    retry_rng: SmallRng,
    stats: ChannelStats,
}

impl FaultyChannel {
    /// Wraps `link` with the faults in `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FaultConfig::validate`].
    #[must_use]
    pub fn new(link: WirelessChannel, cfg: FaultConfig) -> Self {
        cfg.validate();
        Self {
            link,
            cfg,
            bytes_sent: 0,
            in_burst: false,
            ge_rng: SmallRng::stream(cfg.seed, stream_id::GILBERT),
            drop_rng: SmallRng::stream(cfg.seed, stream_id::DROP),
            dup_rng: SmallRng::stream(cfg.seed, stream_id::DUP),
            reorder_rng: SmallRng::stream(cfg.seed, stream_id::REORDER),
            jitter_rng: SmallRng::stream(cfg.seed, stream_id::JITTER),
            retry_rng: SmallRng::stream(cfg.seed, stream_id::RETRY),
            stats: ChannelStats::default(),
        }
    }

    /// The underlying lossless link model.
    #[must_use]
    pub fn link(&self) -> &WirelessChannel {
        &self.link
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Whether the Gilbert–Elliott state machine is currently in a burst.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// The send clock: when the last byte so far finished serialising.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        (self.bytes_sent as f64 * 8.0) / self.link.bandwidth_bps
    }

    /// Serialisation time of one MTU-sized packet, seconds.
    #[must_use]
    pub fn mtu_slot_s(&self) -> f64 {
        (self.link.mtu as f64 * 8.0) / self.link.bandwidth_bps
    }

    /// The loss probability in the current Gilbert–Elliott state.
    #[must_use]
    pub fn loss_p_now(&self) -> f64 {
        if self.in_burst {
            self.cfg.burst_drop_p.max(self.cfg.drop_p)
        } else {
            self.cfg.drop_p
        }
    }

    /// Offers one packet of `bytes` to the channel and returns its fate.
    ///
    /// Every call consumes a *fixed* number of draws from each fault
    /// stream regardless of configuration, so enabling one fault class
    /// never shifts another's decisions.
    pub fn send(&mut self, bytes: usize) -> Delivery {
        self.stats.packets += 1;
        self.bytes_sent += bytes as u64;
        let sent_s = (self.bytes_sent as f64 * 8.0) / self.link.bandwidth_bps;

        // Gilbert–Elliott state advance: exactly one draw per packet.
        let flip = self.ge_rng.gen_f64();
        self.in_burst = if self.in_burst {
            flip >= self.cfg.burst_exit_p
        } else {
            flip < self.cfg.burst_enter_p
        };
        if self.in_burst {
            self.stats.burst_packets += 1;
        }

        // Loss decision: one draw.
        let lost = self.drop_rng.gen_f64() < self.loss_p_now();
        // Duplication: one draw.
        let dup = self.dup_rng.gen_f64() < self.cfg.dup_p;
        // Reorder: two draws (trigger + displacement), always consumed.
        let reorder_roll = self.reorder_rng.gen_f64();
        let displacement_roll = self.reorder_rng.next_u64();
        // Jitter: one draw.
        let jitter = self.jitter_rng.gen_f64() * self.cfg.jitter_s;

        let displaced = if reorder_roll < self.cfg.reorder_p && self.cfg.reorder_window > 0 {
            1 + (displacement_roll % u64::from(self.cfg.reorder_window)) as u32
        } else {
            0
        };

        if lost {
            self.stats.dropped += 1;
            return Delivery { sent_s, arrival_s: None, duplicate_arrival_s: None, displaced: 0 };
        }
        if displaced > 0 {
            self.stats.reordered += 1;
        }
        let slot = self.mtu_slot_s();
        let arrival = sent_s + self.link.latency_s + jitter + f64::from(displaced) * slot;
        let duplicate = if dup {
            self.stats.duplicated += 1;
            Some(arrival + slot)
        } else {
            None
        };
        Delivery { sent_s, arrival_s: Some(arrival), duplicate_arrival_s: duplicate, displaced }
    }

    /// Drives one packet's complete fate — first transmission plus, on
    /// loss, the recovery sequence `recovery` chooses — in a single
    /// **non-blocking** call, so a reactor task can step fault delivery
    /// one packet at a time.
    ///
    /// `recovery` receives the send-clock time of the lost first copy
    /// and returns the [`RetryPolicy`] to recover with (`None` = give
    /// the packet up). The RNG draw order is exactly
    /// [`Self::send`]-then-[`Self::retransmit`], so fates are
    /// byte-identical to calling the two by hand — a property the
    /// `fault_props` tier pins.
    pub fn try_deliver(
        &mut self,
        bytes: usize,
        recovery: impl FnOnce(f64) -> Option<RetryPolicy>,
    ) -> DeliveredCopies {
        let fate = self.send(bytes);
        let mut copies = Vec::new();
        match fate.arrival_s {
            Some(a) => {
                copies.push(a);
                copies.extend(fate.duplicate_arrival_s);
            }
            None => {
                if let Some(policy) = recovery(fate.sent_s) {
                    let out = self.retransmit(bytes, &policy, fate.sent_s);
                    copies.extend(out.delivered_s);
                }
            }
        }
        DeliveredCopies { sent_s: fate.sent_s, lost_first: fate.arrival_s.is_none(), copies }
    }

    /// Runs a retransmission sequence for a packet lost at `lost_s`,
    /// following `policy` (whose deadline is *relative to the loss*).
    /// Each attempt waits the jittered backoff, occupies link airtime,
    /// and traverses the current loss state again.
    pub fn retransmit(&mut self, bytes: usize, policy: &RetryPolicy, lost_s: f64) -> RetryOutcome {
        let mut elapsed = 0.0f64;
        let mut attempts = 0u32;
        loop {
            let Some(delay) = policy.next_delay_s(attempts, elapsed, &mut self.retry_rng) else {
                self.stats.retransmit_failures += 1;
                self.stats.retransmit_backoff_s += elapsed;
                return RetryOutcome { delivered_s: None, attempts, backoff_s: elapsed };
            };
            elapsed += delay;
            attempts += 1;
            self.stats.retransmits += 1;
            // The retransmission itself occupies airtime on the link.
            self.bytes_sent += bytes as u64;
            let resend_s = (self.bytes_sent as f64 * 8.0) / self.link.bandwidth_bps;
            if self.retry_rng.gen_f64() >= self.loss_p_now() {
                self.stats.retransmit_backoff_s += elapsed;
                let arrival = lost_s.max(resend_s) + elapsed + self.link.latency_s;
                return RetryOutcome { delivered_s: Some(arrival), attempts, backoff_s: elapsed };
            }
        }
    }
}

/// Every arrival produced for one packet by [`FaultyChannel::try_deliver`]:
/// the primary copy (or its recovered retransmission) first, then any
/// duplicate — the order the receiver is offered them.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveredCopies {
    /// When the first transmission finished serialising, seconds.
    pub sent_s: f64,
    /// Whether the first transmission was lost (recovery may still have
    /// delivered a copy).
    pub lost_first: bool,
    /// Arrival times of every delivered copy; empty = the packet never
    /// reached the receiver.
    pub copies: Vec<f64>,
}

/// Per-sequence arrival record for the annotation hint stream: when (and
/// whether) each [`AnnotationDelta`] reached the client, against the
/// deadline of the scene it governs.
///
/// Playback time `now` is relative to the first displayed frame; wall
/// clock = `startup_s + now`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationArrivals {
    /// Wall-clock time of the first displayed frame (latency + buffering).
    startup_s: f64,
    /// Frame rate the deadlines were computed against.
    fps: f64,
    /// Per-sequence deadline: `startup_s + start_frame / fps`.
    deadlines_s: Vec<f64>,
    /// Per-sequence first arrival (wall clock), `None` = never arrived.
    arrivals_s: Vec<Option<f64>>,
}

annolight_support::impl_json!(struct AnnotationArrivals { startup_s, fps, deadlines_s, arrivals_s });

impl AnnotationArrivals {
    /// Builds from raw parts (mainly for tests and tooling).
    #[must_use]
    pub fn new(startup_s: f64, fps: f64, deadlines_s: Vec<f64>, arrivals_s: Vec<Option<f64>>) -> Self {
        assert_eq!(deadlines_s.len(), arrivals_s.len(), "deadline/arrival length mismatch");
        Self { startup_s, fps, deadlines_s, arrivals_s }
    }

    /// Every one of `n` deltas arrived instantly — the lossless fiction
    /// used to pin degraded playback against the plain path.
    #[must_use]
    pub fn punctual(n: usize) -> Self {
        Self { startup_s: 0.0, fps: 1.0, deadlines_s: vec![0.0; n], arrivals_s: vec![Some(0.0); n] }
    }

    /// Number of sequences tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals_s.len()
    }

    /// Whether no deltas are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals_s.is_empty()
    }

    /// Wall-clock start of playback.
    #[must_use]
    pub fn startup_s(&self) -> f64 {
        self.startup_s
    }

    /// First arrival of sequence `seq`, wall clock.
    #[must_use]
    pub fn arrival_s(&self, seq: usize) -> Option<f64> {
        self.arrivals_s.get(seq).copied().flatten()
    }

    /// Deadline of sequence `seq` (its scene start), wall clock.
    #[must_use]
    pub fn deadline_s(&self, seq: usize) -> Option<f64> {
        self.deadlines_s.get(seq).copied()
    }

    /// Whether sequence `seq` has arrived by playback time `now` (seconds
    /// since the first displayed frame). Out-of-range sequences count as
    /// never arrived.
    #[must_use]
    pub fn arrived_by(&self, seq: usize, now_s: f64) -> bool {
        match self.arrival_s(seq) {
            Some(a) => a <= self.startup_s + now_s,
            None => false,
        }
    }

    /// Deltas that never arrived.
    #[must_use]
    pub fn lost(&self) -> usize {
        self.arrivals_s.iter().filter(|a| a.is_none()).count()
    }

    /// Deltas that arrived after their scene had started.
    #[must_use]
    pub fn late(&self) -> usize {
        self.arrivals_s
            .iter()
            .zip(&self.deadlines_s)
            .filter(|(a, d)| a.is_some_and(|a| a > **d))
            .count()
    }

    /// Whether every delta made its deadline.
    #[must_use]
    pub fn all_on_time(&self) -> bool {
        self.lost() == 0 && self.late() == 0
    }
}

/// Summary of one lossy delivery, serialisable for the bench tables and
/// the CI determinism diff.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Channel counters (drops, bursts, retransmissions, …).
    pub channel: ChannelStats,
    /// Annotation hint packets sent.
    pub delta_packets: u64,
    /// Hints that never reached the client.
    pub deltas_lost: u64,
    /// Hints that arrived after their scene had started.
    pub deltas_late: u64,
    /// Duplicate hint arrivals the tracker ignored.
    pub delta_duplicates: u64,
    /// Sequence gaps the tracker observed.
    pub delta_gaps: u64,
    /// Extra WNIC energy spent on retransmissions, joules (filled in by
    /// the session layer, which owns the power model).
    pub retransmit_energy_j: f64,
    /// Wall-clock arrival of the last packet, seconds.
    pub transfer_time_s: f64,
}

annolight_support::impl_json!(struct FaultReport { channel, delta_packets, deltas_lost, deltas_late, delta_duplicates, delta_gaps, retransmit_energy_j, transfer_time_s });

/// Everything a drained [`LossyEngine`] hands back
/// ([`LossyEngine::finish`]).
#[derive(Debug, Clone)]
pub struct LossyDelivery {
    /// The reassembled picture stream (byte-identical to the input —
    /// pictures are retransmitted reliably).
    pub stream: EncodedStream,
    /// Picture packets delivered (duplicates excluded).
    pub picture_packets: usize,
    /// Per-sequence annotation arrival record.
    pub arrivals: AnnotationArrivals,
    /// Fault summary.
    pub report: FaultReport,
}

/// The annotation hint plan a sender derives from a served stream: the
/// embedded backlight track, one sequence-numbered [`AnnotationDelta`] per
/// canonical track entry, and each delta's deadline — the wall-clock
/// start of the scene it governs. Shared by [`LossyEngine`] and the
/// reactor's lightweight [`crate::machine::ScaleSpec`].
#[derive(Debug)]
pub(crate) struct HintPlan {
    /// The embedded backlight track, if the stream carries one.
    pub(crate) track: Option<AnnotationTrack>,
    /// One hint per canonical track entry, in sequence order.
    pub(crate) deltas: Vec<AnnotationDelta>,
    /// Per-hint deadline, wall clock: `startup_s + start_frame / fps`.
    pub(crate) deadlines: Vec<f64>,
    /// Wall-clock start of playback (latency + startup buffering).
    pub(crate) startup_s: f64,
    /// Frame rate the deadlines were computed against.
    pub(crate) fps: f64,
}

impl HintPlan {
    /// Plans the hints for delivering `stream` over `link` with
    /// `startup_buffer_s` of client-side buffering.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the stream or its embedded
    /// annotation track cannot be decoded.
    pub(crate) fn of(
        stream: &EncodedStream,
        link: &WirelessChannel,
        startup_buffer_s: f64,
    ) -> Result<Self, String> {
        // The sender knows the track (it produced the stream): split it
        // into sequence-numbered hints.
        let dec = Decoder::new(stream).map_err(|e| e.to_string())?;
        let mut track: Option<AnnotationTrack> = None;
        for bytes in dec.user_data() {
            if !annolight_core::extensions::is_dvfs_payload(bytes) && track.is_none() {
                track = Some(AnnotationTrack::from_rle_bytes(bytes).map_err(|e| e.to_string())?);
            }
        }
        let fps = stream.fps().max(f64::EPSILON);
        let startup_s = link.latency_s + startup_buffer_s;
        let deltas = track.as_ref().map(AnnotationDelta::from_track).unwrap_or_default();
        let deadlines =
            deltas.iter().map(|d| startup_s + f64::from(d.entry.start_frame) / fps).collect();
        Ok(Self { track, deltas, deadlines, startup_s, fps })
    }
}

/// The sender half of lossy delivery as a resumable **pull** engine: the
/// packet plan plus the [`FaultyChannel`] that decides each packet's fate.
///
/// The annotation hints (one [`AnnotationDelta`] per canonical track
/// entry) ride just ahead of the picture data; each is retried only until
/// its scene starts ([`RetryPolicy::annotation`]), while picture packets
/// use the generous [`RetryPolicy::reliable`] budget. One [`Self::pump`]
/// call drives exactly one packet — a bounded, non-blocking slice of work
/// — whose copies the caller offers to a [`LossyCollector`]; once the plan
/// is exhausted, [`Self::finish`] folds the two back into a
/// [`LossyDelivery`].
///
/// The embedded track stays inside the (reliable) picture bytes — it
/// describes the compensation already baked into the pixels. What the
/// lossy hop decides is *when* the client learns each scene's backlight
/// level: that is the hint stream recorded in [`LossyDelivery::arrivals`].
#[derive(Debug)]
pub struct LossyEngine {
    chan: FaultyChannel,
    plan: HintPlan,
    bytes: Vec<u8>,
    mtu: usize,
    next_delta: usize,
    chunk_off: usize,
    seq: u32,
}

impl LossyEngine {
    /// Builds the packet plan for delivering `stream` over `link` with
    /// the faults in `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the stream or its embedded
    /// annotation track cannot be decoded.
    pub fn new(
        stream: &EncodedStream,
        link: &WirelessChannel,
        cfg: &FaultConfig,
    ) -> Result<Self, String> {
        Ok(Self {
            chan: FaultyChannel::new(*link, *cfg),
            plan: HintPlan::of(stream, link, cfg.startup_buffer_s)?,
            bytes: stream.as_bytes().to_vec(),
            mtu: link.mtu,
            next_delta: 0,
            chunk_off: 0,
            seq: 0,
        })
    }

    /// The channel's send clock so far, seconds — what a cooperative
    /// driver sleeps to between pumps.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.chan.clock_s()
    }

    /// Drives the next packet's fate. Returns the `(arrival, wire)`
    /// copies the receiver sees — primary/recovered first, duplicate
    /// second — or `None` once the plan is exhausted.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when a picture packet exhausts even
    /// the reliable retry budget (only possible under certain loss).
    pub fn pump(&mut self) -> Result<Option<Vec<(f64, Vec<u8>)>>, String> {
        // Annotations ride ahead of the data (§3): all hints first.
        if self.next_delta < self.plan.deltas.len() {
            let i = self.next_delta;
            let wire = StreamPacket::delta(self.seq, self.plan.deltas[i].to_bytes()).to_wire();
            let deadline = self.plan.deadlines[i];
            // A hint is only worth retrying until its scene starts.
            let fate = self.chan.try_deliver(wire.len(), |sent_s| {
                Some(RetryPolicy::annotation().with_deadline((deadline - sent_s).max(0.0)))
            });
            self.next_delta += 1;
            self.seq += 1;
            return Ok(Some(fate.copies.iter().map(|&a| (a, wire.clone())).collect()));
        }
        // Picture data: reliable.
        if self.chunk_off < self.bytes.len() {
            let end = (self.chunk_off + self.mtu).min(self.bytes.len());
            let wire =
                StreamPacket::picture(self.seq, self.bytes[self.chunk_off..end].to_vec()).to_wire();
            let fate = self.chan.try_deliver(wire.len(), |_| Some(RetryPolicy::reliable()));
            if fate.copies.is_empty() {
                return Err(format!("picture packet {} undeliverable", self.seq));
            }
            self.chunk_off = end;
            self.seq += 1;
            return Ok(Some(fate.copies.iter().map(|&a| (a, wire.clone())).collect()));
        }
        Ok(None)
    }

    /// Folds the receiver-side state back into the final
    /// [`LossyDelivery`] once every packet has been pumped and offered.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the reassembled bytes do not
    /// decode.
    pub fn finish(self, collector: LossyCollector) -> Result<LossyDelivery, String> {
        let LossyCollector { buf, picture_packets, mut delta_events, last_arrival, .. } = collector;
        let delivered = EncodedStream::from_bytes(buf)
            .map_err(|e| format!("lossy reassembly failed: {e}"))?;

        // The client sees hints in *arrival* order.
        delta_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.seq.cmp(&b.1.seq)));
        let mut tracker = DeltaTracker::new();
        let HintPlan { deltas, deadlines, startup_s, fps, .. } = self.plan;
        let mut arrivals: Vec<Option<f64>> = vec![None; deltas.len()];
        for (arrival, d) in &delta_events {
            let now_frame = if *arrival <= startup_s {
                0
            } else {
                ((*arrival - startup_s) * fps).floor() as u32
            };
            tracker.offer(d, now_frame);
            let slot = arrivals.get_mut(d.seq as usize);
            if let Some(slot) = slot {
                if slot.is_none_or(|prev| *arrival < prev) {
                    *slot = Some(*arrival);
                }
            }
        }
        let n_deltas = deltas.len();
        let arrivals = AnnotationArrivals::new(startup_s, fps, deadlines, arrivals);
        let report = FaultReport {
            channel: self.chan.stats(),
            delta_packets: n_deltas as u64,
            deltas_lost: arrivals.lost() as u64,
            deltas_late: arrivals.late() as u64,
            delta_duplicates: u64::from(tracker.duplicates()),
            delta_gaps: u64::from(tracker.gaps()),
            retransmit_energy_j: 0.0,
            transfer_time_s: last_arrival,
        };
        Ok(LossyDelivery { stream: delivered, picture_packets, arrivals, report })
    }
}

/// The receiver half of lossy delivery: reassembles picture bytes
/// (deduplicating by sequence number) and records hint arrivals, one
/// non-blocking [`Self::offer`] per delivered copy.
#[derive(Debug)]
pub struct LossyCollector {
    buf: Vec<u8>,
    picture_packets: usize,
    next_picture_seq: Option<u32>,
    delta_events: Vec<(f64, AnnotationDelta)>,
    last_arrival: f64,
}

impl LossyCollector {
    /// A collector expecting roughly `total` picture bytes.
    #[must_use]
    pub fn with_capacity(total: usize) -> Self {
        Self {
            buf: Vec::with_capacity(total),
            picture_packets: 0,
            next_picture_seq: None,
            delta_events: Vec::new(),
            last_arrival: 0.0,
        }
    }

    /// Accepts one delivered copy.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the wire bytes do not parse.
    pub fn offer(&mut self, arrival: f64, wire: &[u8]) -> Result<(), String> {
        let pkt = StreamPacket::from_wire(wire)?;
        self.last_arrival = self.last_arrival.max(arrival);
        match pkt.kind {
            PacketKind::Picture => {
                // Duplicates carry a seq the receiver already has.
                if self.next_picture_seq.is_none_or(|n| pkt.seq >= n) {
                    self.buf.extend_from_slice(&pkt.payload);
                    self.picture_packets += 1;
                    self.next_picture_seq = Some(pkt.seq + 1);
                }
            }
            PacketKind::Delta => {
                let d = AnnotationDelta::from_bytes(&pkt.payload).map_err(|e| e.to_string())?;
                self.delta_events.push((arrival, d));
            }
        }
        Ok(())
    }
}

/// Client policy when a scene's annotation hint is missing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Frames to hold the last annotated level before ramping.
    pub hold_frames: u32,
    /// Levels per frame to slew toward full backlight after the hold.
    /// Bounded slew means a lost hint never causes a visible flash.
    pub ramp_step_per_frame: u8,
}

annolight_support::impl_json!(struct DegradationConfig { hold_frames, ramp_step_per_frame });

impl Default for DegradationConfig {
    /// Hold ~half a second at 12 fps, then ramp gently (≈ 21 frames from
    /// darkest to full).
    fn default() -> Self {
        Self { hold_frames: 6, ramp_step_per_frame: 12 }
    }
}

/// What happened at one point of degraded playback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationKind {
    /// A scene started without its annotation hint.
    Missed,
    /// The hint arrived mid-scene and was applied from this frame on.
    Recovered,
    /// The hint arrived only after its entire scene had played.
    Late,
}

annolight_support::impl_json!(enum DegradationKind { Missed, Recovered, Late });

/// One entry of the degradation log. Two runs with the same seed must
/// produce byte-identical logs — the CI determinism guard diffs them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationEvent {
    /// Frame index the event occurred at.
    pub frame: u32,
    /// Annotation sequence (scene index) concerned.
    pub seq: u32,
    /// What happened.
    pub kind: DegradationKind,
    /// Backlight level applied at that frame.
    pub level: u8,
}

annolight_support::impl_json!(struct DegradationEvent { frame, seq, kind, level });

/// The result of [`crate::client::PlaybackClient::play_degraded`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedPlayback {
    /// The usual playback/energy report.
    pub report: crate::client::PlaybackReport,
    /// The degradation log, in frame order.
    pub events: Vec<DegradationEvent>,
    /// Frames played without their annotation available.
    pub degraded_frames: u32,
    /// Mean perceived-intensity error vs. the annotated schedule,
    /// normalised to `[0, 1]`: `Σ |applied − annotated| / (255 · frames)`,
    /// summed over degraded frames only. Zero when nothing was lost.
    pub perceived_error: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> WirelessChannel {
        WirelessChannel::wifi_80211b()
    }

    #[test]
    fn zero_fault_timing_is_bit_identical_to_baseline() {
        let mut ch = FaultyChannel::new(link(), FaultConfig::lossless(7));
        let sizes = [1500usize, 1500, 900, 1500, 33];
        let total: usize = sizes.iter().sum();
        let mut last = 0.0;
        for s in sizes {
            let d = ch.send(s);
            let a = d.arrival_s.expect("lossless channel never drops");
            assert!(d.duplicate_arrival_s.is_none());
            assert_eq!(d.displaced, 0);
            assert!(a > last);
            last = a;
        }
        // Exactly the baseline expression, not approximately.
        assert_eq!(last, link().transfer_time_s(total));
        let st = ch.stats();
        assert_eq!((st.dropped, st.duplicated, st.reordered), (0, 0, 0));
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = FaultConfig { dup_p: 0.1, reorder_p: 0.2, reorder_window: 4, jitter_s: 0.002, ..FaultConfig::bursty(42) };
        let mut a = FaultyChannel::new(link(), cfg);
        let mut b = FaultyChannel::new(link(), cfg);
        for _ in 0..500 {
            assert_eq!(a.send(1500), b.send(1500));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fault_streams_are_independent() {
        // Enabling duplication must not change which packets drop.
        let drops = |dup_p: f64| -> Vec<bool> {
            let cfg = FaultConfig { dup_p, ..FaultConfig::lossy(9, 0.2) };
            let mut ch = FaultyChannel::new(link(), cfg);
            (0..400).map(|_| ch.send(1500).arrival_s.is_none()).collect()
        };
        assert_eq!(drops(0.0), drops(0.5));
        assert!(drops(0.0).iter().any(|&d| d), "20 % loss must drop something");
    }

    #[test]
    fn drop_rate_converges_to_p() {
        let mut ch = FaultyChannel::new(link(), FaultConfig::lossy(1, 0.1));
        let n = 5000;
        let dropped = (0..n).filter(|_| ch.send(1500).arrival_s.is_none()).count();
        let rate = dropped as f64 / f64::from(n);
        assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn bursts_follow_gilbert_elliott() {
        // Permanently Bad channel: first transition enters, none exits.
        let cfg = FaultConfig {
            burst_enter_p: 1.0,
            burst_exit_p: 0.0,
            burst_drop_p: 1.0,
            ..FaultConfig::lossless(3)
        };
        let mut ch = FaultyChannel::new(link(), cfg);
        for _ in 0..50 {
            assert!(ch.send(1500).arrival_s.is_none());
        }
        assert_eq!(ch.stats().burst_packets, 50);
    }

    #[test]
    fn retransmit_recovers_and_respects_deadline() {
        let mut ch = FaultyChannel::new(link(), FaultConfig::lossy(5, 0.3));
        let fate = ch.send(1500);
        // Recover with a generous budget: always succeeds at 30 % loss.
        let out = ch.retransmit(1500, &RetryPolicy::reliable(), fate.sent_s);
        assert!(out.delivered_s.is_some());
        assert!(out.attempts >= 1);
        // A deadline already in the past permits no attempt.
        let none = ch.retransmit(1500, &RetryPolicy::annotation().with_deadline(0.0), 1.0);
        assert!(none.delivered_s.is_none());
        assert_eq!(none.attempts, 0);
        assert_eq!(ch.stats().retransmit_failures, 1);
    }

    #[test]
    fn arrivals_bookkeeping() {
        let a = AnnotationArrivals::new(
            0.1,
            12.0,
            vec![0.1, 1.0, 2.0],
            vec![Some(0.05), Some(1.5), None],
        );
        assert_eq!(a.len(), 3);
        assert_eq!(a.lost(), 1);
        assert_eq!(a.late(), 1);
        assert!(!a.all_on_time());
        assert!(a.arrived_by(0, 0.0));
        assert!(!a.arrived_by(1, 1.0)); // arrives at wall 1.5 = now 1.4
        assert!(a.arrived_by(1, 1.5));
        assert!(!a.arrived_by(2, 100.0));
        assert!(!a.arrived_by(99, 100.0), "out of range is never arrived");
        assert!(AnnotationArrivals::punctual(4).all_on_time());
    }

    #[test]
    fn config_validation_rejects_bad_probabilities() {
        let bad = FaultConfig { drop_p: 1.5, ..FaultConfig::lossless(0) };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
        let ok = FaultConfig::bursty(1);
        ok.validate();
        assert!(!ok.is_lossless());
        assert!(FaultConfig::lossless(1).is_lossless());
    }

    #[test]
    fn fault_config_json_roundtrip() {
        let cfg = FaultConfig { dup_p: 0.05, jitter_s: 0.001, ..FaultConfig::bursty(0xA110) };
        let json = annolight_support::json::to_string(&cfg);
        let back: FaultConfig = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
