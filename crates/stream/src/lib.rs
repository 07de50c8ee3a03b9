//! The streaming system model of Fig. 1.
//!
//! "The system entities include a multimedia server, an (optional) proxy
//! node that can perform various operations on the stream (transcoding),
//! the users with low-power mobile devices and other network equipment. …
//! The annotations can be generated and added to the video stream at
//! either the server or proxy node, with no changes for the client."
//!
//! * [`server`] — stores profiled clips and serves annotated, compensated,
//!   encoded streams for a negotiated device/quality;
//! * [`proxy`] — transcodes an *unannotated* stream on the fly, inserting
//!   annotations and compensation mid-path;
//! * [`client`] — decodes, obeys the annotation track through the
//!   backlight controller, and accounts energy with the device power
//!   model;
//! * [`network`] — a bandwidth/latency channel model for the wireless hop;
//! * [`faults`] — seeded fault injection on that hop (burst loss,
//!   duplication, reordering, jitter), retry/backoff retransmission, and
//!   the client's graceful-degradation policy for lost annotation hints;
//! * [`session`] — the blocking end-to-end entry points (negotiate, serve,
//!   deliver, play), producing the measurements behind Fig. 10;
//! * [`machine`] — the one session implementation: a resumable state
//!   machine on the deterministic reactor, which every blocking entry
//!   point runs alone and which hosts any mix of sessions on one reactor,
//!   plus a lightweight tier scaling one process to 10⁵⁺ concurrent
//!   sessions;
//! * [`governor`] — closed-loop battery/thermal-aware quality governance:
//!   fit a whole playback into an N-joule budget by searching the quality
//!   knob per scene and shipping the decision upstream over the hint
//!   channel;
//! * [`spatial`] — energy pricing of half-resolution streaming, feeding
//!   the spatial-scale annotation policy's resolution decision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod governor;
pub mod machine;
pub mod message;
pub mod network;
pub mod proxy;
pub mod server;
pub mod session;
pub mod spatial;

pub use client::{PlaybackClient, PlaybackReport};
pub use faults::{
    AnnotationArrivals, ChannelStats, DegradationConfig, DegradationEvent, DegradationKind,
    DegradedPlayback, FaultConfig, FaultReport, FaultyChannel, LossyDelivery, RetryOutcome,
};
pub use governor::{
    governed_projections, run_session_governed, GovernedSessionReport, GovernorSessionConfig,
};
pub use machine::{
    run_sessions_on_reactor, ScaleOutcome, ScaleSession, ScaleSpec, SessionMachine,
    SessionOutcome, SessionSpec,
};
pub use message::{grant_quality, ClientHello, PacketKind, ServerOffer, StreamPacket};
pub use network::WirelessChannel;
pub use proxy::{Proxy, TranscodeRequest};
pub use server::{MediaServer, ServeError, ServeRequest, ServedStream};
pub use session::{
    run_session, run_session_faulty, run_session_with_server, run_shared_sessions,
    FaultySessionReport, SessionConfig, SessionError, SessionReport, SharedSessionOptions,
};
pub use spatial::{resolution_cost, spatial_decision, DECODE_PIXELS_PER_S};
