//! # annolight-support
//!
//! The workspace's hermetic, zero-dependency substrate. Everything the
//! annolight crates used to pull from the crates.io registry is
//! re-implemented here, small and auditable, so that
//! `cargo build --release --offline` succeeds from an *empty* cargo
//! registry — the build environment has no network, and the paper's
//! pipeline (histograms, `k = L/L'` compensation, transfer-LUT
//! inversion) is pure deterministic arithmetic that never needed heavy
//! dependencies in the first place.
//!
//! | Module | Replaces | Surface |
//! |---|---|---|
//! | [`rng`] | `rand::SmallRng` | seeded xoshiro256++, `gen_range`/`gen_bool` |
//! | [`json`] | `serde`/`serde_json` | `Json` value model, parser, [`impl_json!`] |
//! | [`bytes`] | `bytes` | [`bytes::Bytes`], [`bytes::ByteBuf`], cursor reads |
//! | [`channel`] | `crossbeam::channel` | bounded/unbounded mpsc-backed channels |
//! | [`sync`] | `parking_lot` | poison-ignoring [`sync::Mutex`] + [`sync::Condvar`] |
//! | [`check`] | `proptest` | deterministic property runner, [`check!`] |
//! | [`retry`] | `backoff`/`retry` | deadline-aware [`retry::RetryPolicy`] |
//! | [`bench`] | `criterion` | wall-clock median-of-N harness |
//! | [`wheel`] | `tokio-util` timers | hierarchical virtual-time [`wheel::TimerWheel`] |
//! | [`reactor`] | `tokio`/`mio` | deterministic cooperative [`reactor::Reactor`] |
//! | [`par`] | `rayon::scope` | scoped [`par::fan_out`] returning results in item order |
//!
//! All modules are `std`-only. Determinism is a design goal throughout:
//! the PRNG is seedable, the property runner prints a replayable seed on
//! failure, and JSON object order is preserved.

pub mod bench;
pub mod bytes;
pub mod channel;
pub mod check;
pub mod json;
pub mod par;
pub mod reactor;
pub mod retry;
pub mod rng;
pub mod sync;
pub mod wheel;
