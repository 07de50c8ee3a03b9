//! A deterministic property-test runner replacing `proptest`.
//!
//! Each property is a closure over a [`Gen`]; the runner executes it for
//! a configurable number of cases (default [`DEFAULT_CASES`], matching
//! proptest's 256), every case seeded from a fixed base seed so CI runs
//! are reproducible byte-for-byte. On failure it:
//!
//! 1. reports the failing case index and its **replayable seed**
//!    (`ANNOLIGHT_CHECK_SEED=<seed> ANNOLIGHT_CHECK_CASES=1` re-runs
//!    exactly that input),
//! 2. runs **shrinking-lite**: the generator records every raw 64-bit
//!    draw on a tape; the shrinker replays the property with zeroed
//!    suffixes and zeroed/halved words, which maps to shorter vectors
//!    and smaller integers/floats (hypothesis-style byte-stream
//!    shrinking, minus the exotic passes),
//! 3. panics with the smallest failure found.
//!
//! Environment overrides for deeper local runs:
//!
//! * `ANNOLIGHT_CHECK_SEED` — base seed (decimal or `0x…` hex)
//! * `ANNOLIGHT_CHECK_CASES` — case count for every property

use crate::rng::{splitmix64, SampleRange, SmallRng};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};

/// Default cases per property (proptest's default).
pub const DEFAULT_CASES: u32 = 256;

/// Fixed base seed: CI is deterministic unless overridden.
pub const DEFAULT_SEED: u64 = 0xA550_11FE_2006_0001;

/// Cap on extra property executions spent shrinking one failure.
const SHRINK_BUDGET: usize = 800;

thread_local! {
    static SILENCE_PANICS: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(Cell::get) {
                default(info);
            }
        }));
    });
}

/// Deterministic input source handed to each property case.
///
/// Fresh draws come from a seeded [`SmallRng`] and are recorded on a
/// tape; during shrinking the tape (mutated) is replayed instead, and
/// an exhausted tape yields zeros — the minimal value for every
/// generator below.
pub struct Gen {
    rng: SmallRng,
    mode: Mode,
}

enum Mode {
    Record { tape: Vec<u64> },
    Replay { tape: Vec<u64>, pos: usize },
}

impl Gen {
    fn fresh(seed: u64) -> Self {
        Self { rng: SmallRng::seed_from_u64(seed), mode: Mode::Record { tape: Vec::new() } }
    }

    fn replay(tape: Vec<u64>) -> Self {
        Self { rng: SmallRng::seed_from_u64(0), mode: Mode::Replay { tape, pos: 0 } }
    }

    fn tape(&self) -> &[u64] {
        match &self.mode {
            Mode::Record { tape } | Mode::Replay { tape, .. } => tape,
        }
    }

    /// The next raw word — every generator bottoms out here.
    fn next_word(&mut self) -> u64 {
        match &mut self.mode {
            Mode::Record { tape } => {
                let w = self.rng.next_u64();
                tape.push(w);
                w
            }
            Mode::Replay { tape, pos } => {
                let w = tape.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                w
            }
        }
    }

    /// A uniform draw from an integer or float range, e.g.
    /// `g.draw(1u32..40)`, `g.draw(-500i16..=500)`, `g.draw(0.0..=0.5)`.
    pub fn draw<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        let word = self.next_word();
        // Feed the recorded word through a one-shot PRNG whose first
        // output *is* the word: every `SampleRange` impl consumes
        // exactly one raw output and is monotone in it, so a smaller
        // tape word always yields a smaller sample — the property the
        // shrinker relies on.
        range.sample(&mut SmallRng::from_raw_word(word))
    }

    /// An arbitrary value of `T` (full domain), mirroring
    /// `proptest::any::<T>()`.
    pub fn any<T: Arbitrary>(&mut self) -> T {
        T::arbitrary(self)
    }

    /// A vector whose length is drawn from `len`, elements from `f`.
    pub fn vec<T>(
        &mut self,
        len: impl SampleRange<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.draw(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Full-domain generation for `any::<T>()`.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(g: &mut Gen) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn arbitrary(g: &mut Gen) -> Self {
                g.next_word() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(g: &mut Gen) -> Self {
        g.next_word() & 1 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(g: &mut Gen) -> Self {
        std::array::from_fn(|_| T::arbitrary(g))
    }
}

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(g: &mut Gen) -> Self {
        (A::arbitrary(g), B::arbitrary(g))
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw:?} is not a valid u64"),
    }
}

/// Base seed after the environment override.
#[must_use]
pub fn base_seed() -> u64 {
    env_u64("ANNOLIGHT_CHECK_SEED").unwrap_or(DEFAULT_SEED)
}

/// Case count after the environment override.
#[must_use]
pub fn case_count(default_cases: u32) -> u32 {
    env_u64("ANNOLIGHT_CHECK_CASES").map_or(default_cases, |v| v.min(u64::from(u32::MAX)) as u32)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

fn run_case(body: &impl Fn(&mut Gen), g: &mut Gen) -> Result<(), String> {
    install_quiet_hook();
    SILENCE_PANICS.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(g)));
    SILENCE_PANICS.with(|s| s.set(false));
    result.map_err(|p| panic_message(p.as_ref()))
}

fn fails(body: &impl Fn(&mut Gen), tape: &[u64]) -> Option<String> {
    let mut g = Gen::replay(tape.to_vec());
    run_case(body, &mut g).err()
}

/// Shrinking-lite over the recorded tape: zero suffixes (shorter
/// vectors, minimal tails), then zero and repeatedly halve individual
/// words (smaller integers and floats). Keeps the last failing tape.
fn shrink(body: &impl Fn(&mut Gen), tape: Vec<u64>, msg: String) -> (Vec<u64>, String) {
    let mut best = tape;
    let mut best_msg = msg;
    let mut budget = SHRINK_BUDGET;
    let mut made_progress = true;
    while made_progress && budget > 0 {
        made_progress = false;
        // Pass 1: zero ever-shorter suffixes (binary descent).
        let mut span = best.len();
        while span >= 1 && budget > 0 {
            let start = best.len() - span;
            if best[start..].iter().any(|&w| w != 0) {
                let mut candidate = best.clone();
                for w in &mut candidate[start..] {
                    *w = 0;
                }
                budget -= 1;
                if let Some(m) = fails(body, &candidate) {
                    best = candidate;
                    best_msg = m;
                    made_progress = true;
                }
            }
            span /= 2;
        }
        // Pass 2: per-word zero, then halving.
        for i in 0..best.len() {
            if budget == 0 {
                break;
            }
            if best[i] == 0 {
                continue;
            }
            let mut candidate = best.clone();
            candidate[i] = 0;
            budget -= 1;
            if let Some(m) = fails(body, &candidate) {
                best = candidate;
                best_msg = m;
                made_progress = true;
                continue;
            }
            let mut value = best[i];
            while value > 1 && budget > 0 {
                value /= 2;
                let mut candidate = best.clone();
                candidate[i] = value;
                budget -= 1;
                if let Some(m) = fails(body, &candidate) {
                    best = candidate;
                    best_msg = m;
                    made_progress = true;
                } else {
                    break;
                }
            }
        }
    }
    (best, best_msg)
}

/// Runs `body` for `default_cases` cases (or the env overrides). Panics
/// with a replayable report on the first failing case.
///
/// # Panics
///
/// Panics when the property fails, with the shrunk counter-example's
/// seed and replay instructions in the message.
pub fn run(name: &str, default_cases: u32, body: impl Fn(&mut Gen)) {
    let seed = base_seed();
    let cases = case_count(default_cases);
    for case in 0..cases {
        // Every case gets an independent, derivable seed; replaying a
        // single failing case is `ANNOLIGHT_CHECK_SEED=<case seed>`
        // with one case.
        let mut stream = seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case_seed = splitmix64(&mut stream);
        let mut g = Gen::fresh(case_seed);
        if let Err(msg) = run_case(&body, &mut g) {
            let tape = g.tape().to_vec();
            let tape_len = tape.len();
            let (min_tape, min_msg) = shrink(&body, tape, msg.clone());
            panic!(
                "property `{name}` failed at case {case}/{cases}\n\
                 \x20 original failure : {msg}\n\
                 \x20 shrunk ({} -> {} words) : {min_msg}\n\
                 \x20 replay: ANNOLIGHT_CHECK_SEED={case_seed:#018x} \
                 ANNOLIGHT_CHECK_CASES=1 cargo test {name}\n\
                 \x20 (base seed was {seed:#018x})",
                tape_len,
                min_tape.len(),
            );
        }
    }
}

/// Declares `#[test]` property functions, proptest-style:
///
/// ```
/// annolight_support::check! {
///     /// Addition commutes.
///     fn addition_commutes(g) {
///         let a: u32 = g.draw(0u32..1_000);
///         let b: u32 = g.draw(0u32..1_000);
///         assert_eq!(a + b, b + a);
///     }
///
///     fn with_explicit_cases(g, cases = 64) {
///         let v = g.vec(0..8usize, |g| g.any::<u8>());
///         assert!(v.len() < 8);
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! check {
    // The case count: the declared `cases = N`, else the default. One
    // expression, so a property in any crate (this one included) expands
    // to no overwritten assignment.
    (@cases) => {
        $crate::check::DEFAULT_CASES
    };
    (@cases $cases:expr) => {
        $cases
    };
    ($(
        $(#[$meta:meta])*
        fn $name:ident($g:ident $(, cases = $cases:expr)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::check::run(
                    stringify!($name),
                    $crate::check!(@cases $($cases)?),
                    |$g: &mut $crate::check::Gen| $body,
                );
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        run("always_passes", 64, |g| {
            let _ = g.draw(0u8..10);
            count.set(count.get() + 1);
        });
        assert_eq!(count.get(), 64);
    }

    #[test]
    fn failing_property_reports_replay_seed() {
        let result = panic::catch_unwind(|| {
            run("always_fails", 16, |g| {
                let v: u32 = g.draw(0u32..100);
                assert!(v > 1_000, "v was {v}");
            });
        });
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("property `always_fails` failed"), "{msg}");
        assert!(msg.contains("ANNOLIGHT_CHECK_SEED=0x"), "{msg}");
        assert!(msg.contains("shrunk"), "{msg}");
    }

    #[test]
    fn shrinker_minimises_simple_counterexamples() {
        // Fails whenever the drawn value is >= 10; the shrunk tape must
        // fail too (shrinking preserves failure by construction).
        let result = panic::catch_unwind(|| {
            run("threshold", 64, |g| {
                let v: u64 = g.draw(0u64..=1_000_000);
                assert!(v < 10);
            });
        });
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("shrunk"), "{msg}");
    }

    #[test]
    fn same_seed_same_inputs() {
        let mut first: Vec<u64> = Vec::new();
        let mut g1 = Gen::fresh(99);
        for _ in 0..16 {
            first.push(g1.draw(0u64..=u64::MAX));
        }
        let mut g2 = Gen::fresh(99);
        for expected in &first {
            assert_eq!(g2.draw(0u64..=u64::MAX), *expected);
        }
    }

    #[test]
    fn replayed_tape_reproduces_recorded_values() {
        let mut g = Gen::fresh(1234);
        let a: u32 = g.draw(5u32..500);
        let b = g.vec(1..9usize, |g| g.any::<u8>());
        let tape = g.tape().to_vec();
        let mut r = Gen::replay(tape);
        assert_eq!(r.draw(5u32..500), a);
        assert_eq!(r.vec(1..9usize, |g| g.any::<u8>()), b);
    }

    #[test]
    fn exhausted_tape_yields_minimal_values() {
        let mut g = Gen::replay(Vec::new());
        assert_eq!(g.draw(3u32..40), 3);
        assert_eq!(g.draw(-5i32..=5), -5);
        assert_eq!(g.draw(1.5f64..=9.0), 1.5);
        assert_eq!(g.vec(2..6usize, |g| g.any::<u8>()), vec![0, 0]);
    }
}
