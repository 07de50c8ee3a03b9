//! Deterministic cooperative event loop ("session reactor") over
//! **virtual time**.
//!
//! Thread-per-session pins an OS stack per live playback; this reactor
//! hosts 10⁵⁺ sessions in one process by making each session a resumable
//! state machine ([`Task`]) stepped by a scheduler that parks sleeping
//! tasks in one bucket per deadline. A step yields, sleeps to a virtual
//! tick or finishes ([`Step`]); nothing else wakes a task.
//!
//! Time is a `u64` tick counter that moves only when no task is ready —
//! *virtual* time, never the wall clock, so a seeded schedule replays
//! exactly. One tick is 1 µs ([`TICKS_PER_SEC`]); the session model's
//! `f64` second timestamps convert via [`ticks_from_secs`]. Sessions
//! sleep in large same-tick cohorts (in `reactor_scale`'s 100k fleet,
//! 700,000 sleeps land on 654 ticks), so the ordered map from deadline
//! to sleepers stays small and each wake moves a whole cohort.
//!
//! ## Determinism contract
//!
//! The schedule itself is part of the seeded experiment, exactly like
//! the stream tier's `FaultyChannel`:
//!
//! * Each round drains the ready queue into a batch and applies a
//!   seeded Fisher–Yates shuffle (one [`crate::rng::SmallRng`] stream
//!   per reactor) — same seed ⇒ same interleaving, different seed ⇒ a
//!   genuinely different one.
//! * Virtual time only advances when no task is ready, jumping straight
//!   to the earliest deadline; sleepers wake in `(deadline, sleep
//!   order)` order.
//! * With `workers > 1` the batch is stepped in disjoint chunks on
//!   [`crate::par::fan_out`], but step *results* are recorded and applied
//!   in batch order — so the trace digest is invariant across
//!   `workers ∈ {1, N}` for tasks that don't share mutable state
//!   (sessions are independent by construction). Tasks that do interact
//!   through a shared service must run with `workers ≤ 1`.
//!
//! Every step appends an event to an FNV-1a trace digest; two runs are
//! schedule-identical iff their digests match, which is what the CI
//! double-run guard compares.

use crate::fnv::Digester;
use crate::par;
use crate::rng::SmallRng;
use std::collections::BTreeMap;

/// Virtual ticks per simulated second (1 µs resolution).
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// Largest deadline a sleep can name; later ones are clamped to it.
/// 2⁴⁸ − 1 ticks is about 8.9 simulated years, far beyond any session.
pub const MAX_DEADLINE: u64 = (1 << 48) - 1;

/// Converts simulated seconds to virtual ticks (rounds up so a strictly
/// positive delay never collapses to "now").
#[must_use]
pub fn ticks_from_secs(secs: f64) -> u64 {
    if secs <= 0.0 {
        return 0;
    }
    let t = (secs * TICKS_PER_SEC as f64).ceil();
    if t >= MAX_DEADLINE as f64 { MAX_DEADLINE } else { t as u64 }
}

/// Identifies a spawned task within one reactor.
pub type TaskId = usize;

/// What a task tells the scheduler after one cooperative step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Re-run in the next round.
    Yield,
    /// Park until the absolute virtual tick (see [`ticks_from_secs`]).
    /// A tick that has already passed wakes the task once nothing is
    /// ready, without moving virtual time.
    Sleep(u64),
    /// The task is finished and will never be stepped again.
    Done,
}

/// A resumable cooperative state machine hosted by the reactor.
pub trait Task: Send {
    /// Runs one bounded slice of work and reports how to reschedule.
    fn step(&mut self) -> Step;
}

/// Incremental FNV-1a over scheduler events; the "schedule fingerprint"
/// the determinism tests and CI double-run guard compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest(Digester);

impl TraceDigest {
    fn fold(&mut self, words: &[u64]) {
        for &w in words {
            self.0.write_u64(w);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.finish()
    }

    /// The digest as fixed-width hex (for logs and JSON).
    #[must_use]
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.value())
    }
}

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Seed of the schedule-shuffle RNG stream.
    pub seed: u64,
    /// Step workers: `0` or `1` steps batches on the caller thread; `N`
    /// steps disjoint chunks on [`crate::par::fan_out`] (results still
    /// applied in batch order).
    pub workers: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { seed: 0, workers: 1 }
    }
}

/// RNG stream id for the schedule shuffle (disjoint from the stream
/// tier's fault streams, which derive from their own seeds).
pub const REACTOR_SCHED_STREAM: u64 = 0x5EAC;

/// Summary of one [`Reactor::run`].
#[derive(Debug, Clone)]
pub struct ReactorReport {
    /// Tasks ever spawned.
    pub tasks: usize,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Total task steps applied.
    pub steps: u64,
    /// Final virtual tick.
    pub final_ticks: u64,
    /// Schedule fingerprint (see [`TraceDigest`]).
    pub digest: TraceDigest,
}

/// The deterministic session reactor. Spawn tasks, call [`Self::run`].
pub struct Reactor {
    config: ReactorConfig,
    /// One slot per spawned task; `None` while the task is being stepped
    /// and once it is done.
    slots: Vec<Option<Box<dyn Task>>>,
    ready: Vec<TaskId>,
    /// Sleeping tasks: one bucket per (clamped) deadline, each listing
    /// its tasks in the order they slept.
    sleepers: BTreeMap<u64, Vec<TaskId>>,
    /// The virtual tick.
    now: u64,
    rng: SmallRng,
    live: usize,
    rounds: u64,
    steps: u64,
    digest: TraceDigest,
}

impl Reactor {
    /// A reactor with the given schedule seed and defaults otherwise.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_config(ReactorConfig { seed, ..ReactorConfig::default() })
    }

    /// A reactor with explicit configuration.
    #[must_use]
    pub fn with_config(config: ReactorConfig) -> Self {
        let rng = SmallRng::stream(config.seed, REACTOR_SCHED_STREAM);
        Reactor {
            config,
            slots: Vec::new(),
            ready: Vec::new(),
            sleepers: BTreeMap::new(),
            now: 0,
            rng,
            live: 0,
            rounds: 0,
            steps: 0,
            digest: TraceDigest(Digester::new()),
        }
    }

    /// Registers a task; it becomes runnable in the next round.
    pub fn spawn(&mut self, task: Box<dyn Task>) -> TaskId {
        let id = self.slots.len();
        self.slots.push(Some(task));
        self.ready.push(id);
        self.live += 1;
        id
    }

    /// Live (not yet finished) task count.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    fn record(&mut self, round: u64, id: TaskId, step: Step, now: u64) {
        // The kind codes are part of the digest format the golden rows
        // pin: renumbering any of them moves every schedule digest.
        let (kind, arg) = match step {
            Step::Yield => (0u64, 0u64),
            Step::Sleep(d) => (1, d),
            Step::Done => (3, 0),
        };
        self.digest.fold(&[round, id as u64, kind, arg, now]);
    }

    /// Steps one batch of ready tasks. Returns `false` when there was
    /// nothing ready.
    fn run_round(&mut self) -> bool {
        if self.ready.is_empty() {
            return false;
        }
        self.rounds += 1;
        let round = self.rounds;
        let now = self.now;

        // Seeded Fisher–Yates over the batch: the interleaving is part
        // of the experiment.
        let mut batch = std::mem::take(&mut self.ready);
        for i in (1..batch.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            batch.swap(i, j);
        }

        // Each task travels with the slot its step result lands in;
        // `Step::Yield` is only a placeholder until the task is stepped.
        let mut taken: Vec<(TaskId, Box<dyn Task>, Step)> = batch
            .iter()
            .map(|&id| (id, self.slots[id].take().expect("ready task present"), Step::Yield))
            .collect();

        // Disjoint chunks on the shared fan-out; one chunk (inline) unless
        // every worker gets at least two tasks.
        let workers = self.config.workers;
        let parts = if workers > 1 && taken.len() >= 2 * workers { workers } else { 1 };
        let chunk = taken.len().div_ceil(parts);
        par::fan_out(parts, taken.chunks_mut(chunk), |part| {
            for (_, task, step) in part {
                *step = task.step();
            }
        });

        // Apply in batch order — identical regardless of worker count.
        for (id, task, step) in taken {
            self.steps += 1;
            self.record(round, id, step, now);
            match step {
                Step::Yield => {
                    self.slots[id] = Some(task);
                    self.ready.push(id);
                }
                Step::Sleep(deadline) => {
                    self.slots[id] = Some(task);
                    self.sleepers.entry(deadline.min(MAX_DEADLINE)).or_default().push(id);
                }
                Step::Done => self.live -= 1,
            }
        }
        true
    }

    /// Runs until every task is [`Step::Done`].
    pub fn run(&mut self) -> ReactorReport {
        while self.live > 0 {
            if self.run_round() {
                continue;
            }
            // Nothing ready: virtual time jumps to the earliest deadline
            // (one already passed leaves it where it is), and every bucket
            // due by then wakes, in deadline order.
            let first = *self
                .sleepers
                .keys()
                .next()
                .expect("reactor invariant: every live task is ready or sleeping");
            self.now = self.now.max(first);
            while let Some(due) = self.sleepers.first_entry().filter(|e| *e.key() <= self.now) {
                self.ready.extend(due.remove());
            }
        }
        ReactorReport {
            tasks: self.slots.len(),
            rounds: self.rounds,
            steps: self.steps,
            final_ticks: self.now,
            digest: self.digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Counts down, alternating yield/sleep, then reports its id.
    struct CountDown {
        id: TaskId,
        /// The virtual tick: a sleeper wakes exactly at its deadline,
        /// because time only jumps to the next one.
        now: u64,
        left: u32,
        period: u64,
        out: mpsc::Sender<TaskId>,
    }

    impl Task for CountDown {
        fn step(&mut self) -> Step {
            if self.left == 0 {
                self.out.send(self.id).unwrap();
                return Step::Done;
            }
            self.left -= 1;
            if self.left.is_multiple_of(2) {
                Step::Yield
            } else {
                self.now += self.period;
                Step::Sleep(self.now)
            }
        }
    }

    fn countdown_digest(seed: u64, workers: usize, n: usize) -> (u64, Vec<TaskId>) {
        let mut reactor = Reactor::with_config(ReactorConfig { seed, workers });
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let id = reactor.spawn(Box::new(CountDown {
                id: i,
                now: 0,
                left: 3 + (i as u32 % 5),
                period: 10 + i as u64,
                out: tx.clone(),
            }));
            assert_eq!(id, i, "task ids count spawns");
        }
        drop(tx);
        let report = reactor.run();
        (report.digest.value(), rx.iter().collect())
    }

    #[test]
    fn same_seed_same_digest_and_completion_order() {
        let (d1, order1) = countdown_digest(42, 1, 40);
        let (d2, order2) = countdown_digest(42, 1, 40);
        assert_eq!(d1, d2);
        assert_eq!(order1, order2);
        assert_eq!(order1.len(), 40);
    }

    #[test]
    fn different_seed_different_schedule() {
        let (d1, _) = countdown_digest(1, 1, 40);
        let (d2, _) = countdown_digest(2, 1, 40);
        assert_ne!(d1, d2, "schedule shuffle must depend on the seed");
    }

    #[test]
    fn digest_invariant_across_worker_counts() {
        let (d1, order1) = countdown_digest(7, 1, 64);
        let (d4, order4) = countdown_digest(7, 4, 64);
        assert_eq!(d1, d4, "worker count must not change the schedule");
        assert_eq!(order1, order4);
    }

    /// Sleeps once to `until`, then reports `until` and finishes.
    struct SleepOnce {
        until: u64,
        slept: bool,
        out: mpsc::Sender<u64>,
    }

    impl Task for SleepOnce {
        fn step(&mut self) -> Step {
            if self.slept {
                self.out.send(self.until).unwrap();
                return Step::Done;
            }
            self.slept = true;
            Step::Sleep(self.until)
        }
    }

    fn sleep_once(until: u64, out: &mpsc::Sender<u64>) -> Box<dyn Task> {
        Box::new(SleepOnce { until, slept: false, out: out.clone() })
    }

    /// Returns its scripted steps in order, then [`Step::Done`], logging
    /// `(name, step index)` on every step.
    struct Scripted {
        name: &'static str,
        script: Vec<Step>,
        taken: usize,
        log: mpsc::Sender<(&'static str, usize)>,
    }

    impl Task for Scripted {
        fn step(&mut self) -> Step {
            self.log.send((self.name, self.taken)).unwrap();
            let step = self.script.get(self.taken).copied().unwrap_or(Step::Done);
            self.taken += 1;
            step
        }
    }

    #[test]
    fn virtual_time_jumps_to_deadlines_not_through_them() {
        let (tx, rx) = mpsc::channel();
        let mut reactor = Reactor::new(0);
        reactor.spawn(sleep_once(1_000_000, &tx));
        reactor.spawn(sleep_once(250, &tx));
        drop(tx);
        let report = reactor.run();
        let wakes: Vec<u64> = rx.iter().collect();
        assert_eq!(wakes, vec![250, 1_000_000], "wakes in deadline order");
        assert_eq!(report.final_ticks, 1_000_000);
        assert!(report.rounds <= 6, "time must jump, not tick ({} rounds)", report.rounds);
    }

    #[test]
    fn same_tick_sleepers_wake_in_one_round() {
        let (tx, rx) = mpsc::channel();
        let mut reactor = Reactor::new(3);
        for _ in 0..50 {
            reactor.spawn(sleep_once(1_000, &tx));
        }
        for _ in 0..20 {
            reactor.spawn(sleep_once(2_000, &tx));
        }
        drop(tx);
        let report = reactor.run();
        // Round 1 parks all seventy; each cohort then wakes in one round.
        assert_eq!(report.rounds, 3);
        assert_eq!(report.final_ticks, 2_000);
        let wakes: Vec<u64> = rx.iter().collect();
        assert_eq!(wakes, [vec![1_000; 50], vec![2_000; 20]].concat());
    }

    #[test]
    fn past_deadline_wakes_once_nothing_is_ready_without_moving_time() {
        let (tx, rx) = mpsc::channel();
        let mut reactor = Reactor::new(5);
        // `late` reaches tick 500, then sleeps to the already-passed tick
        // 100 while `busy` keeps the ready queue full for three rounds.
        let late = vec![Step::Sleep(500), Step::Sleep(100)];
        let busy = vec![Step::Sleep(500), Step::Yield, Step::Yield, Step::Yield];
        reactor.spawn(Box::new(Scripted { name: "late", script: late, taken: 0, log: tx.clone() }));
        reactor.spawn(Box::new(Scripted { name: "busy", script: busy, taken: 0, log: tx }));
        let report = reactor.run();
        let log: Vec<(&str, usize)> = rx.iter().collect();
        assert_eq!(&log[4..], &[("busy", 2), ("busy", 3), ("busy", 4), ("late", 2)]);
        assert_eq!(report.rounds, 6);
        assert_eq!(report.final_ticks, 500, "a past deadline must not move virtual time");
    }

    #[test]
    fn sleep_beyond_the_horizon_ends_at_max_deadline() {
        let (tx, rx) = mpsc::channel();
        let mut reactor = Reactor::new(0);
        reactor.spawn(sleep_once(u64::MAX, &tx));
        drop(tx);
        let report = reactor.run();
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![u64::MAX]);
        assert_eq!(report.final_ticks, MAX_DEADLINE);
    }

    #[test]
    fn dense_fleet_wakes_in_deadline_order() {
        let (tx, rx) = mpsc::channel();
        let mut reactor = Reactor::new(11);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut deadlines: Vec<u64> = Vec::new();
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let deadline = 1 + (state >> 16) % 3_000_000;
            deadlines.push(deadline);
            reactor.spawn(sleep_once(deadline, &tx));
        }
        drop(tx);
        let report = reactor.run();
        let wakes: Vec<u64> = rx.iter().collect();
        deadlines.sort_unstable();
        assert_eq!(wakes, deadlines, "every sleeper wakes once, in deadline order");
        assert_eq!(report.final_ticks, deadlines[deadlines.len() - 1]);
        // Round 1 parks the fleet; then each distinct deadline wakes in a
        // round of its own, so no sleeper wakes a tick early or late.
        deadlines.dedup();
        assert_eq!(report.rounds, 1 + deadlines.len() as u64);
    }

    #[test]
    fn ticks_from_secs_rounds_up_and_clamps() {
        assert_eq!(ticks_from_secs(0.0), 0);
        assert_eq!(ticks_from_secs(1.0), TICKS_PER_SEC);
        assert_eq!(ticks_from_secs(1e-9), 1, "positive delays never collapse to zero");
        assert_eq!(ticks_from_secs(f64::INFINITY), MAX_DEADLINE);
    }
}
