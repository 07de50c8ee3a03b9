//! Deterministic cooperative event loop ("session reactor") over
//! **virtual time**.
//!
//! Thread-per-session pins an OS stack per live playback; this reactor
//! hosts 10⁵⁺ sessions in one process by making each session a resumable
//! state machine ([`Task`]) stepped by a scheduler that owns a
//! [`crate::wheel::TimerWheel`] for deadlines. A step yields, sleeps to
//! a virtual tick or finishes ([`Step`]); nothing else wakes a task.
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
//!   to the wheel's next deadline; expiry order is `(deadline,
//!   insertion-seq)`.
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
use crate::wheel::TimerWheel;

/// Identifies a spawned task within one reactor.
pub type TaskId = usize;

/// What a task tells the scheduler after one cooperative step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Re-run in the next round.
    Yield,
    /// Park until the absolute virtual tick (see
    /// [`crate::wheel::ticks_from_secs`]). Past deadlines behave like
    /// [`Step::Yield`] with timer-expiry ordering.
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
    wheel: TimerWheel<TaskId>,
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
            wheel: TimerWheel::new(),
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
        let now = self.wheel.now();

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
                    self.wheel.schedule(deadline, id);
                }
                Step::Done => self.live -= 1,
            }
        }
        true
    }

    /// Runs until every task is [`Step::Done`].
    pub fn run(&mut self) -> ReactorReport {
        let mut expired: Vec<(u64, TaskId)> = Vec::new();
        while self.live > 0 {
            if self.run_round() {
                continue;
            }
            // Nothing ready: virtual time jumps to the next deadline.
            let deadline = self
                .wheel
                .next_deadline()
                .expect("reactor invariant: every live task is ready or sleeping");
            expired.clear();
            self.wheel.advance_to(deadline, &mut expired);
            self.ready.extend(expired.iter().map(|&(_, id)| id));
        }
        ReactorReport {
            tasks: self.slots.len(),
            rounds: self.rounds,
            steps: self.steps,
            final_ticks: self.wheel.now(),
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

    #[test]
    fn virtual_time_jumps_to_deadlines_not_through_them() {
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
        let (tx, rx) = mpsc::channel();
        let mut reactor = Reactor::new(0);
        reactor.spawn(Box::new(SleepOnce { until: 1_000_000, slept: false, out: tx.clone() }));
        reactor.spawn(Box::new(SleepOnce { until: 250, slept: false, out: tx }));
        let report = reactor.run();
        let wakes: Vec<u64> = rx.iter().collect();
        assert_eq!(wakes, vec![250, 1_000_000], "wakes in deadline order");
        assert_eq!(report.final_ticks, 1_000_000);
        assert!(report.rounds <= 6, "time must jump, not tick ({} rounds)", report.rounds);
    }
}
