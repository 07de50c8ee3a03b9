//! Deterministic cooperative event loop ("session reactor") over
//! **virtual time**.
//!
//! Thread-per-session pins an OS stack per live playback; this reactor
//! hosts 10⁵⁺ sessions in one process by making each session a resumable
//! state machine ([`Task`]) stepped by a scheduler that owns a
//! [`crate::wheel::TimerWheel`] for deadlines and poll-style readiness
//! probes ([`ReadySource`]) over the in-tree [`crate::channel`]s.
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
//! * Parked waiters are re-polled in ascending task-id order.
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

use crate::channel::{Receiver, TryRecvError};
use crate::par;
use crate::rng::SmallRng;
use crate::sync::Mutex;
use crate::wheel::{secs_from_ticks, TimerWheel};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Identifies a spawned task within one reactor.
pub type TaskId = usize;

/// Result of probing a [`ReadySource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// A value (or terminal event) is available; wake the task.
    Ready,
    /// Nothing yet; keep the task parked.
    Pending,
    /// The other side is gone. The task is woken so it can observe
    /// closure — a parked task never sleeps through a hangup.
    Closed,
}

/// A non-blocking readiness probe a task hands to the reactor when it
/// parks. The reactor polls it; the task never blocks a thread.
pub trait ReadySource: Send {
    /// Probes for readiness without blocking.
    fn poll_ready(&mut self) -> Readiness;
}

/// What a task tells the scheduler after one cooperative step.
pub enum Step {
    /// Re-run in the next round.
    Yield,
    /// Park until the absolute virtual tick (see
    /// [`crate::wheel::ticks_from_secs`]). Past deadlines behave like
    /// [`Step::Yield`] with timer-expiry ordering.
    Sleep(u64),
    /// Park until `source` reports [`Readiness::Ready`] or
    /// [`Readiness::Closed`].
    Wait(Box<dyn ReadySource>),
    /// The task is finished and will never be stepped again.
    Done,
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Yield => write!(f, "Yield"),
            Step::Sleep(t) => write!(f, "Sleep({t})"),
            Step::Wait(_) => write!(f, "Wait(..)"),
            Step::Done => write!(f, "Done"),
        }
    }
}

/// Per-step context handed to [`Task::step`].
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// Current virtual tick.
    pub now_ticks: u64,
    /// The id of the task being stepped.
    pub task: TaskId,
    /// The scheduler round (batches stepped so far).
    pub round: u64,
}

impl Context {
    /// Current virtual time in simulated seconds.
    #[must_use]
    pub fn now_secs(&self) -> f64 {
        secs_from_ticks(self.now_ticks)
    }
}

/// A resumable cooperative state machine hosted by the reactor.
pub trait Task: Send {
    /// Runs one bounded slice of work and reports how to reschedule.
    fn step(&mut self, cx: &Context) -> Step;
}

// ---------------------------------------------------------------------------
// Readiness adapter over support::channel.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct PollShared<T> {
    rx: Receiver<T>,
    buf: VecDeque<T>,
    closed: bool,
}

impl<T> PollShared<T> {
    fn pump(&mut self) {
        if self.closed {
            return;
        }
        loop {
            match self.rx.try_recv() {
                Ok(v) => self.buf.push_back(v),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.closed = true;
                    break;
                }
            }
        }
    }
}

/// Poll-style adapter over a [`crate::channel::Receiver`]: buffers
/// whatever has arrived so a task can `try_take` without blocking, and
/// hands out cloneable [`ReadySource`] probes via [`PollRx::source`].
#[derive(Debug)]
pub struct PollRx<T> {
    shared: Arc<Mutex<PollShared<T>>>,
}

impl<T> Clone for PollRx<T> {
    fn clone(&self) -> Self {
        PollRx { shared: Arc::clone(&self.shared) }
    }
}

impl<T: Send> PollRx<T> {
    /// Wraps a receiver for non-blocking reactor use.
    #[must_use]
    pub fn new(rx: Receiver<T>) -> Self {
        PollRx {
            shared: Arc::new(Mutex::new(PollShared { rx, buf: VecDeque::new(), closed: false })),
        }
    }

    /// A probe suitable for [`Step::Wait`].
    #[must_use]
    pub fn source(&self) -> PollRxSource<T> {
        PollRxSource { shared: Arc::clone(&self.shared) }
    }

    /// Takes the next buffered/arrived value, if any.
    pub fn try_take(&self) -> Option<T> {
        let mut shared = self.shared.lock();
        shared.pump();
        shared.buf.pop_front()
    }

    /// Whether every sender is gone *and* the buffer is drained.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        let mut shared = self.shared.lock();
        shared.pump();
        shared.closed && shared.buf.is_empty()
    }
}

/// The [`ReadySource`] half of a [`PollRx`].
#[derive(Debug)]
pub struct PollRxSource<T> {
    shared: Arc<Mutex<PollShared<T>>>,
}

impl<T: Send> ReadySource for PollRxSource<T> {
    fn poll_ready(&mut self) -> Readiness {
        let mut shared = self.shared.lock();
        shared.pump();
        if !shared.buf.is_empty() {
            Readiness::Ready
        } else if shared.closed {
            Readiness::Closed
        } else {
            Readiness::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Trace digest.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over scheduler events; the "schedule fingerprint"
/// the determinism tests and CI double-run guard compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest(u64);

impl TraceDigest {
    fn new() -> Self {
        TraceDigest(FNV_OFFSET)
    }

    fn fold(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as fixed-width hex (for logs and JSON).
    #[must_use]
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Seed of the schedule-shuffle RNG stream.
    pub seed: u64,
    /// Step workers: `0` or `1` steps batches on the caller thread; `N`
    /// steps disjoint chunks on [`crate::par::fan_out`] (results still
    /// applied in batch order).
    pub workers: usize,
    /// `true` when parked sources are fed by *external* OS threads (e.g.
    /// a serve worker pool): the idle loop then parks with a timeout and
    /// re-polls instead of declaring deadlock.
    pub external_wakeups: bool,
    /// Record a human-readable event trace (tests only; the digest is
    /// always maintained).
    pub record_trace: bool,
    /// Abort after this many rounds (`0` = unlimited) — a runaway-task
    /// backstop for tests.
    pub max_rounds: u64,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            seed: 0,
            workers: 1,
            external_wakeups: false,
            record_trace: false,
            max_rounds: 0,
        }
    }
}

/// RNG stream id for the schedule shuffle (disjoint from the stream
/// tier's fault streams, which derive from their own seeds).
pub const REACTOR_SCHED_STREAM: u64 = 0x5EAC;

enum TaskState {
    Ready,
    Sleeping,
    Waiting(Box<dyn ReadySource>),
    Finished,
}

struct TaskSlot {
    task: Option<Box<dyn Task>>,
    state: TaskState,
}

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
    /// Human-readable events when `record_trace` was set.
    pub trace: Vec<String>,
}

/// The deterministic session reactor. Spawn tasks, call [`Self::run`].
pub struct Reactor {
    config: ReactorConfig,
    slots: Vec<TaskSlot>,
    ready: Vec<TaskId>,
    waiting: Vec<TaskId>,
    wheel: TimerWheel<TaskId>,
    rng: SmallRng,
    live: usize,
    rounds: u64,
    steps: u64,
    digest: TraceDigest,
    trace: Vec<String>,
}

/// How long the idle loop parks between re-polls when waiting on
/// external wakeups — a sleep, not a spin (see [`crate::sync::Parker`]).
const EXTERNAL_PARK: Duration = Duration::from_micros(200);

/// Consecutive fruitless external-wakeup polls before declaring the
/// reactor wedged (~10 s of wall clock at [`EXTERNAL_PARK`]).
const EXTERNAL_PARK_LIMIT: u64 = 50_000;

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
            waiting: Vec::new(),
            wheel: TimerWheel::new(),
            rng,
            live: 0,
            rounds: 0,
            steps: 0,
            digest: TraceDigest::new(),
            trace: Vec::new(),
        }
    }

    /// Registers a task; it becomes runnable in the next round.
    pub fn spawn(&mut self, task: Box<dyn Task>) -> TaskId {
        let id = self.slots.len();
        self.slots.push(TaskSlot { task: Some(task), state: TaskState::Ready });
        self.ready.push(id);
        self.live += 1;
        id
    }

    /// Live (not yet finished) task count.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    fn record(&mut self, round: u64, id: TaskId, step: &Step, now: u64) {
        let (kind, arg) = match step {
            Step::Yield => (0u64, 0u64),
            Step::Sleep(d) => (1, *d),
            Step::Wait(_) => (2, 0),
            Step::Done => (3, 0),
        };
        self.digest.fold(&[round, id as u64, kind, arg, now]);
        if self.config.record_trace {
            let name = ["yield", "sleep", "wait", "done"][kind as usize];
            self.trace.push(format!("r{round} t{id} {name}({arg}) @{now}"));
        }
    }

    /// Polls parked waiters in ascending task-id order, waking any whose
    /// source is `Ready` or `Closed`. Returns how many woke.
    fn poll_waiters(&mut self) -> usize {
        self.waiting.sort_unstable();
        let mut woke = 0;
        let mut still = Vec::with_capacity(self.waiting.len());
        for id in std::mem::take(&mut self.waiting) {
            let ready = match &mut self.slots[id].state {
                TaskState::Waiting(src) => !matches!(src.poll_ready(), Readiness::Pending),
                _ => unreachable!("waiting list holds only Waiting tasks"),
            };
            if ready {
                self.slots[id].state = TaskState::Ready;
                self.ready.push(id);
                woke += 1;
            } else {
                still.push(id);
            }
        }
        self.waiting = still;
        woke
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
            .map(|&id| (id, self.slots[id].task.take().expect("ready task present"), Step::Yield))
            .collect();

        // Disjoint chunks on the shared fan-out; one chunk (inline) unless
        // every worker gets at least two tasks.
        let workers = self.config.workers;
        let parts = if workers > 1 && taken.len() >= 2 * workers { workers } else { 1 };
        let chunk = taken.len().div_ceil(parts);
        par::fan_out(parts, taken.chunks_mut(chunk), |part| {
            for (id, task, step) in part {
                *step = task.step(&Context { now_ticks: now, task: *id, round });
            }
        });

        // Apply in batch order — identical regardless of worker count.
        for (id, task, step) in taken {
            self.steps += 1;
            self.record(round, id, &step, now);
            self.slots[id].task = Some(task);
            match step {
                Step::Yield => {
                    self.slots[id].state = TaskState::Ready;
                    self.ready.push(id);
                }
                Step::Sleep(deadline) => {
                    self.slots[id].state = TaskState::Sleeping;
                    self.wheel.schedule(deadline, id);
                }
                Step::Wait(source) => {
                    self.slots[id].state = TaskState::Waiting(source);
                    self.waiting.push(id);
                }
                Step::Done => {
                    self.slots[id].state = TaskState::Finished;
                    self.slots[id].task = None;
                    self.live -= 1;
                }
            }
        }
        true
    }

    /// Runs until every task is [`Step::Done`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock (parked tasks, no timers, no external
    /// wakeups), on a wedged external wait, or past `max_rounds`.
    pub fn run(&mut self) -> ReactorReport {
        let mut expired: Vec<(u64, TaskId)> = Vec::new();
        let mut idle_polls: u64 = 0;
        let parker = crate::sync::Parker::new();
        while self.live > 0 {
            if self.config.max_rounds > 0 && self.rounds >= self.config.max_rounds {
                panic!(
                    "reactor exceeded max_rounds={} with {} tasks live",
                    self.config.max_rounds, self.live
                );
            }
            if self.run_round() {
                idle_polls = 0;
                continue;
            }
            // Nothing ready: wake any satisfied waiters first…
            if self.poll_waiters() > 0 {
                idle_polls = 0;
                continue;
            }
            // …then let virtual time jump to the next deadline.
            if let Some(deadline) = self.wheel.next_deadline() {
                expired.clear();
                self.wheel.advance_to(deadline, &mut expired);
                for &(_, id) in &expired {
                    self.slots[id].state = TaskState::Ready;
                    self.ready.push(id);
                }
                idle_polls = 0;
                continue;
            }
            // No ready tasks, no timers — only external senders can
            // unblock us now.
            assert!(
                !self.waiting.is_empty(),
                "reactor invariant: live tasks but none ready/sleeping/waiting"
            );
            assert!(
                self.config.external_wakeups,
                "reactor deadlock: {} tasks waiting on sources nothing will feed \
                 (set external_wakeups when sources are fed by OS threads)",
                self.waiting.len()
            );
            idle_polls += 1;
            assert!(
                idle_polls < EXTERNAL_PARK_LIMIT,
                "reactor wedged: {} tasks still waiting after {} park/poll cycles",
                self.waiting.len(),
                idle_polls
            );
            // Sleep (don't spin) before the next poll sweep.
            parker.park_timeout(EXTERNAL_PARK);
        }
        ReactorReport {
            tasks: self.slots.len(),
            rounds: self.rounds,
            steps: self.steps,
            final_ticks: self.wheel.now(),
            digest: self.digest,
            trace: std::mem::take(&mut self.trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;

    /// Counts down, alternating yield/sleep, then reports its id.
    struct CountDown {
        left: u32,
        period: u64,
        out: channel::Sender<TaskId>,
    }

    impl Task for CountDown {
        fn step(&mut self, cx: &Context) -> Step {
            if self.left == 0 {
                self.out.send(cx.task).unwrap();
                return Step::Done;
            }
            self.left -= 1;
            if self.left % 2 == 0 {
                Step::Yield
            } else {
                Step::Sleep(cx.now_ticks + self.period)
            }
        }
    }

    fn countdown_digest(seed: u64, workers: usize, n: usize) -> (u64, Vec<TaskId>) {
        let mut reactor = Reactor::with_config(ReactorConfig {
            seed,
            workers,
            ..ReactorConfig::default()
        });
        let (tx, rx) = channel::unbounded();
        for i in 0..n {
            reactor.spawn(Box::new(CountDown {
                left: 3 + (i as u32 % 5),
                period: 10 + i as u64,
                out: tx.clone(),
            }));
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
    fn wait_wakes_on_ready_and_closed() {
        // Producer sends one value then hangs up; consumer must see the
        // value, then observe closure, then finish.
        struct Producer {
            tx: Option<channel::Sender<u32>>,
            sent: bool,
        }
        impl Task for Producer {
            fn step(&mut self, cx: &Context) -> Step {
                if !self.sent {
                    self.sent = true;
                    self.tx.as_ref().unwrap().send(99).unwrap();
                    return Step::Sleep(cx.now_ticks + 100);
                }
                self.tx = None; // hang up
                Step::Done
            }
        }
        struct Consumer {
            rx: PollRx<u32>,
            got: Vec<u32>,
            out: channel::Sender<Vec<u32>>,
        }
        impl Task for Consumer {
            fn step(&mut self, _cx: &Context) -> Step {
                loop {
                    match self.rx.try_take() {
                        Some(v) => self.got.push(v),
                        None if self.rx.is_closed() => {
                            self.out.send(std::mem::take(&mut self.got)).unwrap();
                            return Step::Done;
                        }
                        None => return Step::Wait(Box::new(self.rx.source())),
                    }
                }
            }
        }
        let (tx, rx) = channel::unbounded();
        let (out_tx, out_rx) = channel::unbounded();
        let mut reactor = Reactor::new(5);
        reactor.spawn(Box::new(Producer { tx: Some(tx), sent: false }));
        reactor.spawn(Box::new(Consumer { rx: PollRx::new(rx), got: Vec::new(), out: out_tx }));
        let report = reactor.run();
        assert_eq!(out_rx.recv().unwrap(), vec![99]);
        assert!(report.rounds > 0 && report.steps >= 3);
    }

    #[test]
    #[should_panic(expected = "reactor deadlock")]
    fn deadlock_without_external_wakeups_panics() {
        struct Stuck {
            rx: PollRx<u32>,
            _tx: channel::Sender<u32>, // keep the channel open forever
        }
        impl Task for Stuck {
            fn step(&mut self, _cx: &Context) -> Step {
                Step::Wait(Box::new(self.rx.source()))
            }
        }
        let (tx, rx) = channel::unbounded();
        let mut reactor = Reactor::new(0);
        reactor.spawn(Box::new(Stuck { rx: PollRx::new(rx), _tx: tx }));
        reactor.run();
    }

    #[test]
    fn external_wakeups_resume_a_parked_task() {
        struct WaitOne {
            rx: PollRx<u32>,
            out: channel::Sender<u32>,
        }
        impl Task for WaitOne {
            fn step(&mut self, _cx: &Context) -> Step {
                match self.rx.try_take() {
                    Some(v) => {
                        self.out.send(v).unwrap();
                        Step::Done
                    }
                    None => Step::Wait(Box::new(self.rx.source())),
                }
            }
        }
        let (tx, rx) = channel::unbounded();
        let (out_tx, out_rx) = channel::unbounded();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(7).unwrap();
        });
        let mut reactor = Reactor::with_config(ReactorConfig {
            external_wakeups: true,
            ..ReactorConfig::default()
        });
        reactor.spawn(Box::new(WaitOne { rx: PollRx::new(rx), out: out_tx }));
        reactor.run();
        sender.join().unwrap();
        assert_eq!(out_rx.recv().unwrap(), 7);
    }

    #[test]
    fn virtual_time_jumps_to_deadlines_not_through_them() {
        struct SleepOnce {
            until: u64,
            out: channel::Sender<u64>,
        }
        impl Task for SleepOnce {
            fn step(&mut self, cx: &Context) -> Step {
                if cx.now_ticks >= self.until {
                    self.out.send(cx.now_ticks).unwrap();
                    return Step::Done;
                }
                Step::Sleep(self.until)
            }
        }
        let (tx, rx) = channel::unbounded();
        let mut reactor = Reactor::new(0);
        reactor.spawn(Box::new(SleepOnce { until: 1_000_000, out: tx.clone() }));
        reactor.spawn(Box::new(SleepOnce { until: 250, out: tx }));
        let report = reactor.run();
        let wakes: Vec<u64> = rx.iter().collect();
        assert_eq!(wakes, vec![250, 1_000_000], "wakes in deadline order, exact ticks");
        assert_eq!(report.final_ticks, 1_000_000);
        assert!(report.rounds <= 6, "time must jump, not tick ({} rounds)", report.rounds);
    }

    #[test]
    fn trace_recording_matches_step_count() {
        let mut reactor = Reactor::with_config(ReactorConfig {
            record_trace: true,
            ..ReactorConfig::default()
        });
        let (tx, _rx) = channel::unbounded();
        reactor.spawn(Box::new(CountDown { left: 4, period: 10, out: tx }));
        let report = reactor.run();
        assert_eq!(report.trace.len() as u64, report.steps);
        assert!(report.trace.iter().any(|line| line.contains("done")));
    }
}
