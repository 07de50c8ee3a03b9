//! Scoped fan-out: the workspace's one way to spread a job's work items
//! over threads — the hermetic stand-in for `rayon::scope`.
//!
//! [`fan_out`] hands owned work items (index ranges, disjoint `&mut`
//! frame chunks, GOP jobs, reactor task chunks) to scoped worker threads
//! and returns their results **in item order**. That order is what lets
//! every parallel stage promise output byte-identical to its serial run:
//!
//! * workers claim item *indices* from an atomic cursor, so a slow item
//!   never holds back the ones after it;
//! * each result is stored under its item's index, so the order in which
//!   workers finish is invisible in the returned vector;
//! * `workers ≤ 1`, or a single item, runs inline on the calling thread:
//!   no thread, no lock and no allocation beyond the result vector;
//! * a panicking item reaches the caller with its own payload.
//!
//! [`ParallelConfig`] and [`chunked_map`] add the fixed-size chunking the
//! per-frame stages use on top of it.

use crate::sync::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How much intra-job parallelism to use.
///
/// The default (`workers == 0`) is the serial reference: all work runs
/// inline, in order, on the calling thread. Any `workers > 1` fans
/// fixed-size chunks out over that many threads (the caller's included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads; `0` = inline serial reference.
    pub workers: usize,
    /// Frames (or scenes) per work chunk. Chunking granularity never
    /// affects output bytes, only load balance.
    pub chunk_frames: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelConfig {
    /// Default chunk granularity: one chunk ≈ one scene's worth of
    /// frames at the library's 12 fps.
    pub const DEFAULT_CHUNK_FRAMES: usize = 16;

    /// The deterministic inline reference configuration.
    #[must_use]
    pub fn serial() -> Self {
        Self { workers: 0, chunk_frames: Self::DEFAULT_CHUNK_FRAMES }
    }

    /// `workers` threads with the default chunk size (`0` = serial).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::serial() }
    }

    /// Overrides the chunk granularity (clamped to ≥ 1 at use sites).
    #[must_use]
    pub fn with_chunk_frames(mut self, chunk_frames: usize) -> Self {
        self.chunk_frames = chunk_frames;
        self
    }

    /// Whether this configuration runs inline on the calling thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.workers == 0
    }
}

/// Splits `0..n` into contiguous chunks of at most `chunk` items.
#[must_use]
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Maps `f` over the chunk ranges of `0..n` (`cfg.chunk_frames` indices
/// each) on `cfg.workers` threads, returning results in chunk order.
pub fn chunked_map<T, F>(n: usize, cfg: &ParallelConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    fan_out(cfg.workers, chunk_ranges(n, cfg.chunk_frames), f)
}

/// Runs `f` on every item on up to `workers` threads and returns the
/// results in item order.
///
/// With `workers ≤ 1` or at most one item this is exactly
/// `items.map(f).collect()` on the calling thread. Otherwise the calling
/// thread and `workers − 1` scoped helpers claim items one index at a
/// time, each item moving to the thread that claims it.
///
/// # Panics
///
/// If `f` panics on an item, the panic is resumed on the calling thread
/// with that item's payload once every worker has stopped.
pub fn fan_out<I, T, F>(workers: usize, items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let items = items.into_iter();
    let threads = workers.min(items.len());
    if threads <= 1 {
        return items.map(f).collect();
    }
    let slots: Vec<Mutex<Option<I::Item>>> = items.map(|item| Mutex::new(Some(item))).collect();
    // The cursor only hands out indices: each item moves through its
    // slot's mutex and each result through `join`, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    // One worker: claim the next index, run its item, keep the result
    // with its index.
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return done };
            let item = slot.lock().take().expect("each index is claimed once");
            done.push((i, f(item)));
        }
    };
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(slots.len()).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut place = |done: Vec<(usize, T)>| {
            for (i, value) in done {
                results[i] = Some(value);
            }
        };
        place(work());
        for helper in helpers {
            match helper.join() {
                Ok(done) => place(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.into_iter().map(|r| r.expect("every item yields one result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    const WORKERS: [usize; 5] = [0, 1, 2, 3, 7];

    /// The string payload of a caught panic.
    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 100), vec![0..3]);
        // Degenerate chunk size clamps to 1.
        assert_eq!(chunk_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn results_come_back_in_item_order() {
        // Zero items, one item, fewer items than workers, many items.
        for n in [0usize, 1, 2, 5, 23] {
            let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
            for workers in WORKERS {
                // A parallel run holds the first item until the last one
                // has started, so items finish out of order.
                let parallel = workers.min(n) >= 2;
                let gate = Barrier::new(2);
                let got = fan_out(workers, 0..n, |i| {
                    if parallel && (i == 0 || i == n - 1) {
                        gate.wait();
                    }
                    i * i
                });
                assert_eq!(got, expect, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn chunked_map_orders_results_for_every_worker_count() {
        let reference: Vec<Vec<usize>> =
            chunked_map(23, &ParallelConfig::serial().with_chunk_frames(5), |r| r.collect());
        assert_eq!(reference.len(), 5);
        for workers in WORKERS.into_iter().chain([16]) {
            let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(5);
            let got = chunked_map(23, &cfg, |r| r.collect::<Vec<_>>());
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn every_mut_item_is_visited_exactly_once() {
        for workers in WORKERS {
            let mut frames = vec![0u32; 41];
            let visited: Vec<usize> =
                fan_out(workers, frames.chunks_mut(4), |chunk| {
                    for v in chunk.iter_mut() {
                        *v += 1;
                    }
                    chunk.len()
                });
            assert_eq!(visited.iter().sum::<usize>(), 41, "workers={workers}");
            assert!(frames.iter().all(|&v| v == 1), "workers={workers}: {frames:?}");
        }
    }

    #[test]
    fn inline_runs_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (workers, n) in [(0usize, 9usize), (1, 9), (7, 1)] {
            let ids = fan_out(workers, 0..n, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "workers={workers} n={n}");
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_own_payload() {
        for workers in WORKERS {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(1);
                chunked_map(6, &cfg, |r| {
                    assert!(r.start != 3, "item three failed");
                    r.start
                })
            }))
            .expect_err("item 3 panics");
            assert_eq!(message(caught.as_ref()), "item three failed", "workers={workers}");
        }
    }
}
