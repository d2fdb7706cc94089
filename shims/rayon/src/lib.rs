//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot reach crates.io, so this shim provides the
//! small slice of rayon the workspace needs: a configurable thread pool that
//! maps a closure over an index range in parallel.  Upstream rayon expresses
//! the same computation as `pool.install(|| items.par_iter().map(f).collect())`;
//! re-implementing the full `ParallelIterator` machinery offline would be
//! out of proportion, so the pool exposes the two ordered-map entry points
//! the crypto hot path actually uses ([`ThreadPool::map_range`] and
//! [`ThreadPool::map`]) plus the familiar [`ThreadPoolBuilder`] front door.
//!
//! Scheduling model: a call with `t` usable threads spawns `t − 1` scoped
//! workers (`std::thread::scope`, so borrowed data needs no `'static` bound)
//! and the calling thread works a share beside them instead of sleeping in
//! `join`.  All of them self-schedule off one shared atomic cursor, claiming
//! a **block** of `max(1, len / (8·t))` consecutive indices per `fetch_add`
//! — chunk self-scheduling (Kruskal & Weiss 1985; Polychronopoulos & Kuck
//! 1987): the cursor's cache line, the unwind guard and the result vector
//! are paid once per block, not once per item.  Eight claims per thread
//! bound the tail imbalance at an eighth of a share, and a range shorter
//! than `16·t` is claimed one index at a time, so the coarse maps (a couple of
//! dozen participant encryptions, nine threshold decryptions, one task per
//! simulator shard) are balanced item by item while the fine ones (20 000
//! surrogate contributions at ≈ 1.6 µs, wave applies at a few nanoseconds
//! per exchange) pay tens of cursor hits per call instead of one per item.
//! What remains per call is the spawn and join of the extra workers:
//! ≈ 60 µs at the median (10–18 µs at best) for a two-thread pool on the
//! 2-vCPU reference box (`chiarobench`'s `pool.map_overhead_us`), which is
//! what callers' serial cut-offs such as
//! `gossip::engine::PARALLEL_EXCHANGE_THRESHOLD` are sized against.
//!
//! Each block comes back as `(start, values)`; the caller sorts the handful
//! of blocks by `start` and concatenates, so results are in index order
//! whatever the execution interleaving.  A panic in any share — a spawned
//! worker's or the caller's own — poisons the cursor (siblings finish at
//! most the block they are in, then stop claiming) before propagating to
//! the caller once every worker has been joined.
//!
//! Determinism: the pool never touches randomness and the output order is
//! fixed, so `map_range(len, f)` returns bit-identical results whatever
//! `num_threads` is — the property the runner's serial-vs-parallel
//! equivalence tests assert.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Error returned by [`ThreadPoolBuilder::build`].
///
/// The offline pool cannot actually fail to build (it spawns threads lazily,
/// per call); the type exists so call sites keep rayon's `Result` shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build the thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring rayon's front door.
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with automatic thread-count selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads; `0` (the default) selects the
    /// machine's available parallelism, as upstream rayon does.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool (infallible offline; the `Result` keeps rayon's API).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// Cursor claims per thread over an evenly spread range: a thread that is
/// late to the cursor leaves at most one block, an eighth of a share, as the
/// tail the others wait for.
const CLAIMS_PER_THREAD: usize = 8;

/// A pool of `num_threads` threads per call: the caller plus
/// `num_threads − 1` scoped workers.
///
/// With one thread every call runs inline on the caller's stack, so a
/// single-threaded pool is exactly the serial code path (no spawn, no
/// synchronisation) — callers can gate parallelism with a plain size knob.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The number of threads a call runs on, the caller's included.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` within the pool (trivially, since the pool has no
    /// thread-local registry; kept for rayon API familiarity).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        op()
    }

    /// Applies `f` to every index in `0..len` and returns the results in
    /// index order.
    ///
    /// # Panics
    /// Propagates the panic of any call of `f`, on whichever thread it ran.
    pub fn map_range<U, F>(&self, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let threads = self.threads.min(len);
        if threads <= 1 {
            return (0..len).map(f).collect();
        }
        let block = (len / (CLAIMS_PER_THREAD * threads)).max(1);
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut blocks: Vec<(usize, Vec<U>)> = Vec::new();
            loop {
                let start = cursor.fetch_add(block, Ordering::Relaxed);
                if start >= len {
                    break blocks;
                }
                let end = (start + block).min(len);
                let run = || (start..end).map(&f).collect();
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                    Ok(values) => blocks.push((start, values)),
                    Err(payload) => {
                        // Poison the cursor so the other threads stop claiming
                        // blocks instead of draining the rest of the range
                        // while this panic is pending.
                        cursor.store(len, Ordering::Relaxed);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        };
        // A panic in the caller's own share unwinds out of the scope closure:
        // `thread::scope` joins the workers first, then lets it continue.
        let mut blocks = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut blocks = work();
            for worker in workers {
                match worker.join() {
                    Ok(theirs) => blocks.extend(theirs),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            blocks
        });
        blocks.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(len);
        for (_, values) in blocks {
            out.extend(values);
        }
        out
    }

    /// Applies `f` to every `(index, item)` of the slice and returns the
    /// results in input order.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_range(items.len(), |i| f(i, &items[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let auto = ThreadPoolBuilder::new().build().unwrap();
        assert!(auto.current_num_threads() >= 1);
        assert_eq!(pool(3).current_num_threads(), 3);
    }

    #[test]
    fn map_range_preserves_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 32] {
            assert_eq!(pool(threads).map_range(257, |i| i * i), expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_passes_items_with_their_indices() {
        let items = vec!["a", "b", "c", "d"];
        let out = pool(4).map(&items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        assert_eq!(pool(4).map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool(4).map_range(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn parallel_result_is_bit_identical_to_serial() {
        // The determinism contract the runner relies on: same closure, same
        // inputs, any thread count -> identical output vector.
        let f = |i: usize| (i as f64 * 0.1).sin().to_bits();
        let serial = pool(1).map_range(1_000, f);
        let parallel = pool(7).map_range(1_000, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_index_is_visited_exactly_once() {
        let seen = Mutex::new(Vec::new());
        pool(5).map_range(100, |i| seen.lock().unwrap().push(i));
        let mut indices = seen.into_inner().unwrap();
        indices.sort_unstable();
        assert_eq!(indices, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn workers_share_the_range() {
        // With more than one thread the visited set must still be exact even
        // under contention on the cursor.
        let ids = Mutex::new(HashSet::new());
        pool(4).map_range(64, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        // At most `threads` distinct workers touched the range (exactly how
        // many depends on the machine's scheduling).
        assert!(ids.into_inner().unwrap().len() <= 4);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            pool(3).map_range(16, |i| {
                if i == 11 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn a_panic_poisons_the_cursor_so_siblings_stop_early() {
        // A panic at item 0 of a huge range must not leave the other workers
        // draining the remaining ten million items before the panic can
        // propagate: the panicking worker stores `len` into the shared cursor
        // first, so siblings run off the end on their next claim.
        let len = 10_000_000usize;
        let visited = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool(4).map_range(len, |i| {
                if i == 0 {
                    panic!("poison");
                }
                visited.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        let count = visited.load(Ordering::Relaxed);
        assert!(
            count < len / 2,
            "siblings kept draining the cursor after the panic: {count} of {len} items ran"
        );
    }

    #[test]
    fn every_block_edge_keeps_index_order_and_exactly_once_coverage() {
        // Lengths around every edge of the block rule: pools wider than the
        // range, the `8t` claims that first go round once, the step from
        // blocks of one to blocks of two at `16t`, a ragged last block
        // (`64t + 7`: blocks of eight, then seven), and a prime.
        for t in [2usize, 3, 7, 32] {
            for len in [0, 1, 8 * t - 1, 8 * t, 8 * t + 1, 16 * t - 1, 16 * t, 64 * t + 7, 10_007] {
                let visits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = pool(t).map_range(len, |i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    i
                });
                assert_eq!(out, (0..len).collect::<Vec<_>>(), "order, threads = {t}, len = {len}");
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "an index ran twice or never, threads = {t}, len = {len}"
                );
            }
        }
    }

    #[test]
    fn zero_sized_results_come_back_one_per_index() {
        // The wave-apply shape: the closure only has side effects.
        for (t, len) in [(2usize, 5_000usize), (7, 1_024), (3, 2)] {
            let calls = AtomicUsize::new(0);
            let out: Vec<()> = pool(t).map_range(len, |_| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(out.len(), len, "threads = {t}");
            assert_eq!(calls.into_inner(), len, "threads = {t}");
        }
    }

    #[test]
    fn map_equals_map_range_over_the_same_closure() {
        let items: Vec<u64> = (0..1_003).map(|i| i * 7 + 1).collect();
        let f = |i: usize, x: &u64| x.wrapping_mul(i as u64 + 3);
        for t in [1, 2, 7] {
            let p = pool(t);
            assert_eq!(p.map(&items, f), p.map_range(items.len(), |i| f(i, &items[i])), "threads = {t}");
        }
    }

    #[test]
    fn the_caller_works_a_share_beside_threads_minus_one_workers() {
        // One item per thread, each held at a barrier until `t` threads are
        // inside the closure at once: exactly `t` distinct threads touch the
        // range, and the caller must be one of them or the barrier never
        // opens with only `t − 1` workers spawned.
        for t in [2usize, 4] {
            let gate = std::sync::Barrier::new(t);
            let ids = Mutex::new(HashSet::new());
            pool(t).map_range(t, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                gate.wait();
            });
            let mut ids = ids.into_inner().unwrap();
            assert!(ids.remove(&std::thread::current().id()), "the caller ran no item, threads = {t}");
            assert_eq!(ids.len(), t - 1, "spawned workers, threads = {t}");
        }
    }

    #[test]
    fn a_panic_at_any_index_reaches_the_caller_as_one_error() {
        // First, middle and last index (the last sits in a ragged block),
        // then every index: whichever share unwinds — the caller's, a spawned
        // worker's, or both — `map_range` neither hangs nor aborts.
        let len = 1_003usize;
        for t in [2usize, 7] {
            for at in [0, len / 2, len - 1] {
                let result = std::panic::catch_unwind(|| {
                    pool(t).map_range(len, |i| {
                        assert_ne!(i, at, "boom");
                        i
                    })
                });
                assert!(result.is_err(), "threads = {t}, panic at {at}");
            }
            let result = std::panic::catch_unwind(|| pool(t).map_range(64, |_| -> usize { panic!("boom") }));
            assert!(result.is_err(), "threads = {t}, every index");
        }
    }

    #[test]
    fn every_thread_panicking_at_once_still_unwinds_once() {
        // The barrier opens only when the caller and all `t − 1` workers are
        // inside the closure, so every share — the caller's included —
        // panics, poisons and unwinds in the same call.
        for t in [2usize, 7] {
            let gate = std::sync::Barrier::new(t);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool(t).map_range(64, |_| -> usize {
                    gate.wait();
                    panic!("boom")
                })
            }));
            assert!(result.is_err(), "threads = {t}");
        }
    }

    #[test]
    fn install_runs_the_closure() {
        assert_eq!(pool(2).install(|| 41 + 1), 42);
    }
}
