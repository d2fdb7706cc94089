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
//! Scheduling model: workers are scoped threads (`std::thread::scope`, so
//! borrowed data needs no `'static` bound) that self-schedule off a shared
//! atomic cursor — the lock-free equivalent of work stealing for the
//! coarse-grained tasks this workspace runs (each item is a big-integer
//! modular exponentiation or a full participant encryption, microseconds to
//! milliseconds apiece, so per-item synchronisation cost is irrelevant).
//! Results are returned in input order whatever the execution interleaving,
//! and a panic in any worker poisons the shared cursor (siblings stop
//! claiming work promptly) before propagating to the caller.
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

/// A pool of `num_threads` scoped workers.
///
/// With one thread every call runs inline on the caller's stack, so a
/// single-threaded pool is exactly the serial code path (no spawn, no
/// synchronisation) — callers can gate parallelism with a plain size knob.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The number of worker threads this pool runs.
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
    /// Propagates the panic of any worker closure.
    pub fn map_range<U, F>(&self, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let threads = self.threads.min(len);
        if threads <= 1 {
            return (0..len).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break;
                            }
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                                Ok(value) => out.push((i, value)),
                                Err(payload) => {
                                    // Poison the cursor so sibling workers stop
                                    // claiming items instead of draining the rest
                                    // of the range while this panic is pending.
                                    cursor.store(len, Ordering::Relaxed);
                                    std::panic::resume_unwind(payload);
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(bucket) => bucket,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut slots: Vec<Option<U>> = (0..len).map(|_| None).collect();
        for bucket in buckets {
            for (i, value) in bucket {
                slots[i] = Some(value);
            }
        }
        slots.into_iter().map(|s| s.expect("every index is computed exactly once")).collect()
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
    fn install_runs_the_closure() {
        assert_eq!(pool(2).install(|| 41 + 1), 42);
    }
}
