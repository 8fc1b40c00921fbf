//! Offline shim for the `rayon` crate.
//!
//! Implements the data-parallel subset the workspace's hot paths use —
//! `par_iter().map(..).collect()`, `par_iter().for_each(..)`, and
//! `par_chunks_mut(..)` — on top of `std::thread::scope`. Work is split
//! into one contiguous span per worker, so results are returned in input
//! order and every closure observes the same element exactly once; with
//! deterministic per-element math, output is bit-identical to the
//! sequential loop.
//!
//! Small inputs (fewer than [`PAR_MIN_LEN`] elements, overridable with
//! `with_min_len`) run inline on the calling thread: spawning threads
//! costs tens of microseconds, which would swamp the per-request
//! prediction path at interactive candidate-set sizes. The size test
//! comes first, so an inline call does no other work.
//!
//! The worker count is resolved once per process by
//! [`current_num_threads`], as real rayon sizes its global pool once.
//! `std::thread::available_parallelism` reads the affinity mask and
//! the cgroup CPU quota files on every call (7 file syscalls and
//! ≈ 13–15 µs per call on a cgroup-limited 2-vCPU Linux VM), far too
//! much to pay per request; it is called nowhere else in the
//! workspace (the `fc-check lint` rule `parallelism-probe` enforces
//! that).

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Below this many items a "parallel" call runs sequentially inline.
pub const PAR_MIN_LEN: usize = 1024;

/// The number of worker threads a parallel call splits its input
/// across: the host's available parallelism, probed on first use and
/// fixed for the life of the process (real rayon's name for the size
/// of the current pool, so call sites compile against either crate).
pub fn current_num_threads() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The worker count for an input of `len` items, or `None` when the
/// call should run inline: below `min_len`, or on a one-worker host.
fn split_workers(len: usize, min_len: usize) -> Option<usize> {
    if len < min_len {
        return None;
    }
    let nw = current_num_threads();
    (nw > 1).then_some(nw)
}

/// The `rayon::prelude`, re-exporting the traits that add `par_*`
/// methods to slices and vectors.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSliceMut};
}

/// Adds `par_iter` to collections (implemented for slices and `Vec`).
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: Sync + 'a;
    /// Creates a parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter {
            items: self,
            min_len: PAR_MIN_LEN,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        self.as_slice().par_iter()
    }
}

/// A borrowing parallel iterator over a slice.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Sets the sequential-fallback threshold (mirrors rayon's
    /// `with_min_len` intent: below this, run inline).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Maps each element; the result preserves input order.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { iter: self, f }
    }

    /// Runs `f` on every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let Some(nw) = split_workers(self.items.len(), self.min_len) else {
            self.items.iter().for_each(f);
            return;
        };
        let chunk = self.items.len().div_ceil(nw);
        std::thread::scope(|s| {
            for span in self.items.chunks(chunk) {
                s.spawn(|| span.iter().for_each(&f));
            }
        });
    }
}

/// The mapped form of [`ParIter`].
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    iter: ParIter<'a, T>,
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Collects the mapped values in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let items = self.iter.items;
        let Some(nw) = split_workers(items.len(), self.iter.min_len) else {
            return items.iter().map(self.f).collect::<Vec<R>>().into();
        };
        let chunk = items.len().div_ceil(nw);
        let mut parts: Vec<Vec<R>> = Vec::with_capacity(nw);
        std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|span| s.spawn(|| span.iter().map(&self.f).collect::<Vec<R>>()))
                .collect();
            for h in handles {
                parts.push(h.join().expect("rayon shim worker panicked"));
            }
        });
        parts.into_iter().flatten().collect::<Vec<R>>().into()
    }
}

/// Adds `par_chunks_mut` to mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits into disjoint `chunk_size` chunks processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            items: self,
            chunk_size,
            min_chunks: PAR_MIN_LEN,
        }
    }
}

/// A parallel iterator over disjoint mutable chunks.
#[derive(Debug)]
pub struct ParChunksMut<'a, T> {
    items: &'a mut [T],
    chunk_size: usize,
    min_chunks: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Sets the sequential-fallback threshold in number of chunks.
    pub fn with_min_len(mut self, min_chunks: usize) -> Self {
        self.min_chunks = min_chunks.max(1);
        self
    }

    /// Pairs each chunk with its index, mirroring rayon's
    /// `IndexedParallelIterator::enumerate` so call sites compile
    /// against both this shim and crates.io rayon.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate(self)
    }
}

/// The enumerated form of [`ParChunksMut`].
#[derive(Debug)]
pub struct ParChunksMutEnumerate<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Runs `f((chunk_index, chunk))` on every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let inner = self.0;
        let nchunks = inner.items.len().div_ceil(inner.chunk_size.max(1));
        let Some(nw) = split_workers(nchunks, inner.min_chunks) else {
            for pair in inner.items.chunks_mut(inner.chunk_size).enumerate() {
                f(pair);
            }
            return;
        };
        // One contiguous span of chunks per worker.
        let chunks_per_worker = nchunks.div_ceil(nw);
        let span = chunks_per_worker * inner.chunk_size;
        std::thread::scope(|s| {
            for (w, slab) in inner.items.chunks_mut(span).enumerate() {
                let f = &f;
                let chunk_size = inner.chunk_size;
                s.spawn(move || {
                    for (i, c) in slab.chunks_mut(chunk_size).enumerate() {
                        f((w * chunks_per_worker + i, c));
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().with_min_len(8).map(|x| x * 2).collect();
        assert_eq!(doubled.len(), v.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as u64);
        }
    }

    #[test]
    fn worker_count_is_stable_and_positive() {
        let n = super::current_num_threads();
        assert!(n >= 1);
        assert_eq!(super::current_num_threads(), n);
    }

    #[test]
    fn split_is_inline_below_threshold() {
        assert_eq!(super::split_workers(3, super::PAR_MIN_LEN), None);
        assert_eq!(super::split_workers(0, 1), None);
    }

    #[test]
    fn small_inputs_run_inline() {
        let v = vec![1, 2, 3];
        let s: Vec<i32> = v.par_iter().map(|x| x + 1).collect();
        assert_eq!(s, vec![2, 3, 4]);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let v: Vec<usize> = (0..5000).collect();
        let sum = AtomicUsize::new(0);
        v.par_iter().with_min_len(16).for_each(|x| {
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 5000 * 4999 / 2);
    }

    #[test]
    fn chunks_mut_indexes_correctly() {
        let mut v = vec![0u64; 9 * 7];
        v.par_chunks_mut(7)
            .with_min_len(1)
            .enumerate()
            .for_each(|(i, c)| {
                for x in c {
                    *x = i as u64;
                }
            });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i / 7) as u64);
        }
    }
}
