//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach crates.io, so this crate provides the
//! data-parallel subset the experiment harness uses — `into_par_iter()` /
//! `par_iter()` with `map(...).collect()` — implemented with
//! `std::thread::scope` and a work queue for dynamic load balancing (the
//! per-seed synthesis runs it parallelizes vary widely in cost).
//!
//! `collect()` preserves input order, so parallel experiment sweeps produce
//! byte-identical output to their sequential versions. The worker count is
//! `RAYON_NUM_THREADS` if set, else `std::thread::available_parallelism()`.

#![forbid(unsafe_code)]

use std::sync::Mutex;

pub mod prelude {
    //! The usual rayon imports.
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
}

pub mod iter;

/// The number of worker threads parallel iterators will use —
/// `RAYON_NUM_THREADS` if set, else the machine's available parallelism.
/// Mirrors `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Order-preserving parallel map over owned items.
pub(crate) fn parallel_map<T, O, F>(items: Vec<T>, f: &F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let n = items.len();
    let workers = current_num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").next();
                let Some((index, item)) = next else { break };
                let output = f(item);
                results
                    .lock()
                    .expect("results poisoned")
                    .push((index, output));
            });
        }
    });
    let mut keyed = results.into_inner().expect("results poisoned");
    keyed.sort_by_key(|&(index, _)| index);
    keyed.into_iter().map(|(_, output)| output).collect()
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let doubled: Vec<u64> = (0u64..1_000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0u64..1_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slices() {
        let items = vec![1u32, 2, 3, 4];
        let sums: Vec<u32> = items.par_iter().map(|&x| x + 10).collect();
        assert_eq!(sums, vec![11, 12, 13, 14]);
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut items: Vec<u64> = (0..257).collect();
        items.par_iter_mut().for_each(|x| *x *= 3);
        assert_eq!(items, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_enumerate_indices_match_positions() {
        let mut items = vec![0usize; 100];
        items
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, slot)| *slot = i * i);
        assert_eq!(items, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_map_collect_preserves_order() {
        let mut items: Vec<u32> = (0..64).collect();
        let seen: Vec<u32> = items
            .par_iter_mut()
            .map(|x| {
                *x += 1;
                *x
            })
            .collect();
        assert_eq!(seen, (1..=64).collect::<Vec<_>>());
        assert_eq!(items, (1..=64).collect::<Vec<_>>());
    }
}
