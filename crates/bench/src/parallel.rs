//! Thread-parallel experiment driver.
//!
//! Experiment binaries sweep `n × k × adversary × seed` grids of
//! *independent* simulations; this module fans those runs across CPU cores
//! with `std::thread::scope` (the toolchain vendor set has no rayon; scoped
//! threads need nothing more). Two properties the experiments rely on:
//!
//! * **Determinism** — every job owns its seed ([`derive_seed`] splits a
//!   base seed into per-job streams), and [`par_map`] returns results in
//!   input order regardless of scheduling, so a parallel sweep produces
//!   byte-identical tables to a sequential one.
//! * **Work stealing lite** — jobs are handed out from a shared atomic
//!   counter, so a slow simulation never stalls a whole chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: `DYNSPREAD_THREADS` if set, otherwise
/// the machine's available parallelism.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("DYNSPREAD_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives a decorrelated per-job seed from a base seed and a job index
/// (SplitMix64 finalizer), so sweeps can grow without reseeding overlaps.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f` to every item on a scoped thread pool, returning results in
/// input order. `f` must be deterministic per item for reproducible sweeps.
///
/// Jobs are claimed from a shared counter, so uneven job costs balance
/// automatically. With one item (or one core) this degenerates to a plain
/// sequential map with no thread overhead.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = worker_count().min(items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let item = jobs[i]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("job claimed twice");
                let out = f(item);
                *results[i].lock().expect("result mutex poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex poisoned")
                .expect("worker skipped a job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..1000u64).collect(), |i| i * i);
        assert_eq!(out, (0..1000u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential_with_uneven_work() {
        let work = |i: u64| {
            // Uneven spin so jobs finish out of order.
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let par = par_map((0..200u64).collect(), work);
        let seq: Vec<u64> = (0..200u64).map(work).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "seed collision");
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }
}
