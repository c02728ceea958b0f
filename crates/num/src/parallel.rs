//! Scoped-thread chunked parallelism.
//!
//! MEMQSIM's Fig. 2 step (5) uses "idle cores" to decompress/update/compress
//! chunks while the device works. We implement that with
//! `crossbeam::thread::scope` rather than a global pool: each call site says
//! how many workers it wants (configs make this explicit so the pipeline is
//! exercised under real multithreading in tests, even though the benchmark
//! host may have a single core).

use crossbeam::thread;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(start, chunk)` over `data` split into at most `workers` contiguous
/// near-equal pieces, in parallel. `start` is the offset of `chunk` within
/// `data`.
///
/// With `workers <= 1` or a single piece, runs inline on the caller's thread
/// (no spawn overhead).
pub fn par_chunks_mut<T, F>(data: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        f(0, data);
        return;
    }
    let chunk_len = n.div_ceil(workers);
    thread::scope(|s| {
        let mut rest = data;
        let mut start = 0usize;
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let fref = &f;
            s.spawn(move |_| fref(start, head));
            start += take;
            rest = tail;
        }
    })
    .expect("worker thread panicked");
}

/// Parallel index loop with per-worker state: at most `workers` scoped
/// threads take the indices `0..n` one at a time from a shared counter, so
/// a worker that drew cheap indices comes back for more instead of idling
/// beside one that drew the expensive ones. Each worker calls `init` once,
/// and only if it gets an index to run, then `f(&mut state, i)` for each
/// index it takes — the place for a scratch buffer reused across
/// iterations. Every index runs exactly once; which worker runs it, and in
/// what order, is not fixed.
pub fn par_for_with<S, I, F>(n: usize, workers: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        let mut state = init();
        for i in 0..n {
            f(&mut state, i);
        }
        return;
    }
    // Relaxed: the counter only hands out indices, it publishes no data.
    let next = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..workers {
            let (next, init, f) = (&next, &init, &f);
            s.spawn(move |_| {
                let mut state = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(state.get_or_insert_with(init), i);
                }
            });
        }
    })
    .expect("worker thread panicked");
}

/// Parallel map-reduce: computes `f(i)` for each index and folds the results
/// with `reduce`, starting from `identity` in each worker.
///
/// `reduce` must be associative and commute with the identity for the result
/// to be deterministic (per-worker partials are combined in worker order, so
/// associativity suffices for floating-point reproducibility at fixed
/// `workers`).
pub fn par_map_reduce<R, F, G>(n: usize, workers: usize, identity: R, f: F, reduce: G) -> R
where
    R: Send + Clone,
    F: Fn(usize) -> R + Sync,
    G: Fn(R, R) -> R + Sync + Send + Copy,
{
    if n == 0 {
        return identity;
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        let mut acc = identity;
        for i in 0..n {
            acc = reduce(acc, f(i));
        }
        return acc;
    }
    let block = n.div_ceil(workers);
    let partials: Vec<R> = thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let lo = w * block;
            let hi = ((w + 1) * block).min(n);
            if lo >= hi {
                break;
            }
            let fref = &f;
            let id = identity.clone();
            handles.push(s.spawn(move |_| {
                let mut acc = id;
                for i in lo..hi {
                    acc = reduce(acc, fref(i));
                }
                acc
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
    .expect("worker thread panicked");
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        for workers in [1, 2, 3, 8, 100] {
            let mut v = vec![0u32; 1000];
            par_chunks_mut(&mut v, workers, |start, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = (start + k) as u32;
                }
            });
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, i as u32, "workers={workers}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_empty_and_tiny() {
        let mut e: Vec<u8> = vec![];
        par_chunks_mut(&mut e, 4, |_, _| panic!("must not run"));
        let mut one = vec![5u8];
        par_chunks_mut(&mut one, 16, |start, c| {
            assert_eq!(start, 0);
            c[0] += 1;
        });
        assert_eq!(one[0], 6);
    }

    #[test]
    fn par_for_with_runs_each_index_once_on_lazily_built_states() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0, 1, workers - 1, workers, 1000] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let inits = AtomicUsize::new(0);
                par_for_with(
                    n,
                    workers,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |seen, i| {
                        *seen += 1;
                        runs[i].fetch_add(1, Ordering::Relaxed);
                    },
                );
                let tag = format!("workers={workers} n={n}");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{tag}");
                // A worker builds its state only once it has drawn an index.
                let inits = inits.load(Ordering::Relaxed);
                assert!(inits <= workers.min(n), "{tag}: {inits} states");
                assert_eq!(inits == 0, n == 0, "{tag}");
            }
        }
    }

    #[test]
    fn par_for_with_hands_a_free_worker_the_next_index() {
        // Index 0 does not return until some other worker has run index 1:
        // under fixed halves of 0..4 that index belonged to the blocked
        // worker and this would never finish.
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        par_for_with(
            4,
            2,
            || (),
            |(), i| match i {
                0 => rx.recv().expect("index 1 never ran"),
                1 => tx.send(()).expect("index 0 is waiting"),
                _ => {}
            },
        );
    }

    #[test]
    fn map_reduce_sums() {
        for workers in [1, 2, 3, 7] {
            let s = par_map_reduce(1000, workers, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(s, 999 * 1000 / 2);
        }
    }

    #[test]
    fn map_reduce_max() {
        let m = par_map_reduce(
            100,
            4,
            f64::NEG_INFINITY,
            |i| ((i as f64) - 50.0).abs(),
            f64::max,
        );
        assert_eq!(m, 50.0);
    }

    #[test]
    fn map_reduce_empty_returns_identity() {
        let r = par_map_reduce(0, 4, 42i32, |_| panic!("must not run"), |a, b| a + b);
        assert_eq!(r, 42);
    }
}
