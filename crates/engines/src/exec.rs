//! Deterministic parallel executor: fan per-machine shard work across real
//! host threads.
//!
//! Every engine in this crate iterates over simulated machines inside its
//! superstep / iteration hot loop. Those per-machine bodies are independent
//! by construction (shared-nothing semantics), so they can run on separate
//! host threads — as long as the *results* are merged in a fixed order.
//!
//! The contract this module enforces:
//!
//! * each worker computes an independent per-machine result struct (ops,
//!   outboxes, partial accumulators, message counts);
//! * the coordinator receives results tagged with their machine index and
//!   merges them in ascending machine order, regardless of which thread
//!   finished first;
//! * the serial path (`threads() == 1`) runs the *identical*
//!   partial-then-merge computation, so thread count cannot change any
//!   simulated metric — `RunRecord`s are bit-for-bit identical between
//!   `GRAPHBENCH_THREADS=1` and any other value.
//!
//! Thread count resolution order: [`set_threads`] (the `Runner` field) >
//! `GRAPHBENCH_THREADS` env var > `std::thread::available_parallelism()`.
//! `1` selects the legacy serial path (no threads are spawned at all).
//!
//! Implementation note: scoped threads let workers borrow per-machine
//! scratch buffers without `Arc`/cloning. `std::thread::scope` (stable since
//! Rust 1.63) supersedes the `crossbeam::thread::scope` API DESIGN.md
//! originally planned for, with identical semantics and one less dependency
//! on the hot path.

use graphbench_sim::hosttrace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Instant;

/// 0 = uninitialized; first use resolves the env var / core count.
static THREADS: AtomicUsize = AtomicUsize::new(0);
static WARN_BAD_THREADS: Once = Once::new();

/// 0 = uninitialized; first use resolves `GRAPHBENCH_CHUNK`.
static CHUNK: AtomicUsize = AtomicUsize::new(0);
static WARN_BAD_CHUNK: Once = Once::new();

/// Default vertices per intra-machine sub-chunk. Small enough that a 16-
/// machine run still exposes parallelism when one fragment dominates, large
/// enough that per-chunk scratch and scheduling overhead stay negligible.
/// Tunable (unlike the generator's `CHUNK_EDGES`) because every simulated
/// metric is provably chunk-size-invariant: per-chunk integer counters are
/// summed in chunk order and `agg_max` folds are order-insensitive maxima.
const DEFAULT_CHUNK: usize = 4096;

fn detected_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn resolve_threads() -> usize {
    match std::env::var("GRAPHBENCH_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                // A typo'd thread count silently running at core count is a
                // confusing way to lose a benchmark comparison — say so,
                // once.
                WARN_BAD_THREADS.call_once(|| {
                    eprintln!(
                        "graphbench: GRAPHBENCH_THREADS={raw:?} is not a positive integer; \
                         falling back to the detected core count"
                    );
                });
                detected_threads()
            }
        },
        Err(_) => detected_threads(),
    }
}

/// Host threads the executor fans machine shards across.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let t = resolve_threads();
            // A racing first call resolves the same value; last store wins
            // harmlessly.
            THREADS.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Override the thread count (e.g. from `Runner::threads`). `1` forces the
/// legacy serial path. Values are clamped to at least 1.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Vertices per intra-machine sub-chunk (see [`run_chunks`]), from
/// `GRAPHBENCH_CHUNK` or the default.
pub fn chunk_size() -> usize {
    match CHUNK.load(Ordering::Relaxed) {
        0 => {
            let c = resolve_chunk();
            CHUNK.store(c, Ordering::Relaxed);
            c
        }
        c => c,
    }
}

fn resolve_chunk() -> usize {
    match std::env::var("GRAPHBENCH_CHUNK") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                WARN_BAD_CHUNK.call_once(|| {
                    eprintln!(
                        "graphbench: GRAPHBENCH_CHUNK={raw:?} is not a positive integer; \
                         using the default of {DEFAULT_CHUNK}"
                    );
                });
                DEFAULT_CHUNK
            }
        },
        Err(_) => DEFAULT_CHUNK,
    }
}

/// Override the sub-chunk size. Values are clamped to at least 1.
pub fn set_chunk_size(n: usize) {
    CHUNK.store(n.max(1), Ordering::Relaxed);
}

/// Split `weights.len()` items into contiguous spans, returned as
/// `(start, end)` half-open index ranges in ascending order. A span closes
/// once it reaches `chunk_items × mean-weight` cumulative weight or holds
/// `chunk_items` items, whichever comes first.
///
/// This is the degree-aware counterpart of `slice::chunks(chunk_items)`:
/// with uniform weights it produces the same spans, but when one item is a
/// power-law hub carrying most of a machine's edges, the hub lands in a
/// small (possibly single-item) span instead of dragging `chunk_items - 1`
/// neighbours into the same host-thread task and serializing the machine.
/// The item cap keeps the light items around a hub in ordinary spans: the
/// hub inflates the mean weight, so weight alone would lump them together.
/// Span boundaries depend only on `(weights, chunk_items)` — never on the
/// thread count — and every simulated metric is span-boundary-invariant by
/// the same merge discipline that makes `GRAPHBENCH_CHUNK` a free tunable,
/// so this is purely a host-side load-balancing choice.
///
/// Weights are typically `1 + degree(v)` so zero-degree runs still split.
pub fn weighted_spans(weights: &[u64], chunk_items: usize) -> Vec<(usize, usize)> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk_items = chunk_items.max(1);
    if chunk_items >= n {
        return vec![(0, n)];
    }
    let total: u64 = weights.iter().sum();
    // Integer mean, floored to at least 1: the target is heuristic (spans
    // only steer scheduling), so cheap arithmetic beats exact division.
    let target = (chunk_items as u64).saturating_mul((total / n as u64).max(1));
    let mut spans = Vec::with_capacity(n / chunk_items + 1);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc = acc.saturating_add(w);
        if acc >= target || i + 1 - start >= chunk_items {
            spans.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        spans.push((start, n));
    }
    spans
}

/// Uniform chunk spans over `len` items: contiguous `(start, end)`
/// half-open ranges of `chunk_items` items each (last may be short),
/// ascending. The unweighted sibling of [`weighted_spans`] for loops whose
/// per-item cost is flat (apply loops, frontier scans, edge-list slices).
pub fn uniform_spans(len: usize, chunk_items: usize) -> Vec<(usize, usize)> {
    let chunk_items = chunk_items.max(1);
    let mut spans = Vec::with_capacity(len / chunk_items + 1);
    let mut start = 0usize;
    while start < len {
        let end = (start + chunk_items).min(len);
        spans.push((start, end));
        start = end;
    }
    spans
}

/// Run `f(task_index, &mut tasks[task_index])` for every task and collect
/// the results **in task-index order**.
///
/// The intra-machine counterpart of [`run_machines`]: one simulated
/// machine's vertex range is split into many sub-chunk tasks, so a
/// fragment that dominates the superstep no longer serializes it. Unlike
/// `run_machines`' round-robin deal, tasks are claimed *dynamically* from a
/// shared atomic counter — chunk workloads are skewed (power-law fragments)
/// and static assignment would recreate the imbalance this exists to fix.
/// Dynamic claiming is safe for determinism because each task's result is
/// written into its index slot and the caller merges slots in index order;
/// which thread ran a task is unobservable.
pub fn run_chunks<T, R, F>(tasks: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = tasks.len();
    let t = threads().min(n);
    let tracing = hosttrace::enabled();
    if t <= 1 {
        return tasks
            .iter_mut()
            .enumerate()
            .map(|(i, task)| {
                if tracing {
                    let t0 = Instant::now();
                    let r = f(i, task);
                    hosttrace::record(0, t0);
                    r
                } else {
                    f(i, task)
                }
            })
            .collect();
    }
    // Each cell is locked exactly once (indices are claimed uniquely), so
    // the mutexes are uncontended — they exist to hand a `&mut T` to
    // whichever worker claimed the index.
    let cells: Vec<std::sync::Mutex<&mut T>> =
        tasks.iter_mut().map(std::sync::Mutex::new).collect();
    let claim = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..t)
            .map(|worker| {
                let f = &f;
                let cells = &cells;
                let claim = &claim;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = claim.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut cell = cells[i].lock().expect("chunk cell poisoned");
                        let task: &mut T = &mut cell;
                        let r = if tracing {
                            let t0 = Instant::now();
                            let r = f(i, task);
                            hosttrace::record(worker, t0);
                            r
                        } else {
                            f(i, task)
                        };
                        done.push((i, r));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("chunk worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("worker skipped a chunk")).collect()
}

/// Run `f(machine_index, &mut scratch[machine_index])` for every machine and
/// collect the results **in machine-index order**.
///
/// With one thread (or one machine) this is a plain serial loop — no thread
/// is spawned. With `t > 1` threads, machines are dealt round-robin to `t`
/// workers on scoped host threads; each worker returns `(machine, result)`
/// pairs and the coordinator writes them into an index-ordered slot vector.
/// Scheduling is the only thing the thread count changes.
pub fn run_machines<S, R, F>(scratch: &mut [S], f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    let n = scratch.len();
    let t = threads().min(n);
    // Host-wallclock tracing (the `--trace` Perfetto export) times each
    // closure with `Instant` pairs; the disabled fast path is one relaxed
    // atomic load.
    let tracing = hosttrace::enabled();
    if t <= 1 {
        return scratch
            .iter_mut()
            .enumerate()
            .map(|(m, s)| {
                if tracing {
                    let t0 = Instant::now();
                    let r = f(m, s);
                    hosttrace::record(0, t0);
                    r
                } else {
                    f(m, s)
                }
            })
            .collect();
    }
    let mut buckets: Vec<Vec<(usize, &mut S)>> = (0..t).map(|_| Vec::new()).collect();
    for (m, s) in scratch.iter_mut().enumerate() {
        buckets[m % t].push((m, s));
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .enumerate()
            .map(|(worker, bucket)| {
                let f = &f;
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(m, s)| {
                            if tracing {
                                let t0 = Instant::now();
                                let r = f(m, s);
                                hosttrace::record(worker, t0);
                                (m, r)
                            } else {
                                (m, f(m, s))
                            }
                        })
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for h in handles {
            for (m, r) in h.join().expect("executor worker panicked") {
                slots[m] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("worker skipped a machine")).collect()
}

/// [`run_machines`] without per-machine scratch: run `f(machine)` for
/// `0..machines` and collect results in machine order.
pub fn for_machines<R, F>(machines: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut units = vec![(); machines];
    run_machines(&mut units, |m, _| f(m))
}

/// Serializes tests that flip the process-global thread count; cargo runs
/// tests concurrently, so unsynchronized `set_threads` calls would race.
#[cfg(test)]
pub(crate) static TEST_THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_machine_order() {
        let mut scratch = vec![0u64; 17];
        let out = run_machines(&mut scratch, |m, s| {
            *s = m as u64 + 1;
            m * m
        });
        assert_eq!(out, (0..17).map(|m| m * m).collect::<Vec<_>>());
        assert_eq!(scratch, (1..=17).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let work = |m: usize, s: &mut Vec<u64>| -> u64 {
            s.clear();
            s.extend((0..100).map(|i| (m as u64 * 31 + i) % 97));
            s.iter().sum()
        };
        set_threads(1);
        let mut scratch_a: Vec<Vec<u64>> = vec![Vec::new(); 13];
        let serial = run_machines(&mut scratch_a, work);
        set_threads(4);
        let mut scratch_b: Vec<Vec<u64>> = vec![Vec::new(); 13];
        let parallel = run_machines(&mut scratch_b, work);
        set_threads(1);
        assert_eq!(serial, parallel);
        assert_eq!(scratch_a, scratch_b);
    }

    #[test]
    fn for_machines_covers_every_index() {
        let out = for_machines(5, |m| m + 10);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn set_threads_clamps_to_one() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(1);
    }

    #[test]
    fn chunk_results_arrive_in_task_order() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for t in [1, 3, 8] {
            set_threads(t);
            let mut tasks: Vec<u64> = (0..53).collect();
            let out = run_chunks(&mut tasks, |i, task| {
                *task += 1;
                i as u64 * 3
            });
            assert_eq!(out, (0..53).map(|i| i * 3).collect::<Vec<_>>(), "t = {t}");
            assert_eq!(tasks, (1..=53).collect::<Vec<_>>(), "t = {t}");
        }
        set_threads(1);
    }

    #[test]
    fn dynamic_claiming_runs_every_task_exactly_once() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(5);
        let mut hits = vec![0u32; 200];
        run_chunks(&mut hits, |_, h| *h += 1);
        assert!(hits.iter().all(|&h| h == 1));
        set_threads(1);
    }

    #[test]
    fn weighted_spans_cover_every_index_exactly_once() {
        for n in [0usize, 1, 2, 53, 200] {
            for chunk in [1usize, 3, 97, 4096] {
                let weights: Vec<u64> = (0..n).map(|i| 1 + (i as u64 * 7) % 13).collect();
                let spans = weighted_spans(&weights, chunk);
                let mut next = 0usize;
                for &(s, e) in &spans {
                    assert_eq!(s, next, "n={n} chunk={chunk}");
                    assert!(e > s, "empty span at n={n} chunk={chunk}");
                    next = e;
                }
                assert_eq!(next, n, "n={n} chunk={chunk}");
            }
        }
    }

    #[test]
    fn weighted_spans_match_uniform_chunks_on_uniform_weights() {
        let weights = vec![1u64; 100];
        let spans = weighted_spans(&weights, 16);
        assert_eq!(spans.len(), 7);
        assert!(spans[..6].iter().all(|&(s, e)| e - s == 16));
        assert_eq!(spans[6], (96, 100));
    }

    #[test]
    fn uniform_spans_tile_the_range() {
        assert_eq!(uniform_spans(0, 7), Vec::<(usize, usize)>::new());
        assert_eq!(uniform_spans(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(uniform_spans(3, 1_000_000_000), vec![(0, 3)]);
        assert_eq!(uniform_spans(3, 0), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn weighted_spans_isolate_a_hub() {
        // One hub carrying ~all the weight must not drag a full
        // `chunk_items`-sized span of neighbours along with it.
        let mut weights = vec![1u64; 1000];
        weights[500] = 1_000_000;
        let spans = weighted_spans(&weights, 64);
        let hub_span = spans.iter().find(|&&(s, e)| s <= 500 && 500 < e).unwrap();
        assert!(hub_span.1 - hub_span.0 <= 64);
        assert_eq!(hub_span.1, 501, "span must cut immediately after the hub");
    }

    #[test]
    fn set_chunk_size_clamps_to_one() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_chunk_size(0);
        assert_eq!(chunk_size(), 1);
        set_chunk_size(DEFAULT_CHUNK);
    }
}
