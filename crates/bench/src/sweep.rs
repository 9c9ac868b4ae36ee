//! Parallel sweep runner for the experiment grids.
//!
//! Every `exp_*` binary evaluates a grid of independent simulation
//! points: each point builds its own [`Soc`](fgqos_sim::system::Soc)
//! from plain parameters, runs it to completion and reduces it to a
//! result row. The points share nothing, so they parallelize trivially —
//! but a `Soc` is `!Send` (driver handles are `Rc`-based), so the
//! *parameters* cross threads and each worker builds its simulator
//! locally.
//!
//! [`run_parallel`] is the whole API: a scoped worker pool over a shared
//! work queue, with the calling thread as one of the workers. Results
//! are collected into the **input order** regardless of which worker
//! finishes when, so table output stays byte-identical to a serial run
//! and diffable across machines. The worker count is the machine's
//! parallelism, capped by the point count.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Mutex;

/// Number of workers used for a sweep of `points` points: the smaller of
/// the available hardware parallelism and the point count.
pub fn worker_count(points: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(points.max(1))
}

/// Evaluates `f` over every point of the grid on a scoped worker pool
/// and returns the results **in input order**.
///
/// `f` must be a pure function of its point (build the simulator inside
/// the closure); it may be called from any worker thread, the caller's
/// included. A panic in any point propagates to the caller after the
/// pool unwinds.
///
/// ```
/// let squares = fgqos_bench::sweep::run_parallel(vec![1u64, 2, 3, 4], |p| p * p);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_parallel<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    run_on(worker_count(points.len()), points, f)
}

/// [`run_parallel`] on exactly `workers` workers: the calling thread
/// plus `workers - 1` helpers (none for one worker or one point).
fn run_on<P, R, F>(workers: usize, points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = points.len();
    if workers <= 1 || n <= 1 {
        return points.into_iter().map(f).collect();
    }
    let queue: Mutex<VecDeque<(usize, P)>> = Mutex::new(points.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let drain = || loop {
        // Pop under the lock, compute outside it.
        let item = queue.lock().expect("sweep queue poisoned").pop_front();
        let Some((idx, point)) = item else { break };
        let result = f(point);
        *slots[idx].lock().expect("sweep slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(drain);
        }
        drain();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every queued point produces a result")
        })
        .collect()
}

/// Warm-start planner: groups grid points by a shared-prefix key, runs
/// each group's prefix **once**, and evaluates every point of the group
/// against that prefix state.
///
/// This is how sweeps exploit [`SocSnapshot`]: `prefix` typically
/// builds the scenario, runs the shared warm-up phase to a quiesced
/// boundary and captures it (snapshot plus whatever driver handles the
/// caller holds); `eval` forks the snapshot per point, applies the
/// point's knob and runs the divergent tail. The prefix state `S` is
/// deliberately **not** required to be `Send` — a `Soc` and its
/// snapshots are `Rc`-based, so a group's prefix and all of its forks
/// stay on the worker thread that built them. Whole groups are
/// distributed over the [`run_parallel`] worker pool; results return
/// in input order, so the output stays byte-identical to a cold serial
/// run of the same schedule.
///
/// [`SocSnapshot`]: fgqos_sim::snapshot::SocSnapshot
///
/// ```
/// // Two groups (odd/even): each prefix is built once and shared.
/// let out = fgqos_bench::sweep::run_warm_groups(
///     vec![1u64, 2, 3, 4],
///     |p| p % 2,
///     |key| key * 100,          // expensive shared prefix
///     |prefix, p| prefix + p,   // cheap per-point tail
/// );
/// assert_eq!(out, vec![101, 2 + 0, 103, 4 + 0]);
/// ```
pub fn run_warm_groups<P, K, S, R, FK, FP, FE>(
    points: Vec<P>,
    key: FK,
    prefix: FP,
    eval: FE,
) -> Vec<R>
where
    P: Send,
    K: Eq + Hash + Clone + Send,
    R: Send,
    FK: Fn(&P) -> K + Sync,
    FP: Fn(&K) -> S + Sync,
    FE: Fn(&S, P) -> R + Sync,
{
    // Group points by key, preserving the input order of groups (first
    // appearance) and of points within each group.
    let n = points.len();
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut grouped: Vec<(K, Vec<(usize, P)>)> = Vec::new();
    for (i, p) in points.into_iter().enumerate() {
        let k = key(&p);
        match index.get(&k) {
            Some(&g) => grouped[g].1.push((i, p)),
            None => {
                index.insert(k.clone(), grouped.len());
                grouped.push((k, vec![(i, p)]));
            }
        }
    }
    let per_group: Vec<Vec<(usize, R)>> = run_parallel(grouped, |(k, items)| {
        let state = prefix(&k);
        items
            .into_iter()
            .map(|(i, p)| (i, eval(&state, p)))
            .collect()
    });
    // Scatter back into input order.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_group.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every grouped point produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        // Later points finish first (earlier ones sleep longer): the
        // result vector must still follow the input order.
        let points: Vec<u64> = (0..32).collect();
        let out = run_parallel(points.clone(), |p| {
            std::thread::sleep(std::time::Duration::from_micros((32 - p) * 50));
            p * 10
        });
        assert_eq!(out, points.iter().map(|p| p * 10).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_point_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_parallel((0..100usize).collect(), |p| {
            calls.fetch_add(1, Ordering::SeqCst);
            p
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn empty_and_single_point_grids() {
        let empty: Vec<u32> = run_parallel(Vec::<u32>::new(), |p| p);
        assert!(empty.is_empty());
        assert_eq!(run_parallel(vec![7u32], |p| p + 1), vec![8]);
    }

    #[test]
    fn closure_may_borrow_environment() {
        let offset = 100u64;
        let out = run_parallel(vec![1u64, 2, 3], |p| p + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let points: Vec<u64> = (0..40).collect();
        let work = |p: u64| p * p + 1;
        let serial = run_on(1, points.clone(), work);
        assert_eq!(serial, points.iter().map(|p| p * p + 1).collect::<Vec<_>>());
        assert_eq!(run_on(4, points, work), serial);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Helpers hold their first point until the caller has taken
        // one, so a pool whose caller sits idle fails after the grace
        // period instead of passing by luck.
        let caller = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        let grace = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let out = run_on(4, (0..16u64).collect(), |p| {
            if std::thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::SeqCst);
            }
            while on_caller.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < grace {
                std::thread::yield_now();
            }
            p
        });
        assert_eq!(out, (0..16u64).collect::<Vec<_>>());
        assert!(
            on_caller.load(Ordering::SeqCst) > 0,
            "the caller drains the queue too"
        );
    }

    #[test]
    fn worker_count_is_bounded_by_points() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000) >= 1);
    }

    #[test]
    fn warm_groups_run_each_prefix_once() {
        let prefixes = AtomicUsize::new(0);
        let out = run_warm_groups(
            (0..30u64).collect(),
            |p| p % 3,
            |k| {
                prefixes.fetch_add(1, Ordering::SeqCst);
                k * 1_000
            },
            |prefix, p| prefix + p,
        );
        assert_eq!(prefixes.load(Ordering::SeqCst), 3, "one prefix per group");
        assert_eq!(
            out,
            (0..30u64).map(|p| (p % 3) * 1_000 + p).collect::<Vec<_>>()
        );
    }

    #[test]
    fn warm_groups_preserve_input_order_across_groups() {
        let points = vec![5u64, 2, 9, 2, 5, 7];
        let out = run_warm_groups(points.clone(), |&p| p, |&k| k * 10, |pre, p| pre + p);
        assert_eq!(out, points.iter().map(|p| p * 10 + p).collect::<Vec<_>>());
    }

    #[test]
    fn warm_groups_prefix_state_need_not_be_send() {
        // Rc is !Send: the planner must keep each group's state on one
        // worker thread.
        use std::rc::Rc;
        let out = run_warm_groups(
            vec![1u64, 2, 3],
            |_| 0u8,
            |_| Rc::new(100u64),
            |pre, p| **pre + p,
        );
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn warm_groups_empty_grid() {
        let out: Vec<u64> = run_warm_groups(Vec::<u64>::new(), |&p| p, |&k| k, |_, p| p);
        assert!(out.is_empty());
    }
}
