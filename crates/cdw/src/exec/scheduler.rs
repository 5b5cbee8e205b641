//! Work distribution for partition- and morsel-parallel stages.
//!
//! Three layers:
//!
//! * [`lpt_assign`] — longest-processing-time seeding: items sorted by
//!   descending cost estimate, each placed on the least-loaded worker.
//!   This replaces the old static `i % threads` round-robin, which skewed
//!   badly on heterogeneous costs (one oversized Grace-join bucket or
//!   storage partition stalled the whole query behind a single thread).
//!   LPT guarantees no worker is assigned more than `mean + max_item`
//!   cost; when no single item dominates (`max_item <= mean`), that is at
//!   most **2x the mean** — the bound `lpt_no_thread_exceeds_twice_mean`
//!   pins.
//! * [`run_stealing`] — LPT only seeds the deques; while running, a
//!   participant that drains its own queue **steals**: first from the
//!   tail of a small ring neighbourhood of its own queue (HyPer-style
//!   locality — a thief keeps returning to the same victims, so the
//!   cache lines it pulls stay warm), then from the globally longest
//!   queue. Cost estimates are proxies (byte sizes, row counts), so
//!   stealing absorbs what the estimate missed.
//! * The **persistent worker pool** — one process-wide set of long-lived
//!   workers shared by every operator, pipeline, and concurrent server
//!   session. `run_stealing` no longer spawns threads: the submitting
//!   thread participates inline (so progress never depends on pool
//!   capacity, and nested calls are trivially deadlock-free) while idle
//!   pool workers unpark and claim the remaining virtual worker slots.
//!   The pool's size is the process's one execution budget
//!   ([`set_worker_pool_target`]); admission control and per-query
//!   `parallelism` both resolve against it via [`effective_workers`], so
//!   N concurrent sessions × per-operator calls can never oversubscribe
//!   the host the way per-call scoped spawns did. Workers park on a
//!   condvar when the job board is empty and are spawned lazily, so a
//!   release build runs no execution threads at all until the first
//!   parallel query — and a fixed number ever after.
//!
//! Determinism: results are written to per-item slots and returned in
//! input order, so *which* participant ran an item — and in what order —
//! can never change the output. Errors are reported first-by-input-index,
//! independent of completion order. A panicking task poisons the job
//! (every unclaimed item's state drops, releasing spill files) and
//! surfaces as one executor error. When the pool budget caps a call to a
//! single participant, it runs inline on the submitter — and the morsel
//! height function ([`super::pipeline::morsel_height`]) sees the same
//! [`effective_workers`] width and stops cutting partitions, instead of
//! paying scheduling overhead no hardware will repay.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::error::CdwError;

/// Assign `costs.len()` items to `bins` workers by longest-processing-time:
/// process items in descending cost order (input index breaks ties, so the
/// assignment is deterministic), always placing on the least-loaded bin.
/// Returns per-bin item-index lists; within a bin, indices are ordered by
/// descending cost — the order the worker should process them so the
/// largest items start earliest.
pub(crate) fn lpt_assign(costs: &[usize], bins: usize) -> Vec<Vec<usize>> {
    let bins = bins.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut assignment: Vec<Vec<usize>> = (0..bins).map(|_| Vec::new()).collect();
    let mut loads: Vec<usize> = vec![0; bins];
    for i in order {
        let b = (0..bins).min_by_key(|&b| (loads[b], b)).expect("bins >= 1");
        loads[b] += costs[i];
        assignment[b].push(i);
    }
    assignment
}

/// Per-query scheduler counters (atomics so every participant can record
/// without synchronization). Folded into
/// [`ExecStats`](crate::exec::ExecStats) when a query completes and
/// rendered by `explain_analyze` as `scheduler: tasks=.. local=..
/// steals=.. unparks=..`.
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Items executed (serial fallbacks included).
    pub tasks: AtomicUsize,
    /// Items a participant popped from its own seeded deque.
    pub local: AtomicUsize,
    /// Items taken from another participant's deque.
    pub steals: AtomicUsize,
    /// Parked pool workers woken for this query's jobs.
    pub unparks: AtomicUsize,
}

impl SchedCounters {
    pub fn tasks(&self) -> usize {
        self.tasks.load(Ordering::Relaxed)
    }
    pub fn local(&self) -> usize {
        self.local.load(Ordering::Relaxed)
    }
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }
    pub fn unparks(&self) -> usize {
        self.unparks.load(Ordering::Relaxed)
    }
}

/// Ring neighbours a thief probes before falling back to the globally
/// longest queue. Small on purpose: repeated steals from the same victims
/// keep the thief's working set (the victim's deque + the batches it
/// references) warm, which is the HyPer steal-locality observation.
const STEAL_NEIGHBORHOOD: usize = 2;

// ---------------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------------

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here when the job board is empty.
    work: Condvar,
    /// The execution budget: at most this many participants (submitter
    /// included) run any single job, and at most this many pool workers
    /// stay alive.
    target: AtomicUsize,
    /// Lifetime park events (worker went idle), for observability.
    parks: AtomicUsize,
}

struct PoolState {
    /// Open jobs, submission order. Retired entries are pruned on scan.
    jobs: Vec<Arc<JobEntry>>,
    /// Pool workers alive (parked or running).
    live: usize,
    /// Pool workers currently parked on `work`.
    idle: usize,
    /// Monotonic id source for worker thread names.
    next_worker: usize,
}

/// A submitted job on the board. `task` is a lifetime-erased pointer into
/// the submitter's stack frame; the retire protocol (remove from board →
/// wait for `active == 0`) guarantees no worker touches it after
/// `run_stealing` returns.
struct JobEntry {
    task: ErasedJob,
    /// Virtual worker slots (deques) this job was seeded with.
    max: usize,
    /// Next virtual slot to hand to a pool worker (slot 0 is the
    /// submitter's). Only mutated under the pool state lock.
    tickets: AtomicUsize,
    retired: AtomicBool,
    /// Pool workers currently inside `task.run`.
    active: Mutex<usize>,
    exited: Condvar,
}

struct ErasedJob(*const (dyn RunJob + 'static));
// SAFETY: the pointee is a `Job` (Sync: slots/results/deques are mutexes,
// `f` is Sync) and the retire protocol bounds every dereference within the
// submitting call's lifetime.
unsafe impl Send for ErasedJob {}
unsafe impl Sync for ErasedJob {}

trait RunJob: Sync {
    fn run(&self, vslot: usize);
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            jobs: Vec::new(),
            live: 0,
            idle: 0,
            next_worker: 0,
        }),
        work: Condvar::new(),
        target: AtomicUsize::new(default_target()),
        parks: AtomicUsize::new(0),
    })
}

/// Default execution budget: the hardware's, overridable via
/// `SIGMA_WORKERS` (benches and CI use it to pin pool sizes).
fn default_target() -> usize {
    if let Ok(v) = std::env::var("SIGMA_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the process-wide execution budget (clamped to >= 1). Shrinking
/// takes effect as running workers return to the board; growing spawns
/// lazily on demand.
pub fn set_worker_pool_target(threads: usize) {
    let pool = pool();
    pool.target.store(threads.max(1), Ordering::SeqCst);
    let _st = pool.state.lock().expect("pool state");
    pool.work.notify_all();
}

/// Raise the execution budget to at least `threads` (never lowers it) —
/// what tests use so concurrent test threads cannot race each other's
/// budgets downward.
pub fn grow_worker_pool_target(threads: usize) {
    pool().target.fetch_max(threads.max(1), Ordering::SeqCst);
}

/// The current process-wide execution budget.
pub fn worker_pool_target() -> usize {
    pool().target.load(Ordering::SeqCst).max(1)
}

/// Observability snapshot of the shared pool.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPoolStats {
    /// Configured budget (max participants per job, max live workers).
    pub target: usize,
    /// Pool workers alive (parked or running).
    pub live: usize,
    /// Pool workers currently parked.
    pub idle: usize,
    /// Lifetime park events.
    pub parks: usize,
}

pub fn worker_pool_stats() -> WorkerPoolStats {
    let pool = pool();
    let st = pool.state.lock().expect("pool state");
    WorkerPoolStats {
        target: pool.target.load(Ordering::SeqCst),
        live: st.live,
        idle: st.idle,
        parks: pool.parks.load(Ordering::Relaxed),
    }
}

/// How many participants a stage asking for `requested` threads actually
/// gets: the request clamped to the pool budget. `1` means "run inline,
/// don't schedule" — and "don't cut": the morsel height function keys
/// off this width, never the requested one.
pub(crate) fn effective_workers(requested: usize) -> usize {
    requested.min(worker_pool_target()).max(1)
}

fn worker_main() {
    let pool = pool();
    loop {
        let (entry, vslot) = {
            let mut st = pool.state.lock().expect("pool state");
            loop {
                if st.live > pool.target.load(Ordering::SeqCst) {
                    st.live -= 1;
                    return;
                }
                if let Some(claim) = claim_job(&mut st) {
                    break claim;
                }
                st.idle += 1;
                pool.parks.fetch_add(1, Ordering::Relaxed);
                st = pool.work.wait(st).expect("pool state");
                st.idle -= 1;
            }
        };
        // SAFETY: `active` was incremented under the state lock before the
        // submitter could retire the entry, so the pointee is alive until
        // we decrement it below.
        unsafe { (*entry.task.0).run(vslot) };
        let mut active = entry.active.lock().expect("job active");
        *active -= 1;
        if *active == 0 {
            entry.exited.notify_all();
        }
    }
}

/// Under the pool state lock: find the oldest job with an unclaimed
/// virtual slot, claim one ticket, and mark this worker active on it.
fn claim_job(st: &mut PoolState) -> Option<(Arc<JobEntry>, usize)> {
    st.jobs
        .retain(|e| !e.retired.load(Ordering::SeqCst) && e.tickets.load(Ordering::SeqCst) < e.max);
    for entry in &st.jobs {
        let ticket = entry.tickets.load(Ordering::SeqCst);
        if ticket >= entry.max {
            continue;
        }
        entry.tickets.store(ticket + 1, Ordering::SeqCst);
        *entry.active.lock().expect("job active") += 1;
        return Some((entry.clone(), ticket));
    }
    None
}

/// Post a job and recruit up to `extra` pool workers: wake parked ones
/// first, then spawn (lazily, never past the budget). The submitter is
/// about to participate inline, so a recruit shortfall only costs
/// parallelism, never progress.
fn submit(entry: Arc<JobEntry>, extra: usize, counters: &SchedCounters) {
    let pool = pool();
    let mut st = pool.state.lock().expect("pool state");
    st.jobs.push(entry);
    let wake = extra.min(st.idle);
    for _ in 0..wake {
        pool.work.notify_one();
    }
    counters.unparks.fetch_add(wake, Ordering::Relaxed);
    let target = pool.target.load(Ordering::SeqCst);
    let spawn = extra
        .saturating_sub(wake)
        .min(target.saturating_sub(st.live));
    for _ in 0..spawn {
        let name = format!("cdw-worker-{}", st.next_worker);
        st.next_worker += 1;
        match std::thread::Builder::new().name(name).spawn(worker_main) {
            Ok(_) => st.live += 1,
            Err(_) => break,
        }
    }
}

/// Remove a job from the board and wait until no pool worker is inside
/// its task — after this the submitter may safely drop the job.
fn retire(entry: &Arc<JobEntry>) {
    let pool = pool();
    {
        let mut st = pool.state.lock().expect("pool state");
        entry.retired.store(true, Ordering::SeqCst);
        st.jobs.retain(|e| !Arc::ptr_eq(e, entry));
    }
    let mut active = entry.active.lock().expect("job active");
    while *active > 0 {
        active = entry.exited.wait(active).expect("job active");
    }
}

// ---------------------------------------------------------------------------
// One job: LPT-seeded virtual deques + locality-aware stealing.
// ---------------------------------------------------------------------------

struct Job<'a, I, T, F> {
    /// Items move into per-slot cells so any participant can claim any
    /// index; the slot is the single claim point.
    slots: Vec<Mutex<Option<I>>>,
    /// Results land in per-slot cells so completion order is irrelevant.
    results: Vec<Mutex<Option<Result<T, CdwError>>>>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    poisoned: AtomicBool,
    f: &'a F,
    counters: &'a SchedCounters,
}

impl<I, T, F> Job<'_, I, T, F>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, CdwError> + Sync,
{
    fn work(&self, vslot: usize) {
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                return;
            }
            let Some(idx) = self.next_index(vslot) else {
                return;
            };
            // A stolen index may race with its owner between `len`
            // reads; the slot is the single claim point.
            let Some(item) = self.slots[idx].lock().expect("slot lock").take() else {
                continue;
            };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(res) => {
                    *self.results[idx].lock().expect("result lock") = Some(res);
                    self.counters.tasks.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.poisoned.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    /// Own queue front first (largest remaining seed), then steal from
    /// the tails of a small ring neighbourhood, then from the globally
    /// longest queue.
    fn next_index(&self, vslot: usize) -> Option<usize> {
        let v = self.deques.len();
        if let Some(i) = self.deques[vslot].lock().expect("deque lock").pop_front() {
            self.counters.local.fetch_add(1, Ordering::Relaxed);
            return Some(i);
        }
        for step in 1..=STEAL_NEIGHBORHOOD.min(v.saturating_sub(1)) {
            let nb = (vslot + step) % v;
            if let Some(i) = self.deques[nb].lock().expect("deque lock").pop_back() {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                return Some(i);
            }
        }
        let victim = (0..v)
            .filter(|&w| w != vslot)
            .max_by_key(|&w| (self.deques[w].lock().expect("deque lock").len(), w));
        if let Some(i) = victim.and_then(|w| self.deques[w].lock().expect("deque lock").pop_back())
        {
            self.counters.steals.fetch_add(1, Ordering::Relaxed);
            return Some(i);
        }
        None
    }
}

impl<I, T, F> RunJob for Job<'_, I, T, F>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, CdwError> + Sync,
{
    fn run(&self, vslot: usize) {
        self.work(vslot);
    }
}

/// Run `f` over every item with LPT-seeded deques and locality-aware work
/// stealing on the persistent pool (the submitter participates inline).
/// Results come back in **input order** regardless of which participant
/// ran what; on failure the error of the smallest-index failing item is
/// returned (matching serial semantics). When the pool budget or the item
/// count caps the call to one participant, it runs serial inline.
pub(crate) fn run_stealing<I, T, F>(
    threads: usize,
    items: Vec<I>,
    cost: impl Fn(&I) -> usize,
    f: F,
    counters: &SchedCounters,
) -> Result<Vec<T>, CdwError>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, CdwError> + Sync,
{
    let n = items.len();
    let workers = effective_workers(threads).min(n.max(1));
    if workers <= 1 || n <= 1 {
        counters.tasks.fetch_add(n, Ordering::Relaxed);
        counters.local.fetch_add(n, Ordering::Relaxed);
        return items.into_iter().map(f).collect();
    }
    let costs: Vec<usize> = items.iter().map(&cost).collect();

    let job = Job {
        slots: items.into_iter().map(|i| Mutex::new(Some(i))).collect(),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        deques: lpt_assign(&costs, workers)
            .into_iter()
            .map(|idx| Mutex::new(idx.into()))
            .collect(),
        poisoned: AtomicBool::new(false),
        f: &f,
        counters,
    };
    let erased: *const (dyn RunJob + '_) = &job;
    let entry = Arc::new(JobEntry {
        // SAFETY: lifetime erasure only; `retire` below waits for every
        // worker to leave `run` before `job` drops.
        task: ErasedJob(unsafe {
            std::mem::transmute::<*const (dyn RunJob + '_), *const (dyn RunJob + 'static)>(erased)
        }),
        max: workers,
        tickets: AtomicUsize::new(1),
        retired: AtomicBool::new(false),
        active: Mutex::new(0),
        exited: Condvar::new(),
    });
    submit(entry.clone(), workers - 1, counters);
    job.work(0);
    retire(&entry);

    if job.poisoned.load(Ordering::SeqCst) {
        return Err(CdwError::exec("parallel worker panicked"));
    }
    // Iterating slots in index order makes the first error seen the
    // smallest-index error, no matter which participant hit it first.
    let mut out = Vec::with_capacity(n);
    for cell in job.results {
        match cell.into_inner().expect("result lock").expect("slot ran") {
            Ok(v) => out.push(v),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// The satellite regression: with heterogeneous costs where no single
    /// item dominates (max <= mean), LPT must leave every worker at or
    /// under 2x the mean load. The old round-robin fails this on the
    /// alternating-cost pattern (all the big items landed on one thread).
    #[test]
    fn lpt_no_thread_exceeds_twice_mean() {
        // Every big item lands on index 0 mod 4: round-robin at 4 threads
        // piles all of them onto thread 0.
        let adversarial: Vec<usize> = (0..16)
            .map(|i| if i % 4 == 0 { 10_000 } else { 1 })
            .collect();
        let cases: Vec<(Vec<usize>, usize)> = vec![
            (adversarial.clone(), 4),
            // Descending sizes (sorted storage partitions).
            ((1..=9).rev().map(|i| i * 1024).collect(), 4),
            // One partition per thread plus a tail of small ones.
            (vec![5000, 5000, 5000, 5000, 100, 90, 80, 70, 60, 50], 4),
            // Uniform costs degrade to round-robin.
            (vec![256; 16], 4),
        ];
        for (costs, threads) in cases {
            let total: usize = costs.iter().sum();
            let mean = total / threads;
            let max_item = *costs.iter().max().unwrap();
            assert!(max_item <= mean, "case must not be dominated by one item");
            let assignment = lpt_assign(&costs, threads);
            for (b, idx) in assignment.iter().enumerate() {
                let load: usize = idx.iter().map(|&i| costs[i]).sum();
                assert!(
                    load <= 2 * mean,
                    "thread {b} got {load} bytes, mean {mean} ({costs:?})"
                );
            }
        }
        // Round-robin on the adversarial case really is worse — document
        // the bug being fixed.
        let mean: usize = adversarial.iter().sum::<usize>() / 4;
        let rr_load: usize = adversarial.iter().step_by(4).sum();
        assert!(rr_load > 2 * mean, "round-robin baseline should skew");
    }

    /// Every index appears exactly once across bins, in descending-cost
    /// order within each bin.
    #[test]
    fn lpt_assignment_is_a_partition_of_items() {
        let costs = vec![7, 3, 9, 1, 4, 4, 2, 8];
        let assignment = lpt_assign(&costs, 3);
        let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
        for bin in &assignment {
            for pair in bin.windows(2) {
                assert!(costs[pair[0]] >= costs[pair[1]], "bin order: {bin:?}");
            }
        }
    }

    #[test]
    fn stealing_preserves_input_order_and_first_error() {
        grow_worker_pool_target(4);
        let c = SchedCounters::default();
        let out = run_stealing(4, (0..32).collect(), |_| 1, |i| Ok(i * 10), &c).unwrap();
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<i32>>());
        assert_eq!(c.tasks(), 32);
        assert_eq!(c.local() + c.steals(), 32);

        let err = run_stealing(
            4,
            (0..32).collect::<Vec<i32>>(),
            |_| 1,
            |i| {
                if i % 7 == 3 {
                    Err(CdwError::exec(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            },
            &SchedCounters::default(),
        )
        .unwrap_err();
        // Smallest failing index is 3 regardless of completion order.
        assert!(err.to_string().contains("boom 3"), "{err}");
    }

    #[test]
    fn worker_panic_is_one_exec_error() {
        grow_worker_pool_target(2);
        let err = run_stealing(
            2,
            vec![0usize, 1, 2, 3],
            |_| 1,
            |i| {
                if i == 2 {
                    panic!("injected");
                }
                Ok(i)
            },
            &SchedCounters::default(),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("parallel worker panicked"),
            "{err}"
        );
    }

    /// Stealing rebalances: participants that finish their seed keep
    /// pulling from busier queues, so a many-morsel queue finishes even
    /// when the seed was maximally skewed (all items on one worker's
    /// deque is impossible under LPT, so skew the costs instead).
    #[test]
    fn stealing_drains_a_skewed_queue() {
        grow_worker_pool_target(4);
        let done = AtomicUsize::new(0);
        let out = run_stealing(
            4,
            (0..64usize).collect(),
            // One "huge" item; everything else tiny.
            |&i| if i == 0 { 1 << 20 } else { 1 },
            |i| {
                done.fetch_add(1, Ordering::SeqCst);
                Ok(i)
            },
            &SchedCounters::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    /// With plentiful slow work, more than one thread participates — the
    /// submitter plus at least one persistent pool worker. The tasks hold
    /// a latch open until a second thread arrives (bounded by a deadline
    /// so a genuinely broken scheduler fails instead of hanging).
    #[test]
    fn multiple_workers_participate() {
        grow_worker_pool_target(4);
        let seen = Mutex::new(HashSet::new());
        run_stealing(
            4,
            (0..8usize).collect(),
            |_| 1,
            |i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                let deadline = Instant::now() + Duration::from_secs(5);
                while seen.lock().unwrap().len() < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                Ok(i)
            },
            &SchedCounters::default(),
        )
        .unwrap();
        assert!(
            seen.lock().unwrap().len() >= 2,
            "expected at least two participants"
        );
    }

    /// The pool is persistent: two successive parallel calls reuse the
    /// same worker threads instead of spawning fresh ones, and the pool
    /// never exceeds its budget.
    #[test]
    fn pool_workers_are_reused_across_calls() {
        grow_worker_pool_target(2);
        let worker_ids = |n: usize| {
            let seen = Mutex::new(HashSet::new());
            run_stealing(
                2,
                (0..n).collect::<Vec<usize>>(),
                |_| 1,
                |i| {
                    let me = std::thread::current();
                    if me.name().is_some_and(|n| n.starts_with("cdw-worker")) {
                        seen.lock().unwrap().insert(me.id());
                    }
                    // Give the pool worker a chance to arrive.
                    std::thread::sleep(Duration::from_millis(1));
                    Ok(i)
                },
                &SchedCounters::default(),
            )
            .unwrap();
            seen.into_inner().unwrap()
        };
        // Any single pair of calls may be served by different (equally
        // persistent) workers, so assert the persistence invariant over
        // many calls: the set of distinct pool-thread ids ever observed
        // stays within the pool target. Per-call scoped threads would
        // mint fresh ids every call and blow through the bound.
        let mut distinct = HashSet::new();
        for _ in 0..20 {
            distinct.extend(worker_ids(16));
        }
        assert!(
            distinct.len() <= worker_pool_target(),
            "saw {} distinct pool threads across 20 calls (target {}): workers are not persistent",
            distinct.len(),
            worker_pool_target()
        );
        let stats = worker_pool_stats();
        assert!(
            stats.live <= stats.target,
            "pool exceeded its budget: {stats:?}"
        );
    }

    /// The per-query counters fire: own-queue hits for seeded work,
    /// steals when one participant's seeds must drain through another.
    /// Item 0 (the submitter's first seed) blocks until every other item
    /// has run, so the submitter's remaining seeds can only finish by
    /// being stolen.
    #[test]
    fn counters_record_local_hits_and_steals() {
        grow_worker_pool_target(2);
        let c = SchedCounters::default();
        let done = AtomicUsize::new(0);
        let out = run_stealing(
            2,
            (0..8usize).collect(),
            |_| 1,
            |i| {
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while done.load(Ordering::SeqCst) < 7 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                Ok(i)
            },
            &c,
        )
        .unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(c.tasks(), 8);
        assert!(c.local() >= 1, "seeded pops must be counted");
        assert!(
            c.steals() >= 1,
            "blocked submitter's seeds require steals: local={} steals={}",
            c.local(),
            c.steals()
        );
        assert_eq!(c.local() + c.steals(), 8);
    }

    /// A budget of 1 means serial inline: no job is posted, the items run
    /// on the caller, and the counters still account for them.
    #[test]
    fn budget_of_one_runs_inline() {
        let c = SchedCounters::default();
        let caller = std::thread::current().id();
        let out = run_stealing(
            1,
            (0..4usize).collect(),
            |_| 1,
            |i| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(i)
            },
            &c,
        )
        .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(c.tasks(), 4);
        assert_eq!(c.local(), 4);
        assert_eq!(c.steals(), 0);
    }
}
