//! Work distribution for partition- and morsel-parallel stages.
//!
//! Two layers:
//!
//! * `par_map` — the one fan-out. Item indices are sorted once by
//!   descending cost estimate (input index breaks ties) into a claim
//!   order, and every participant, the submitter and pool workers alike,
//!   claims the next position with one `fetch_add` on a shared cursor
//!   until the order runs out. Handing the largest remaining item to
//!   whichever participant is free is greedy LPT list scheduling: the
//!   last item to finish was claimed while every participant was busy,
//!   so the job ends within `mean + max_item` of real run time. Cost
//!   estimates are proxies (byte sizes, row counts); because claims
//!   happen at run time, a participant stuck on an underestimated item
//!   simply stops claiming while the others drain the rest.
//! * The **persistent worker pool** — one process-wide set of long-lived
//!   workers shared by every operator, pipeline, and concurrent server
//!   session. `par_map` spawns no threads: the submitting thread
//!   participates inline (so progress never depends on pool capacity,
//!   and nested calls are trivially deadlock-free) while idle pool
//!   workers unpark and claim the remaining participant tickets.
//!   The pool's size is the process's one execution budget
//!   ([`set_worker_pool_target`]); admission control and per-query
//!   `parallelism` both resolve against it via `effective_workers`, so
//!   N concurrent sessions × per-operator calls can never oversubscribe
//!   the host the way per-call scoped spawns did. Workers park on a
//!   condvar when the job board is empty and are spawned lazily, so a
//!   release build runs no execution threads at all until the first
//!   parallel query — and a fixed number ever after.
//!
//! Every call records its tasks and unparks straight into the submitting
//! query's [`ExecStats`] ledger, which `explain_analyze` renders as
//! `scheduler: tasks=.. unparks=..`.
//!
//! Determinism: results are written to per-item slots and returned in
//! input order, so *which* participant ran an item — and in what order —
//! can never change the output. Errors are reported first-by-input-index,
//! independent of completion order. A panicking task poisons the job
//! (every unclaimed item's state drops, releasing spill files) and
//! surfaces as one executor error. When the pool budget caps a call to a
//! single participant, it runs inline on the submitter — and the morsel
//! height function (`super::pipeline::morsel_height`) sees the same
//! `effective_workers` width, so streaming chains stop cutting partitions
//! and a window makes one work item, instead of paying scheduling
//! overhead no hardware will repay.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use super::{ExecCtx, ExecStats};
use crate::error::CdwError;

/// The order participants claim items in: indices by descending cost,
/// input index breaking ties, so the order is deterministic.
fn claim_order(costs: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

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
/// `par_map` returns.
struct JobEntry {
    task: ErasedJob,
    /// Participants this job admits, the submitter included.
    max: usize,
    /// Participant tickets handed out (the submitter holds the first).
    /// Only mutated under the pool state lock.
    tickets: AtomicUsize,
    retired: AtomicBool,
    /// Pool workers currently inside `task.run`.
    active: Mutex<usize>,
    exited: Condvar,
}

struct ErasedJob(*const (dyn RunJob + 'static));
// SAFETY: the pointee is a `Job` (Sync: slots/results are mutexes, the
// cursor is atomic, `f` is Sync) and the retire protocol bounds every
// dereference within the submitting call's lifetime.
unsafe impl Send for ErasedJob {}
unsafe impl Sync for ErasedJob {}

trait RunJob: Sync {
    fn run(&self);
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
        target: AtomicUsize::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ),
        parks: AtomicUsize::new(0),
    })
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
    /// Lifetime park events.
    pub parks: usize,
}

pub fn worker_pool_stats() -> WorkerPoolStats {
    let pool = pool();
    let st = pool.state.lock().expect("pool state");
    WorkerPoolStats {
        target: pool.target.load(Ordering::SeqCst),
        live: st.live,
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
        let entry = {
            let mut st = pool.state.lock().expect("pool state");
            loop {
                if st.live > pool.target.load(Ordering::SeqCst) {
                    st.live -= 1;
                    return;
                }
                if let Some(entry) = claim_job(&mut st) {
                    break entry;
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
        unsafe { (*entry.task.0).run() };
        let mut active = entry.active.lock().expect("job active");
        *active -= 1;
        if *active == 0 {
            entry.exited.notify_all();
        }
    }
}

/// Under the pool state lock: find the oldest job with an unclaimed
/// participant ticket, claim it, and mark this worker active on it.
fn claim_job(st: &mut PoolState) -> Option<Arc<JobEntry>> {
    st.jobs
        .retain(|e| !e.retired.load(Ordering::SeqCst) && e.tickets.load(Ordering::SeqCst) < e.max);
    let entry = st.jobs.first()?;
    entry.tickets.fetch_add(1, Ordering::SeqCst);
    *entry.active.lock().expect("job active") += 1;
    Some(entry.clone())
}

/// Post a job and recruit up to `extra` pool workers: wake parked ones
/// first, then spawn (lazily, never past the budget). The submitter is
/// about to participate inline, so a recruit shortfall only costs
/// parallelism, never progress.
fn submit(entry: Arc<JobEntry>, extra: usize, stats: &ExecStats) {
    let pool = pool();
    let mut st = pool.state.lock().expect("pool state");
    st.jobs.push(entry);
    let wake = extra.min(st.idle);
    for _ in 0..wake {
        pool.work.notify_one();
    }
    stats.sched_unparks.add(wake);
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
// One job: a cost-ordered claim list and one cursor.
// ---------------------------------------------------------------------------

struct Job<'a, I, T, F> {
    /// Items move into per-index cells so any participant can take the
    /// index it claimed.
    slots: Vec<Mutex<Option<I>>>,
    /// Results land in per-index cells so completion order is irrelevant.
    results: Vec<Mutex<Option<Result<T, CdwError>>>>,
    /// Item indices in claim order ([`claim_order`]).
    order: Vec<usize>,
    /// The next position of `order` to claim.
    cursor: AtomicUsize,
    poisoned: AtomicBool,
    f: &'a F,
    stats: &'a ExecStats,
}

impl<I, T, F> RunJob for Job<'_, I, T, F>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, CdwError> + Sync,
{
    fn run(&self) {
        while !self.poisoned.load(Ordering::SeqCst) {
            let Some(&idx) = self.order.get(self.cursor.fetch_add(1, Ordering::SeqCst)) else {
                return;
            };
            let item = self.slots[idx]
                .lock()
                .expect("slot lock")
                .take()
                .expect("each position is claimed once");
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(res) => {
                    *self.results[idx].lock().expect("result lock") = Some(res);
                    self.stats.sched_tasks.add(1);
                }
                Err(_) => {
                    self.poisoned.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }
}

/// Map `f` over work items (partitions, morsels, spill buckets, ...) on
/// the persistent pool, the submitter participating inline. `cost` is a
/// deterministic size estimate (bytes, rows) that orders the claims,
/// largest first. Results come back in **input order** regardless of
/// which participant ran what; on failure the error of the
/// smallest-index failing item is returned (matching serial semantics).
/// When the pool budget or the item count caps the call to one
/// participant, it runs serial inline. Scheduler counters record into
/// `ctx.stats`.
pub(crate) fn par_map<I, T, F>(
    ctx: &ExecCtx,
    items: Vec<I>,
    cost: impl Fn(&I) -> usize,
    f: F,
) -> Result<Vec<T>, CdwError>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, CdwError> + Sync,
{
    let stats = &ctx.stats;
    let n = items.len();
    let workers = effective_workers(ctx.parallelism).min(n.max(1));
    if workers <= 1 {
        stats.sched_tasks.add(n);
        return items.into_iter().map(f).collect();
    }
    let costs: Vec<usize> = items.iter().map(&cost).collect();

    let job = Job {
        slots: items.into_iter().map(|i| Mutex::new(Some(i))).collect(),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        order: claim_order(&costs),
        cursor: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        f: &f,
        stats,
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
    submit(entry.clone(), workers - 1, stats);
    job.run();
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
    use crate::eval::EvalCtx;
    use crate::exec::{ExecMemoryTracker, MorselSizing};
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    fn ctx(parallelism: usize) -> ExecCtx {
        ExecCtx {
            eval: EvalCtx::default(),
            parallelism,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            stats: ExecStats::default(),
        }
    }

    /// The claim order is a permutation of the items, in descending cost
    /// with ties broken by input index.
    #[test]
    fn claim_order_is_descending_cost_then_index() {
        let costs = vec![7, 3, 9, 1, 4, 4, 2, 8, 3];
        let order = claim_order(&costs);
        assert_eq!(order, vec![2, 7, 0, 4, 5, 1, 8, 6, 3]);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                costs[a] > costs[b] || (costs[a] == costs[b] && a < b),
                "{order:?}"
            );
        }
        assert_eq!(claim_order(&[5; 4]), vec![0, 1, 2, 3]);
        assert!(claim_order(&[]).is_empty());
    }

    #[test]
    fn results_keep_input_order_and_first_error() {
        grow_worker_pool_target(4);
        let c = ctx(4);
        let out = par_map(&c, (0..32).collect(), |_| 1, |i| Ok(i * 10)).unwrap();
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<i32>>());
        assert_eq!(c.stats.sched_tasks.get(), 32);

        let err = par_map(
            &ctx(4),
            (0..32).collect::<Vec<i32>>(),
            |_| 1,
            |i| {
                if i % 7 == 3 {
                    Err(CdwError::exec(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        // Smallest failing index is 3 regardless of completion order.
        assert!(err.to_string().contains("boom 3"), "{err}");
    }

    #[test]
    fn worker_panic_is_one_exec_error() {
        grow_worker_pool_target(2);
        let err = par_map(
            &ctx(2),
            vec![0usize, 1, 2, 3],
            |_| 1,
            |i| {
                if i == 2 {
                    panic!("injected");
                }
                Ok(i)
            },
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("parallel worker panicked"),
            "{err}"
        );
    }

    /// One "huge" item claimed first, everything else tiny: every item
    /// still runs exactly once and comes back in input order.
    #[test]
    fn skewed_costs_drain() {
        grow_worker_pool_target(4);
        let done = AtomicUsize::new(0);
        let out = par_map(
            &ctx(4),
            (0..64usize).collect(),
            |&i| if i == 0 { 1 << 20 } else { 1 },
            |i| {
                done.fetch_add(1, Ordering::SeqCst);
                Ok(i)
            },
        )
        .unwrap();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
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
        par_map(
            &ctx(4),
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
            par_map(
                &ctx(2),
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

    /// A participant stuck on one item does not hold back the rest: item
    /// 0 (claimed first) waits until the other seven are done, so they
    /// can only finish if the other participant keeps claiming past it.
    #[test]
    fn a_stuck_participant_does_not_hold_back_the_rest() {
        grow_worker_pool_target(2);
        let c = ctx(2);
        let done = AtomicUsize::new(0);
        let released = AtomicBool::new(false);
        let out = par_map(
            &c,
            (0..8usize).collect(),
            |_| 1,
            |i| {
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while Instant::now() < deadline {
                        if done.load(Ordering::SeqCst) == 7 {
                            released.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                Ok(i)
            },
        )
        .unwrap();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(
            released.load(Ordering::SeqCst),
            "item 0 waited out its deadline: the other items did not run past it"
        );
        assert_eq!(c.stats.sched_tasks.get(), 8);
    }

    /// A budget of 1 means serial inline: no job is posted, the items run
    /// on the caller, and the counters still account for them.
    #[test]
    fn budget_of_one_runs_inline() {
        let c = ctx(1);
        let caller = std::thread::current().id();
        let out = par_map(
            &c,
            (0..4usize).collect(),
            |_| 1,
            |i| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(i)
            },
        )
        .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(c.stats.sched_tasks.get(), 4);
        assert_eq!(c.stats.sched_unparks.get(), 0);
    }
}
