//! Workload management (paper §2): "The SQL query is then placed into a
//! workload management queue and subsequently executed in the customer's
//! database." A proxy per warehouse admits at most `max_concurrent`
//! queries; excess requests wait in per-tenant queues scheduled by
//! weighted fair queueing.
//!
//! The manager is the service's backpressure boundary, so admission is
//! **bounded on every axis**:
//!
//! * **Per-tenant quota** — one org can hold at most
//!   [`AdmissionConfig::tenant_quota`] of the `max_concurrent` slots, so a
//!   tenant with slow queries cannot occupy the whole warehouse and starve
//!   unrelated tenants.
//! * **Weighted fair queueing** — waiting tenants are scheduled by stride
//!   scheduling (each admission advances the tenant's virtual pass by
//!   `STRIDE / weight`; the lowest pass runs next), so long-run admission
//!   shares converge to the configured weights. Interactive requests beat
//!   background requests across all tenants first.
//! * **Bounded queues + shedding** — each tenant may have at most
//!   [`AdmissionConfig::queue_bound`] waiting requests; beyond that,
//!   `submit_for` returns [`AdmissionError::Overloaded`] *immediately* with
//!   a `retry_after` hint derived from observed service times, instead of
//!   queueing without bound.
//! * **Per-request deadlines** — a waiter whose deadline passes abandons
//!   the queue with [`AdmissionError::DeadlineExceeded`] instead of
//!   blocking its caller forever behind a stuck query.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Request priority classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Scheduled materialization refreshes and uploads.
    Background = 0,
    /// User-facing queries.
    Interactive = 1,
}

/// Tenant id used by compatibility callers that predate multi-tenant
/// admission ([`WorkloadManager::submit`]).
pub const DEFAULT_TENANT: u64 = 0;

/// Fixed-point stride unit for weighted fair queueing: a tenant's virtual
/// pass advances by `STRIDE / weight` per admission.
const STRIDE: u64 = 1 << 20;

/// Admission-control policy for one warehouse connection.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Admission limit: queries running concurrently on the warehouse.
    pub max_concurrent: usize,
    /// Slots one tenant may hold at once (≤ `max_concurrent`). Defaults to
    /// `max_concurrent` (no isolation) for drop-in compatibility.
    pub tenant_quota: usize,
    /// Waiting requests allowed per tenant before shedding.
    pub queue_bound: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Execution worker budget: the target size of the engine's shared
    /// worker pool while this policy is in force. Admitted queries draw
    /// their parallel workers from this one pool, so total execution
    /// threads stay at `exec_threads` no matter how many queries
    /// `max_concurrent` lets run — admission × per-query parallelism no
    /// longer multiplies into oversubscription. `0` (the default) leaves
    /// the pool at its current target (the host's parallelism unless
    /// something set it). The pool is process-wide: with several managed
    /// connections in one process, the most recently applied nonzero
    /// budget wins.
    pub exec_threads: usize,
}

impl AdmissionConfig {
    pub fn new(max_concurrent: usize) -> AdmissionConfig {
        let max_concurrent = max_concurrent.max(1);
        AdmissionConfig {
            max_concurrent,
            tenant_quota: max_concurrent,
            queue_bound: 1024,
            default_deadline: None,
            exec_threads: 0,
        }
    }

    fn normalized(mut self) -> AdmissionConfig {
        self.max_concurrent = self.max_concurrent.max(1);
        self.tenant_quota = self.tenant_quota.clamp(1, self.max_concurrent);
        self.queue_bound = self.queue_bound.max(1);
        self
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::new(8)
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's queue is full; retry after the hinted backoff. The
    /// request was rejected *immediately* (load shedding), not queued.
    Overloaded { retry_after: Duration },
    /// The request waited out its deadline without being admitted.
    DeadlineExceeded { waited: Duration },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {retry_after:?}")
            }
            AdmissionError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after waiting {waited:?}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Aggregate queue statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadStats {
    pub admitted: u64,
    pub queued: u64,
    /// Requests rejected immediately because a tenant queue was full.
    pub shed: u64,
    /// Requests abandoned because their deadline expired while waiting.
    pub expired: u64,
    pub total_wait: Duration,
    pub max_wait: Duration,
    /// High-water mark of total waiting requests: the observable proof
    /// that queues stay bounded under overload.
    pub peak_waiting: usize,
}

/// Per-tenant admission statistics (fairness observables).
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantStats {
    pub admitted: u64,
    pub shed: u64,
    pub expired: u64,
}

#[derive(Default)]
struct TenantState {
    weight: u32,
    /// Virtual pass for stride scheduling; the waiting tenant with the
    /// lowest pass is admitted next.
    pass: u64,
    running: usize,
    /// Waiting tickets, one deque per priority class, FIFO within.
    interactive: VecDeque<u64>,
    background: VecDeque<u64>,
    stats: TenantStats,
}

impl TenantState {
    fn waiting(&self) -> usize {
        self.interactive.len() + self.background.len()
    }
}

struct QueueState {
    running: usize,
    tenants: HashMap<u64, TenantState>,
    /// Tickets granted a slot but not yet claimed by their waiter.
    granted: HashMap<u64, ()>,
    next_ticket: u64,
    /// Global virtual time: the pass of the most recently admitted tenant.
    /// Tenants going from idle to active join at this point so they cannot
    /// bank credit while idle and then starve everyone.
    virtual_time: u64,
    /// EWMA of observed work execution time, feeding `retry_after` hints.
    ewma_service: Duration,
    stats: WorkloadStats,
}

impl QueueState {
    fn total_waiting(&self) -> usize {
        self.tenants.values().map(TenantState::waiting).sum()
    }
}

/// Point the engine's shared worker pool at the policy's execution
/// budget (no-op when `exec_threads` is 0). The manager owns both knobs
/// of warehouse load — how many queries run (`max_concurrent`) and how
/// many threads execute them (`exec_threads`) — so one config draws both
/// from one budget.
fn apply_exec_budget(config: &AdmissionConfig) {
    if config.exec_threads > 0 {
        sigma_cdw::set_worker_pool_target(config.exec_threads);
    }
}

/// Admission-controlled gateway to one warehouse.
pub struct WorkloadManager {
    config: Mutex<AdmissionConfig>,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl WorkloadManager {
    pub fn new(max_concurrent: usize) -> WorkloadManager {
        WorkloadManager::with_config(AdmissionConfig::new(max_concurrent))
    }

    pub fn with_config(config: AdmissionConfig) -> WorkloadManager {
        apply_exec_budget(&config);
        WorkloadManager {
            config: Mutex::new(config.normalized()),
            state: Mutex::new(QueueState {
                running: 0,
                tenants: HashMap::new(),
                granted: HashMap::new(),
                next_ticket: 0,
                virtual_time: 0,
                ewma_service: Duration::ZERO,
                stats: WorkloadStats::default(),
            }),
            cv: Condvar::new(),
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        *self.config.lock()
    }

    /// Replace the admission policy. Takes effect for subsequent
    /// admission decisions; already-running work is unaffected.
    pub fn set_config(&self, config: AdmissionConfig) {
        apply_exec_budget(&config);
        *self.config.lock() = config.normalized();
        // A raised limit may unblock waiters immediately.
        let mut st = self.state.lock();
        self.dispatch(&mut st);
        drop(st);
        self.cv.notify_all();
    }

    /// Set a tenant's fair-queueing weight (default 1). A tenant with
    /// weight 3 is admitted ~3x as often as a weight-1 tenant under
    /// contention.
    pub fn set_tenant_weight(&self, tenant: u64, weight: u32) {
        let mut st = self.state.lock();
        st.tenants.entry(tenant).or_default().weight = weight.max(1);
    }

    pub fn stats(&self) -> WorkloadStats {
        self.state.lock().stats
    }

    pub fn tenant_stats(&self, tenant: u64) -> TenantStats {
        self.state
            .lock()
            .tenants
            .get(&tenant)
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// Compatibility entry point: tenant 0, config-default deadline.
    pub fn submit<T>(
        &self,
        priority: Priority,
        work: impl FnOnce() -> T,
    ) -> Result<(T, Duration), AdmissionError> {
        self.submit_for(DEFAULT_TENANT, priority, None, work)
    }

    /// Run `work` under admission control on behalf of `tenant`; returns
    /// `(result, queue wait)` or an admission rejection. `deadline` bounds
    /// the *queue wait* (it cannot interrupt running work); `None` falls
    /// back to the configured default deadline.
    pub fn submit_for<T>(
        &self,
        tenant: u64,
        priority: Priority,
        deadline: Option<Duration>,
        work: impl FnOnce() -> T,
    ) -> Result<(T, Duration), AdmissionError> {
        let config = self.config();
        let deadline = deadline.or(config.default_deadline);
        let arrived = Instant::now();
        let ticket = {
            let mut st = self.state.lock();
            let full = {
                let t = st.tenants.entry(tenant).or_default();
                t.waiting() >= config.queue_bound
            };
            if full {
                let retry_after = self.retry_after(&st, &config);
                let t = st.tenants.get_mut(&tenant).expect("tenant entry exists");
                t.stats.shed += 1;
                st.stats.shed += 1;
                return Err(AdmissionError::Overloaded { retry_after });
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            let vt = st.virtual_time;
            let t = st.tenants.get_mut(&tenant).expect("tenant entry exists");
            if t.running == 0 && t.waiting() == 0 {
                // Re-activating tenant joins at the current virtual time:
                // idling must not bank scheduling credit.
                t.pass = t.pass.max(vt);
            }
            match priority {
                Priority::Interactive => t.interactive.push_back(ticket),
                Priority::Background => t.background.push_back(ticket),
            }
            let waiting_now = st.total_waiting();
            if waiting_now > st.stats.peak_waiting {
                st.stats.peak_waiting = waiting_now;
            }
            self.dispatch(&mut st);
            if st.granted.remove(&ticket).is_some() {
                None // admitted without waiting
            } else {
                st.stats.queued += 1;
                Some(ticket)
            }
        };
        if let Some(ticket) = ticket {
            let mut st = self.state.lock();
            loop {
                if st.granted.remove(&ticket).is_some() {
                    break;
                }
                let waited = arrived.elapsed();
                let remaining = match deadline {
                    Some(d) if waited >= d => {
                        // Abandon the queue. The grant check above ran
                        // under this same lock, so the ticket is still
                        // waiting and removal cannot race a grant.
                        let t = st.tenants.get_mut(&tenant).expect("tenant entry");
                        t.interactive.retain(|&x| x != ticket);
                        t.background.retain(|&x| x != ticket);
                        t.stats.expired += 1;
                        st.stats.expired += 1;
                        return Err(AdmissionError::DeadlineExceeded { waited });
                    }
                    Some(d) => Some(d - waited),
                    None => None,
                };
                match remaining {
                    Some(r) => {
                        self.cv.wait_for(&mut st, r);
                    }
                    None => self.cv.wait(&mut st),
                }
            }
            let wait = arrived.elapsed();
            st.stats.total_wait += wait;
            if wait > st.stats.max_wait {
                st.stats.max_wait = wait;
            }
        }
        let wait = arrived.elapsed();
        // The slot release must survive a panicking `work`: without the
        // guard, a panic unwinding through submit leaves `running`
        // overcounted forever — every later submission sees a phantom
        // occupant and the queue wedges once `max_concurrent` queries
        // have died. The drop guard decrements, feeds the service-time
        // EWMA, re-dispatches, and wakes waiters on every exit path.
        struct SlotGuard<'a> {
            mgr: &'a WorkloadManager,
            tenant: u64,
            started: Instant,
        }
        impl Drop for SlotGuard<'_> {
            fn drop(&mut self) {
                let elapsed = self.started.elapsed();
                let mut st = self.mgr.state.lock();
                st.running -= 1;
                if let Some(t) = st.tenants.get_mut(&self.tenant) {
                    t.running -= 1;
                }
                st.ewma_service = if st.ewma_service.is_zero() {
                    elapsed
                } else {
                    (st.ewma_service * 3 + elapsed) / 4
                };
                self.mgr.dispatch(&mut st);
                drop(st);
                self.mgr.cv.notify_all();
            }
        }
        let _slot = SlotGuard {
            mgr: self,
            tenant,
            started: Instant::now(),
        };
        let out = work();
        Ok((out, wait))
    }

    /// Grant free slots to waiting tickets: interactive requests first
    /// across all tenants, then background; within a class the eligible
    /// tenant (under its quota) with the lowest virtual pass wins, ties
    /// broken by arrival ticket. Called with the state lock held; callers
    /// notify the condvar after releasing it.
    fn dispatch(&self, st: &mut QueueState) {
        let config = *self.config.lock();
        while st.running < config.max_concurrent {
            let pick = |st: &QueueState, interactive: bool| {
                st.tenants
                    .iter()
                    .filter(|(_, t)| t.running < config.tenant_quota)
                    .filter_map(|(&id, t)| {
                        let q = if interactive {
                            &t.interactive
                        } else {
                            &t.background
                        };
                        q.front().map(|&ticket| (t.pass, ticket, id))
                    })
                    .min()
            };
            let Some((pass, ticket, tenant)) = pick(st, true).or_else(|| pick(st, false)) else {
                break;
            };
            let weight = {
                let t = st.tenants.get_mut(&tenant).expect("picked tenant");
                if t.interactive.front() == Some(&ticket) {
                    t.interactive.pop_front();
                } else {
                    t.background.pop_front();
                }
                t.running += 1;
                t.stats.admitted += 1;
                t.weight.max(1)
            };
            st.virtual_time = pass;
            let t = st.tenants.get_mut(&tenant).expect("picked tenant");
            t.pass = t.pass.saturating_add(STRIDE / weight as u64);
            st.running += 1;
            st.stats.admitted += 1;
            st.granted.insert(ticket, ());
        }
    }

    /// Backoff hint for shed requests: expected drain time of the current
    /// backlog at the observed per-query service rate.
    fn retry_after(&self, st: &QueueState, config: &AdmissionConfig) -> Duration {
        let per_query = if st.ewma_service.is_zero() {
            Duration::from_millis(10)
        } else {
            st.ewma_service
        };
        let backlog = st.total_waiting() + st.running;
        let rounds = backlog.div_ceil(config.max_concurrent).max(1) as u32;
        (per_query * rounds).clamp(Duration::from_millis(1), Duration::from_secs(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn admission_limit_enforced() {
        let mgr = Arc::new(WorkloadManager::new(2));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = mgr.clone();
            let concurrent = concurrent.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                mgr.submit(Priority::Interactive, || {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(15));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
                .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission limit exceeded");
        let stats = mgr.stats();
        assert_eq!(stats.admitted, 8);
        assert!(stats.queued >= 6);
        assert!(stats.max_wait > Duration::ZERO);
        assert!(stats.peak_waiting >= 1);
    }

    /// A panicking query must release its admission slot. Without the
    /// drop guard, `running` stays incremented after the unwind and the
    /// manager wedges once `max_concurrent` queries have died — every
    /// later submission waits behind phantom occupants.
    #[test]
    fn panicking_work_releases_admission_slot() {
        let mgr = WorkloadManager::new(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mgr.submit(Priority::Interactive, || panic!("query failed"))
                .unwrap();
        }));
        assert!(unwound.is_err());
        // Assert the slot count directly first: if the guard failed, the
        // submit below would hang instead of failing the test.
        assert_eq!(mgr.state.lock().running, 0, "admission slot leaked");
        let (value, _wait) = mgr.submit(Priority::Interactive, || 42).unwrap();
        assert_eq!(value, 42);
        // Both the panicking and the follow-up submission were admitted.
        assert_eq!(mgr.stats().admitted, 2);
    }

    #[test]
    fn interactive_jumps_background() {
        // One slot busy; a background and an interactive request queue up:
        // interactive must run first.
        let mgr = Arc::new(WorkloadManager::new(1));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));

        let m1 = mgr.clone();
        let blocker = std::thread::spawn(move || {
            m1.submit(Priority::Interactive, || {
                std::thread::sleep(Duration::from_millis(60));
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));

        let m2 = mgr.clone();
        let o2 = order.clone();
        let bg = std::thread::spawn(move || {
            m2.submit(Priority::Background, move || o2.lock().push("background"))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));
        let m3 = mgr.clone();
        let o3 = order.clone();
        let fg = std::thread::spawn(move || {
            m3.submit(Priority::Interactive, move || o3.lock().push("interactive"))
                .unwrap()
        });

        blocker.join().unwrap();
        bg.join().unwrap();
        fg.join().unwrap();
        let order = order.lock();
        assert_eq!(order.as_slice(), ["interactive", "background"]);
    }

    /// The satellite regression: a slow query from one tenant must not
    /// wedge an unrelated tenant. With a per-tenant quota below the
    /// admission limit, tenant B is admitted into the spare slot while
    /// tenant A's slow query runs.
    #[test]
    fn slow_tenant_cannot_block_unrelated_tenant() {
        let mgr = Arc::new(WorkloadManager::with_config(AdmissionConfig {
            max_concurrent: 2,
            tenant_quota: 1,
            queue_bound: 16,
            default_deadline: None,
            exec_threads: 0,
        }));
        let m = mgr.clone();
        let slow = std::thread::spawn(move || {
            m.submit_for(1, Priority::Interactive, None, || {
                std::thread::sleep(Duration::from_millis(400));
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        // Tenant 1 piles more work behind its slow query (these would
        // consume both slots without the quota).
        let mut backlog = Vec::new();
        for _ in 0..4 {
            let m = mgr.clone();
            backlog.push(std::thread::spawn(move || {
                m.submit_for(1, Priority::Interactive, None, || {
                    std::thread::sleep(Duration::from_millis(30));
                })
                .unwrap()
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let (_, wait) = mgr
            .submit_for(2, Priority::Interactive, Some(Duration::from_secs(5)), || 7)
            .expect("tenant 2 admitted into the spare slot");
        assert!(
            started.elapsed() < Duration::from_millis(300),
            "tenant 2 waited {:?} behind tenant 1's slow query",
            started.elapsed()
        );
        assert!(wait < Duration::from_millis(300));
        slow.join().unwrap();
        for h in backlog {
            h.join().unwrap();
        }
    }

    /// A waiter whose deadline passes abandons the queue with a clean
    /// error instead of blocking forever behind a stuck query.
    #[test]
    fn deadline_expires_instead_of_blocking_forever() {
        let mgr = Arc::new(WorkloadManager::new(1));
        let m = mgr.clone();
        let stuck = std::thread::spawn(move || {
            m.submit(Priority::Interactive, || {
                std::thread::sleep(Duration::from_millis(300));
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let err = mgr
            .submit_for(
                1,
                Priority::Interactive,
                Some(Duration::from_millis(50)),
                || 1,
            )
            .unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, AdmissionError::DeadlineExceeded { .. }));
        assert!(
            elapsed >= Duration::from_millis(45) && elapsed < Duration::from_millis(250),
            "deadline return took {elapsed:?}"
        );
        assert_eq!(mgr.stats().expired, 1);
        // The abandoned ticket must not occupy a slot once the stuck
        // query finishes.
        stuck.join().unwrap();
        let (v, _) = mgr.submit(Priority::Interactive, || 9).unwrap();
        assert_eq!(v, 9);
    }

    /// Beyond `queue_bound` waiting requests, a tenant is shed immediately
    /// with a retry hint instead of queueing without bound.
    #[test]
    fn full_queue_sheds_immediately() {
        let mgr = Arc::new(WorkloadManager::with_config(AdmissionConfig {
            max_concurrent: 1,
            tenant_quota: 1,
            queue_bound: 1,
            default_deadline: None,
            exec_threads: 0,
        }));
        let m = mgr.clone();
        let blocker = std::thread::spawn(move || {
            m.submit_for(1, Priority::Interactive, None, || {
                std::thread::sleep(Duration::from_millis(150));
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        // One waiter fits the bound...
        let m = mgr.clone();
        let waiter =
            std::thread::spawn(move || m.submit_for(1, Priority::Interactive, None, || 1).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        // ...the next is shed without blocking.
        let started = Instant::now();
        let err = mgr
            .submit_for(1, Priority::Interactive, None, || 2)
            .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "shedding must be immediate, took {:?}",
            started.elapsed()
        );
        let AdmissionError::Overloaded { retry_after } = err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert!(retry_after >= Duration::from_millis(1));
        assert_eq!(mgr.stats().shed, 1);
        assert_eq!(mgr.tenant_stats(1).shed, 1);
        blocker.join().unwrap();
        waiter.join().unwrap();
        assert_eq!(mgr.stats().peak_waiting, 1, "queue stayed bounded");
    }

    /// Stride scheduling: under contention a weight-3 tenant is admitted
    /// ~3x as often as a weight-1 tenant.
    #[test]
    fn weighted_fair_queueing_shares() {
        let mgr = Arc::new(WorkloadManager::with_config(AdmissionConfig {
            max_concurrent: 1,
            tenant_quota: 1,
            queue_bound: 64,
            default_deadline: None,
            exec_threads: 0,
        }));
        mgr.set_tenant_weight(1, 3);
        mgr.set_tenant_weight(2, 1);
        // Occupy the slot so both tenants' backlogs queue fully before
        // any admission decisions happen.
        let m = mgr.clone();
        let blocker = std::thread::spawn(move || {
            m.submit_for(9, Priority::Interactive, None, || {
                std::thread::sleep(Duration::from_millis(120));
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(30));
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        let mut handles = Vec::new();
        for tenant in [1u64, 2] {
            for _ in 0..8 {
                let m = mgr.clone();
                let order = order.clone();
                handles.push(std::thread::spawn(move || {
                    m.submit_for(tenant, Priority::Interactive, None, move || {
                        order.lock().push(tenant);
                        std::thread::sleep(Duration::from_millis(2));
                    })
                    .unwrap()
                }));
            }
            // Let tenant 1's waiters enqueue first so the test is not
            // sensitive to spawn interleaving for the *first* admissions.
            std::thread::sleep(Duration::from_millis(30));
        }
        blocker.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let order: Vec<u64> = order.lock().clone();
        let first8 = &order[..8];
        let t1 = first8.iter().filter(|&&t| t == 1).count();
        assert!(
            (5..=7).contains(&t1),
            "weight-3 tenant got {t1}/8 of the first admissions: {order:?}"
        );
        assert_eq!(mgr.tenant_stats(1).admitted, 8);
        assert_eq!(mgr.tenant_stats(2).admitted, 8);
    }

    /// A raised admission limit releases waiting tickets immediately.
    #[test]
    fn reconfigure_unblocks_waiters() {
        let mgr = Arc::new(WorkloadManager::new(1));
        let m = mgr.clone();
        let blocker = std::thread::spawn(move || {
            m.submit(Priority::Interactive, || {
                std::thread::sleep(Duration::from_millis(200));
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        let m = mgr.clone();
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            m.submit(Priority::Interactive, || ()).unwrap();
            started.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        let mut cfg = mgr.config();
        cfg.max_concurrent = 2;
        cfg.tenant_quota = 2;
        mgr.set_config(cfg);
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_millis(150),
            "waiter should be released by the config change, waited {waited:?}"
        );
        blocker.join().unwrap();
    }
}
