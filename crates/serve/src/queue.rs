//! The bounded job queue feeding the worker pool.
//!
//! One [`gdf_tenant::FairScheduler`] behind one mutex and one condvar.
//! Dispatch is weighted deficit round-robin across tenant lanes within
//! priority bands, so one tenant's burst queues behind its own lane. An
//! open server has no registry and tags no job, so its jobs land on the
//! ownerless `""` lane with weight 1, and dispatch is plain FIFO.
//! Scheduling decisions need global (all-lane) state, and the mutex
//! guards pure bookkeeping that is never held across a job run.
//!
//! The total of queued jobs is bounded; a full queue refuses the push,
//! which the server surfaces as `503 Service Unavailable` instead of
//! buffering without bound. Waits are short-timeout so shutdown flags
//! are observed promptly.

use gdf_tenant::{EnqueueError, FairScheduler, LaneConfig, TenantRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Returned by [`JobQueue::push`] when a job cannot be queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Global capacity exhausted — the server is saturated (`503`).
    Full,
    /// The tenant's `max_queued` quota is exhausted (`429`).
    OverQuota,
}

/// See the [module docs](self).
pub struct JobQueue {
    sched: Mutex<FairScheduler>,
    available: Condvar,
    closed: AtomicBool,
}

impl JobQueue {
    /// A queue bounding total queued jobs at `capacity` (clamped to
    /// ≥ 1), with one configured lane per registry tenant. Unknown
    /// tenants, and every job of an open server (`None`), get a default
    /// weight-1 lane on first enqueue.
    pub fn new(capacity: usize, registry: Option<&TenantRegistry>) -> Self {
        let mut sched = FairScheduler::new(capacity.max(1));
        for tenant in registry.iter().flat_map(|r| &r.tenants) {
            sched.configure(&tenant.id, LaneConfig::from(tenant));
        }
        JobQueue {
            sched: Mutex::new(sched),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FairScheduler> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues on the tenant's lane (`None` = the ownerless lane).
    pub fn push(&self, tenant: Option<&str>, id: u64) -> Result<(), PushError> {
        let result = self.lock().enqueue(tenant.unwrap_or(""), id);
        match result {
            Ok(()) => {
                self.available.notify_one();
                Ok(())
            }
            Err(EnqueueError::Saturated) => Err(PushError::Full),
            Err(EnqueueError::OverQuota) => Err(PushError::OverQuota),
        }
    }

    /// Dispatches the next job per the fair schedule, blocking up to
    /// `timeout` when nothing is eligible. `None` on timeout or when
    /// closed and drained.
    pub fn pop(&self, timeout: Duration) -> Option<u64> {
        let mut sched = self.lock();
        if let Some((_, id)) = sched.dispatch() {
            return Some(id);
        }
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        let (mut sched, _timeout) = self
            .available
            .wait_timeout(sched, timeout)
            .unwrap_or_else(|e| e.into_inner());
        sched.dispatch().map(|(_, id)| id)
    }

    /// Records a dispatched job finishing, re-opening its lane if it
    /// was at `max_running` — and waking a worker to check.
    pub fn finish(&self, tenant: Option<&str>) {
        self.lock().finish(tenant.unwrap_or(""));
        self.available.notify_one();
    }

    /// Removes a queued job (a queued job cancelled before a worker
    /// picks it up); `true` if found.
    pub fn remove(&self, id: u64) -> bool {
        self.lock().remove(id)
    }

    /// Total queued jobs.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the queue closed and wakes every waiting worker.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.available.notify_all();
    }

    /// `true` once [`JobQueue::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// `(tenant, queued, running)` per lane, for `/metrics`.
    pub fn snapshot(&self) -> Vec<(String, usize, usize)> {
        self.lock().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_tenant::TenantSpec;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(1);

    fn registry() -> TenantRegistry {
        TenantRegistry::new(vec![
            TenantSpec::new("acme", "t-a")
                .with_weight(2)
                .with_max_queued(8),
            TenantSpec::new("zeta", "t-z").with_max_queued(2),
        ])
        .unwrap()
    }

    #[test]
    fn fair_queue_dispatches_by_weight() {
        let q = JobQueue::new(64, Some(&registry()));
        for j in 0..6u64 {
            q.push(Some("acme"), j).unwrap();
            // zeta's quota is max_queued(2).
            if j < 2 {
                q.push(Some("zeta"), 10 + j).unwrap();
            }
        }
        // acme (weight 2) gets two dispatches per zeta's one.
        let order: Vec<u64> = (0..6).map(|_| q.pop(TICK).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 10, 2, 3, 11]);
    }

    #[test]
    fn fair_queue_separates_quota_from_saturation() {
        let q = JobQueue::new(3, Some(&registry()));
        q.push(Some("zeta"), 1).unwrap();
        q.push(Some("zeta"), 2).unwrap();
        // zeta's max_queued=2 is its own problem...
        assert_eq!(q.push(Some("zeta"), 3), Err(PushError::OverQuota));
        q.push(Some("acme"), 4).unwrap();
        // ...while the global bound is everyone's.
        assert_eq!(q.push(Some("acme"), 5), Err(PushError::Full));
        assert_eq!(q.len(), 3);
        assert!(q.remove(2));
        assert!(!q.remove(2));
        q.push(Some("zeta"), 3).unwrap();
    }

    #[test]
    fn fair_queue_wakes_a_waiting_worker_and_closes() {
        let registry = registry();
        for registry in [None, Some(&registry)] {
            let q = Arc::new(JobQueue::new(16, registry));
            let q2 = Arc::clone(&q);
            let handle = std::thread::spawn(move || q2.pop(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(20));
            q.push(None, 7).unwrap();
            assert_eq!(handle.join().unwrap(), Some(7));
            q.finish(None);
            q.close();
            assert!(q.is_closed());
            assert_eq!(q.pop(TICK), None);
        }
    }

    #[test]
    fn job_queue_front_is_transparent_in_both_modes() {
        // Open servers push ownerless jobs; tenanted ones push to a lane.
        let registry = registry();
        for (registry, tenant) in [(None, None), (Some(&registry), Some("acme"))] {
            let q = JobQueue::new(4, registry);
            for id in 0..4 {
                q.push(tenant, id).unwrap();
            }
            assert_eq!(q.push(tenant, 99), Err(PushError::Full));
            assert_eq!(q.len(), 4);
            let order: Vec<u64> = (0..4).map(|_| q.pop(TICK).unwrap()).collect();
            assert_eq!(order, vec![0, 1, 2, 3], "one lane is a FIFO");
            assert_eq!(q.pop(TICK), None);
            q.finish(tenant);
            assert!(q.is_empty());

            let q = JobQueue::new(0, registry);
            q.push(tenant, 5).unwrap();
            assert_eq!(
                q.push(tenant, 6),
                Err(PushError::Full),
                "capacity clamps to 1"
            );
        }
    }
}
