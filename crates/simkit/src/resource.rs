//! Multi-server FCFS resources.
//!
//! A [`MultiServer`] models `c` identical servers (CPU cores, disk arms,
//! worker threads) with a FIFO wait queue. The resource is a passive data
//! structure: the owning [`crate::engine::Model`] asks it to admit jobs and
//! is told when a job *starts*, so the model can schedule the matching
//! completion event. This keeps the resource reusable across every tier of
//! the cluster simulator.

use crate::queue::{BoundedQueue, Offer};
use crate::stats::UtilizationTracker;
use crate::time::{SimDuration, SimTime};

/// Outcome of offering a job to a [`MultiServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A server was free; the job starts now. Schedule its completion after
    /// its (possibly slowed-down) service time.
    Started,
    /// All servers busy; the job waits in the FIFO queue.
    Enqueued,
    /// The wait queue was full; the job is dropped.
    Rejected,
}

/// A waiting job: opaque token plus its service demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiting<T> {
    job: T,
    demand: SimDuration,
    enqueued_at: SimTime,
}

/// A job released from the queue when a server frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatched<T> {
    /// The job token handed back to the model.
    pub job: T,
    /// Its service demand, echoed back for completion scheduling.
    pub demand: SimDuration,
    /// How long it waited in the queue.
    pub waited: SimDuration,
}

/// `c`-server FCFS station with a bounded FIFO queue and utilization
/// accounting.
#[derive(Debug, Clone)]
pub struct MultiServer<T> {
    servers: u32,
    busy: u32,
    queue: BoundedQueue<Waiting<T>>,
    util: UtilizationTracker,
    /// Queueing delay summed over every started job (immediate starts
    /// add zero).
    wait_sum: SimDuration,
    started: u64,
    completed: u64,
}

impl<T> MultiServer<T> {
    /// `servers` parallel servers; `queue_cap = None` for an unbounded
    /// queue. `servers` must be at least 1.
    pub fn new(start: SimTime, servers: u32, queue_cap: Option<usize>) -> Self {
        assert!(servers >= 1, "a station needs at least one server");
        MultiServer {
            servers,
            busy: 0,
            queue: match queue_cap {
                Some(c) => BoundedQueue::bounded(c),
                None => BoundedQueue::unbounded(),
            },
            util: UtilizationTracker::new(start, servers as f64),
            wait_sum: SimDuration::ZERO,
            started: 0,
            completed: 0,
        }
    }

    /// Offer a job with the given service demand.
    pub fn offer(&mut self, now: SimTime, job: T, demand: SimDuration) -> Admission {
        if self.busy < self.servers {
            self.busy += 1;
            self.util.set_busy(now, self.busy as f64);
            self.started += 1;
            Admission::Started
        } else {
            match self.queue.offer(Waiting {
                job,
                demand,
                enqueued_at: now,
            }) {
                Offer::Accepted => Admission::Enqueued,
                Offer::Rejected(_) => Admission::Rejected,
            }
        }
    }

    /// A job finished on one server. Frees the server and, if anyone is
    /// waiting, dispatches the next job (the caller must schedule its
    /// completion).
    pub fn complete(&mut self, now: SimTime) -> Option<Dispatched<T>> {
        debug_assert!(self.busy > 0, "complete() with no busy server");
        self.completed += 1;
        if let Some(w) = self.queue.take() {
            // Server goes straight to the next job; busy count unchanged.
            let waited = now.since(w.enqueued_at);
            self.wait_sum += waited;
            self.started += 1;
            Some(Dispatched {
                job: w.job,
                demand: w.demand,
                waited,
            })
        } else {
            self.busy = self.busy.saturating_sub(1);
            self.util.set_busy(now, self.busy as f64);
            None
        }
    }

    /// Resize the station (tuner changed a thread-pool parameter). Running
    /// jobs are unaffected; if servers shrink below the busy count the
    /// excess drains as jobs complete. Growing dispatches queued jobs — the
    /// returned vector holds jobs the caller must now schedule completions
    /// for.
    pub fn set_servers(&mut self, now: SimTime, servers: u32) -> Vec<Dispatched<T>> {
        assert!(servers >= 1);
        self.servers = servers;
        self.util.set_capacity(now, servers as f64);
        self.util.set_busy(now, self.busy.min(self.servers) as f64);
        let mut dispatched = Vec::new();
        while self.busy < self.servers {
            match self.queue.take() {
                Some(w) => {
                    self.busy += 1;
                    let waited = now.since(w.enqueued_at);
                    self.wait_sum += waited;
                    self.started += 1;
                    dispatched.push(Dispatched {
                        job: w.job,
                        demand: w.demand,
                        waited,
                    });
                }
                None => break,
            }
        }
        self.util.set_busy(now, self.busy as f64);
        dispatched
    }

    /// Change the queue bound (tuner changed an accept-count parameter).
    pub fn set_queue_cap(&mut self, cap: Option<usize>) {
        self.queue.set_capacity(cap);
    }

    pub fn servers(&self) -> u32 {
        self.servers
    }

    pub fn busy(&self) -> u32 {
        self.busy
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub fn rejected(&self) -> u64 {
        self.queue.rejected()
    }

    pub fn started(&self) -> u64 {
        self.started
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Utilization of the station over the current window.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.util.utilization(now)
    }

    /// Publish this resource's busy-time and queue state into `registry`
    /// under `prefix`: utilization/busy/queue gauges plus throughput
    /// counters. Counters accumulate across calls on a shared registry.
    /// The `mean_wait_s` gauge is [`MultiServer::mean_wait_secs`]: it
    /// covers every job started since the resource was built, warmup
    /// included, not just the current utilization window.
    pub fn publish_metrics(&self, registry: &obs::Registry, prefix: &str, now: SimTime) {
        registry
            .gauge(&format!("{prefix}.utilization"))
            .set(self.utilization(now));
        registry
            .gauge(&format!("{prefix}.busy"))
            .set(self.busy() as f64);
        registry
            .gauge(&format!("{prefix}.mean_wait_s"))
            .set(self.mean_wait_secs());
        registry
            .histogram(&format!("{prefix}.queue_len"))
            .record(self.queue_len() as f64);
        registry
            .counter(&format!("{prefix}.completed"))
            .add(self.completed());
        registry
            .counter(&format!("{prefix}.rejected"))
            .add(self.rejected());
    }

    /// Mean queueing delay (seconds) of jobs started so far: the summed
    /// wait of every started job over [`MultiServer::started`], with
    /// immediate starts counting as zero (0 before any job starts).
    pub fn mean_wait_secs(&self) -> f64 {
        if self.started == 0 {
            0.0
        } else {
            self.wait_sum.as_secs_f64() / self.started as f64
        }
    }

    /// Restart the utilization window (iteration boundary).
    pub fn reset_window(&mut self, now: SimTime) {
        self.util.reset_window(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u64) -> SimTime = SimTime::from_secs;
    const D: fn(u64) -> SimDuration = SimDuration::from_secs;

    #[test]
    fn starts_until_all_servers_busy() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 2, None);
        assert_eq!(m.offer(S(0), 1, D(5)), Admission::Started);
        assert_eq!(m.offer(S(0), 2, D(5)), Admission::Started);
        assert_eq!(m.offer(S(0), 3, D(5)), Admission::Enqueued);
        assert_eq!(m.busy(), 2);
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn complete_dispatches_waiter_fifo() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 1, None);
        m.offer(S(0), 1, D(1));
        m.offer(S(0), 2, D(2));
        m.offer(S(0), 3, D(3));
        let d = m.complete(S(1)).expect("waiter dispatched");
        assert_eq!(d.job, 2);
        assert_eq!(d.demand, D(2));
        assert_eq!(d.waited, D(1));
        let d = m.complete(S(3)).expect("waiter dispatched");
        assert_eq!(d.job, 3);
        assert!(m.complete(S(6)).is_none());
        assert_eq!(m.busy(), 0);
        assert_eq!(m.completed(), 3);
    }

    #[test]
    fn bounded_queue_rejects() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 1, Some(1));
        assert_eq!(m.offer(S(0), 1, D(1)), Admission::Started);
        assert_eq!(m.offer(S(0), 2, D(1)), Admission::Enqueued);
        assert_eq!(m.offer(S(0), 3, D(1)), Admission::Rejected);
        assert_eq!(m.rejected(), 1);
    }

    #[test]
    fn utilization_integrates_busy_servers() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 2, None);
        m.offer(S(0), 1, D(10)); // one busy from 0..10
        m.complete(S(10));
        let u = m.utilization(S(10));
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn grow_dispatches_queued_jobs() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 1, None);
        m.offer(S(0), 1, D(5));
        m.offer(S(0), 2, D(5));
        m.offer(S(0), 3, D(5));
        let dispatched = m.set_servers(S(2), 3);
        assert_eq!(dispatched.len(), 2);
        assert_eq!(dispatched[0].job, 2);
        assert_eq!(dispatched[1].job, 3);
        assert_eq!(m.busy(), 3);
        assert_eq!(m.queue_len(), 0);
    }

    #[test]
    fn shrink_drains_gracefully() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 3, None);
        for j in 0..3 {
            m.offer(S(0), j, D(10));
        }
        let dispatched = m.set_servers(S(1), 1);
        assert!(dispatched.is_empty());
        assert_eq!(m.busy(), 3); // over-busy until completions drain
        m.complete(S(2));
        m.complete(S(3));
        assert_eq!(m.busy(), 1);
        // Now a new offer must queue: only 1 server and it is busy.
        assert_eq!(m.offer(S(4), 9, D(1)), Admission::Enqueued);
    }

    #[test]
    fn mean_wait_counts_immediate_starts_as_zero() {
        let mut m: MultiServer<u32> = MultiServer::new(SimTime::ZERO, 1, None);
        m.offer(S(0), 1, D(4));
        m.offer(S(0), 2, D(1));
        m.complete(S(4)); // job 2 waited 4s
        assert!((m.mean_wait_secs() - 2.0).abs() < 1e-9);
        let registry = obs::Registry::new();
        m.publish_metrics(&registry, "pool", S(5));
        let gauge = registry
            .snapshot()
            .gauges
            .into_iter()
            .find(|(k, _)| k == "pool.mean_wait_s")
            .map(|(_, v)| v);
        assert_eq!(gauge, Some(m.mean_wait_secs()));
    }
}
