//! Bounded-queue admission control.
//!
//! The server never queues without bound: a request is either admitted
//! into a fixed-capacity queue or *shed immediately* with an `overloaded`
//! response carrying a retry-after hint. The queue doubles as the drain
//! gate — once draining, new work is refused while already-admitted jobs
//! keep flowing to workers until the queue runs dry, at which point
//! workers observe `None` and exit.

use crate::query::Query;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One admitted unit of work, handed from a connection thread to a worker.
#[derive(Clone, Debug)]
pub struct Job {
    /// Canonical cache key of the query (see
    /// [`crate::query::canonical_key`]).
    pub canonical: String,
    /// The parsed query to evaluate.
    pub query: Query,
    /// Absolute wall-clock deadline of the request.
    pub deadline: Instant,
    /// When the job entered the queue (for queued-time accounting).
    pub enqueued: Instant,
    /// Where the worker publishes the rendered response.
    pub slot: Arc<ResponseSlot>,
}

/// A one-shot rendezvous for a single response: the worker fills it, the
/// connection thread waits on it.
#[derive(Debug, Default)]
pub struct ResponseSlot {
    value: Mutex<Option<String>>,
    ready: Condvar,
}

/// Recovers a possibly poisoned guard. Every mutex in the crate (slot and
/// queue state, the server's live-connection count, the response-cache
/// shards and the workload memo) is updated by single statements, so a
/// panicking peer cannot leave its data incoherent.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ResponseSlot {
    /// A fresh, empty slot.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publishes the response. First writer wins; later writers are
    /// silently dropped (a worker filling a slot the connection already
    /// gave up on).
    pub fn fill(&self, response: String) {
        let mut guard = lock_unpoisoned(&self.value);
        if guard.is_none() {
            *guard = Some(response);
            self.ready.notify_all();
        }
    }

    /// Blocks until the slot is filled or `deadline` passes; `None` on
    /// timeout.
    pub fn wait_until(&self, deadline: Instant) -> Option<String> {
        let mut guard = lock_unpoisoned(&self.value);
        loop {
            if let Some(response) = guard.take() {
                return Some(response);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            guard = match self.ready.wait_timeout(guard, deadline - now) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// Why a job was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmitError {
    /// The queue is at capacity; the job was shed. Carries the depth at
    /// refusal time for the `queue_depth` response field.
    Overloaded {
        /// Queue depth when the job was refused.
        depth: usize,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

impl core::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Overloaded { depth } => write!(f, "queue full at depth {depth}"),
            Self::Draining => write!(f, "server is draining"),
        }
    }
}

impl std::error::Error for AdmitError {}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// The bounded admission queue shared by connection threads (producers)
/// and the worker pool (consumers).
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` outstanding jobs (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (approximate between lock acquisitions; exact inside
    /// one).
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.state).jobs.len()
    }

    /// Admits `job`, or refuses with the reason. Never blocks.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Draining`] once draining,
    /// [`AdmitError::Overloaded`] when the queue is at capacity.
    pub fn try_admit(&self, job: Job) -> Result<(), AdmitError> {
        let mut state = lock_unpoisoned(&self.state);
        if state.draining {
            return Err(AdmitError::Draining);
        }
        if state.jobs.len() >= self.capacity {
            return Err(AdmitError::Overloaded {
                depth: state.jobs.len(),
            });
        }
        state.jobs.push_back(job);
        self.available.notify_one();
        Ok(())
    }

    /// Takes the next job, blocking while the queue is empty. Returns
    /// `None` once the queue is draining *and* empty — the worker's exit
    /// signal. Already-admitted jobs are always delivered, even during
    /// drain.
    pub fn take(&self) -> Option<Job> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.draining {
                return None;
            }
            // `drain` sets the flag under this mutex and then notifies
            // every waiter, so an untimed wait cannot miss it.
            state = match self.available.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Enters drain mode: refuses new admissions and wakes every parked
    /// worker so they can observe the empty queue and exit. Idempotent.
    pub fn drain(&self) {
        lock_unpoisoned(&self.state).draining = true;
        self.available.notify_all();
    }

    /// Whether the queue is draining.
    pub fn is_draining(&self) -> bool {
        lock_unpoisoned(&self.state).draining
    }
}

/// Computes the retry-after hint for a shed response: roughly how long the
/// present backlog needs to clear at the observed service rate, floored at
/// one millisecond so clients always back off a nonzero amount.
pub fn retry_after_ms(depth: usize, workers: usize, ema_service_micros: u64) -> u64 {
    /// Microseconds per millisecond.
    const MICROS_PER_MILLI: u64 = 1_000;
    /// Fallback service estimate before any request has completed, µs.
    const DEFAULT_SERVICE_MICROS: u64 = 10_000;
    let per_job = if ema_service_micros == 0 {
        DEFAULT_SERVICE_MICROS
    } else {
        ema_service_micros
    };
    let backlog_micros = (depth as u64 + 1).saturating_mul(per_job) / workers.max(1) as u64;
    (backlog_micros / MICROS_PER_MILLI).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use std::time::Duration;

    fn job(tag: &str) -> Job {
        Job {
            canonical: tag.to_string(),
            query: Query::Ping,
            deadline: Instant::now() + Duration::from_secs(5),
            enqueued: Instant::now(),
            slot: ResponseSlot::new(),
        }
    }

    #[test]
    fn admits_up_to_capacity_then_sheds_with_depth() {
        let q = AdmissionQueue::new(2);
        q.try_admit(job("a")).expect("first admits");
        q.try_admit(job("b")).expect("second admits");
        assert_eq!(
            q.try_admit(job("c")),
            Err(AdmitError::Overloaded { depth: 2 })
        );
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let q = AdmissionQueue::new(4);
        for tag in ["a", "b", "c"] {
            q.try_admit(job(tag)).expect("admits");
        }
        let order: Vec<String> = (0..3)
            .filter_map(|_| q.take().map(|j| j.canonical))
            .collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn drain_refuses_new_work_but_delivers_the_backlog() {
        let q = AdmissionQueue::new(4);
        q.try_admit(job("queued")).expect("admits");
        q.drain();
        assert!(q.is_draining());
        assert_eq!(q.try_admit(job("late")), Err(AdmitError::Draining));
        assert_eq!(q.take().map(|j| j.canonical).as_deref(), Some("queued"));
        assert_eq!(q.take().map(|j| j.canonical), None, "drained and empty");
    }

    #[test]
    fn parked_workers_wake_on_drain() {
        let q = Arc::new(AdmissionQueue::new(1));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.take().is_none());
        std::thread::sleep(Duration::from_millis(20));
        q.drain();
        assert!(
            waiter.join().expect("waiter joins"),
            "blocked take() returns None on drain"
        );
    }

    #[test]
    fn slot_rendezvous_first_writer_wins() {
        let slot = ResponseSlot::new();
        slot.fill("first".to_string());
        slot.fill("second".to_string());
        let got = slot.wait_until(Instant::now() + Duration::from_millis(50));
        assert_eq!(got.as_deref(), Some("first"));
    }

    #[test]
    fn slot_wait_times_out_when_never_filled() {
        let slot = ResponseSlot::new();
        let started = Instant::now();
        assert_eq!(slot.wait_until(started + Duration::from_millis(30)), None);
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn slot_wakes_a_waiter_across_threads() {
        let slot = ResponseSlot::new();
        let slot2 = Arc::clone(&slot);
        let waiter =
            std::thread::spawn(move || slot2.wait_until(Instant::now() + Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        slot.fill("answer".to_string());
        assert_eq!(waiter.join().expect("joins").as_deref(), Some("answer"));
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_floors_at_one() {
        assert_eq!(retry_after_ms(0, 4, 0), 2, "default estimate, one job");
        assert!(retry_after_ms(100, 2, 50_000) > retry_after_ms(10, 2, 50_000));
        assert_eq!(retry_after_ms(0, 8, 1), 1, "floor at 1 ms");
    }
}
