//! Server health accounting: the counter block behind the `health` query
//! and the final drain report.
//!
//! Every counter is a relaxed atomic — the numbers are operator telemetry,
//! not synchronization — and a [`HealthSnapshot`] is a plain copy taken at
//! one instant, rendered as deterministic `key=value` lines so scripts can
//! parse it with `split_once('=')`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Live health counters shared by the accept loop, connection threads, and
/// the worker pool.
#[derive(Debug, Default)]
pub struct ServerHealth {
    /// Requests answered with an `ok` response (cache hits included).
    pub served: AtomicU64,
    /// Requests refused by the admission controller (`overloaded`).
    pub shed: AtomicU64,
    /// Requests whose evaluation panicked inside the worker's isolation
    /// boundary.
    pub panicked: AtomicU64,
    /// Requests that hit their wall-clock deadline (queued past it or
    /// interrupted mid-evaluation).
    pub deadline_expired: AtomicU64,
    /// Frames that violated the wire protocol (bad magic, oversize,
    /// truncation, non-UTF-8, slow-loris timeout).
    pub malformed: AtomicU64,
    /// Well-framed requests rejected by query validation (unknown op,
    /// out-of-range parameter, duplicate key).
    pub invalid: AtomicU64,
    /// Requests whose evaluation returned a typed model error (timing
    /// failure, failure budget, ...).
    pub eval_failed: AtomicU64,
    /// Requests refused because the server is draining.
    pub drained: AtomicU64,
    /// Connections accepted since startup.
    pub connections_opened: AtomicU64,
    /// Connection handlers that panicked (isolated per connection; the
    /// server keeps accepting).
    pub connections_panicked: AtomicU64,
    /// Response-cache hits.
    pub cache_hits: AtomicU64,
    /// Response-cache misses.
    pub cache_misses: AtomicU64,
    /// Current admission-queue depth (gauge, not a counter).
    pub queue_depth: AtomicUsize,
    /// Exponential moving average of worker service time, microseconds
    /// (feeds the `retry_after_ms` hint on shed responses).
    pub ema_service_micros: AtomicU64,
    /// 1 once the server has entered its drain phase.
    pub draining: AtomicU64,
    /// Worker threads the supervisor respawned after they died (a worker
    /// death is a thread exiting outside a drain — a bug or a chaos kill).
    pub worker_restarts: AtomicU64,
    /// 1 once the supervisor exhausted its restart budget (or could not
    /// spawn a replacement) and stopped respawning dead workers.
    pub supervisor_gave_up: AtomicU64,
    /// Heartbeat-stall episodes: a live worker whose heartbeat epoch froze
    /// past the stall window (wedged in an evaluation the budget cannot
    /// interrupt). Observed, not restarted — the thread still holds its
    /// job.
    pub worker_stalls: AtomicU64,
    /// Connections closed because their sockets refused setup
    /// (`set_read_timeout`/`set_nodelay` failed): a connection without a
    /// frame clock has no slow-loris protection and must not be served.
    pub conn_setup_failed: AtomicU64,
    /// Cache entries recovered from the cache journal at startup.
    pub cache_recovered: AtomicU64,
    /// Cache-journal append failures (the entry is still served and cached
    /// in memory; it just will not survive a restart).
    pub cache_journal_failures: AtomicU64,
}

/// EMA smoothing: new average = 7/8 old + 1/8 sample.
const EMA_KEEP: u64 = 7;
/// EMA denominator (see [`EMA_KEEP`]).
const EMA_DIV: u64 = 8;

impl ServerHealth {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observed service time into the moving average.
    pub fn record_service_micros(&self, micros: u64) {
        // A lost race just drops one sample from the average — harmless.
        let old = self.ema_service_micros.load(Ordering::Relaxed);
        let new = if old == 0 {
            micros
        } else {
            (old * EMA_KEEP + micros) / EMA_DIV
        };
        self.ema_service_micros.store(new, Ordering::Relaxed);
    }

    /// Copies every counter at one instant.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            eval_failed: self.eval_failed.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_panicked: self.connections_panicked.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed) != 0,
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            supervisor_gave_up: self.supervisor_gave_up.load(Ordering::Relaxed) != 0,
            worker_stalls: self.worker_stalls.load(Ordering::Relaxed),
            conn_setup_failed: self.conn_setup_failed.load(Ordering::Relaxed),
            cache_recovered: self.cache_recovered.load(Ordering::Relaxed),
            cache_journal_failures: self.cache_journal_failures.load(Ordering::Relaxed),
        }
    }
}

/// One instant's view of the [`ServerHealth`] counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// See [`ServerHealth::served`].
    pub served: u64,
    /// See [`ServerHealth::shed`].
    pub shed: u64,
    /// See [`ServerHealth::panicked`].
    pub panicked: u64,
    /// See [`ServerHealth::deadline_expired`].
    pub deadline_expired: u64,
    /// See [`ServerHealth::malformed`].
    pub malformed: u64,
    /// See [`ServerHealth::invalid`].
    pub invalid: u64,
    /// See [`ServerHealth::eval_failed`].
    pub eval_failed: u64,
    /// See [`ServerHealth::drained`].
    pub drained: u64,
    /// See [`ServerHealth::connections_opened`].
    pub connections_opened: u64,
    /// See [`ServerHealth::connections_panicked`].
    pub connections_panicked: u64,
    /// See [`ServerHealth::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServerHealth::cache_misses`].
    pub cache_misses: u64,
    /// See [`ServerHealth::queue_depth`].
    pub queue_depth: usize,
    /// See [`ServerHealth::draining`].
    pub draining: bool,
    /// See [`ServerHealth::worker_restarts`].
    pub worker_restarts: u64,
    /// See [`ServerHealth::supervisor_gave_up`].
    pub supervisor_gave_up: bool,
    /// See [`ServerHealth::worker_stalls`].
    pub worker_stalls: u64,
    /// See [`ServerHealth::conn_setup_failed`].
    pub conn_setup_failed: u64,
    /// See [`ServerHealth::cache_recovered`].
    pub cache_recovered: u64,
    /// See [`ServerHealth::cache_journal_failures`].
    pub cache_journal_failures: u64,
}

impl HealthSnapshot {
    /// Cache hit rate over `[0, 1]` (0 when the cache is untouched).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the counter block as `key=value` lines (the `health` query
    /// body and the final drain report). Keys are stable; values are plain
    /// decimal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in [
            ("served", self.served),
            ("shed", self.shed),
            ("panicked", self.panicked),
            ("deadline_expired", self.deadline_expired),
            ("malformed", self.malformed),
            ("invalid", self.invalid),
            ("eval_failed", self.eval_failed),
            ("drained", self.drained),
            ("connections_opened", self.connections_opened),
            ("connections_panicked", self.connections_panicked),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("queue_depth", self.queue_depth as u64),
            ("draining", u64::from(self.draining)),
            ("worker_restarts", self.worker_restarts),
            ("supervisor_gave_up", u64::from(self.supervisor_gave_up)),
            ("worker_stalls", self.worker_stalls),
            ("conn_setup_failed", self.conn_setup_failed),
            ("cache_recovered", self.cache_recovered),
            ("cache_journal_failures", self.cache_journal_failures),
        ] {
            out.push_str(key);
            out.push('=');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out.push_str(&format!("cache_hit_rate={:.4}\n", self.cache_hit_rate()));
        out
    }

    /// Parses a rendered counter block back (the client-side view; unknown
    /// keys are ignored so old clients read new servers).
    pub fn parse(body: &str) -> Self {
        let mut snap = Self::default();
        for line in body.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let n = value.parse::<u64>().unwrap_or(0);
            match key {
                "served" => snap.served = n,
                "shed" => snap.shed = n,
                "panicked" => snap.panicked = n,
                "deadline_expired" => snap.deadline_expired = n,
                "malformed" => snap.malformed = n,
                "invalid" => snap.invalid = n,
                "eval_failed" => snap.eval_failed = n,
                "drained" => snap.drained = n,
                "connections_opened" => snap.connections_opened = n,
                "connections_panicked" => snap.connections_panicked = n,
                "cache_hits" => snap.cache_hits = n,
                "cache_misses" => snap.cache_misses = n,
                "queue_depth" => snap.queue_depth = n as usize,
                "draining" => snap.draining = n != 0,
                "worker_restarts" => snap.worker_restarts = n,
                "supervisor_gave_up" => snap.supervisor_gave_up = n != 0,
                "worker_stalls" => snap.worker_stalls = n,
                "conn_setup_failed" => snap.conn_setup_failed = n,
                "cache_recovered" => snap.cache_recovered = n,
                "cache_journal_failures" => snap.cache_journal_failures = n,
                _ => {}
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_render_and_parse() {
        // Every counter gets its own nonzero value, so a key that `render`
        // or `parse` swaps or drops changes the parsed snapshot.
        let health = ServerHealth::new();
        health.served.store(41, Ordering::Relaxed);
        health.shed.store(7, Ordering::Relaxed);
        health.panicked.store(2, Ordering::Relaxed);
        health.deadline_expired.store(8, Ordering::Relaxed);
        health.malformed.store(9, Ordering::Relaxed);
        health.invalid.store(11, Ordering::Relaxed);
        health.eval_failed.store(13, Ordering::Relaxed);
        health.drained.store(14, Ordering::Relaxed);
        health.connections_opened.store(15, Ordering::Relaxed);
        health.connections_panicked.store(16, Ordering::Relaxed);
        health.cache_hits.store(30, Ordering::Relaxed);
        health.cache_misses.store(10, Ordering::Relaxed);
        health.queue_depth.store(3, Ordering::Relaxed);
        health.draining.store(1, Ordering::Relaxed);
        health.worker_restarts.store(4, Ordering::Relaxed);
        health.supervisor_gave_up.store(1, Ordering::Relaxed);
        health.worker_stalls.store(17, Ordering::Relaxed);
        health.conn_setup_failed.store(5, Ordering::Relaxed);
        health.cache_recovered.store(12, Ordering::Relaxed);
        health.cache_journal_failures.store(6, Ordering::Relaxed);
        let snap = health.snapshot();
        let back = HealthSnapshot::parse(&snap.render());
        assert_eq!(back, snap);
        assert!(back.draining);
        assert!(back.supervisor_gave_up);
        assert_eq!(back.worker_restarts, 4);
        assert_eq!(back.cache_recovered, 12);
        assert!((back.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_of_an_untouched_cache_is_zero_not_nan() {
        let snap = ServerHealth::new().snapshot();
        assert_eq!(snap.cache_hit_rate(), 0.0);
        assert!(snap.render().contains("cache_hit_rate=0.0000"));
    }

    #[test]
    fn ema_tracks_service_time() {
        let health = ServerHealth::new();
        health.record_service_micros(800);
        assert_eq!(health.ema_service_micros.load(Ordering::Relaxed), 800);
        for _ in 0..64 {
            health.record_service_micros(100);
        }
        let ema = health.ema_service_micros.load(Ordering::Relaxed);
        assert!(ema < 200, "EMA converges toward recent samples, got {ema}");
    }

    #[test]
    fn parse_ignores_unknown_keys_and_garbage() {
        let snap = HealthSnapshot::parse("served=5\nfuture_counter=9\nnot a pair\n");
        assert_eq!(snap.served, 5);
        assert_eq!(snap.shed, 0);
    }
}
