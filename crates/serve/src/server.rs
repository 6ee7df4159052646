//! The server: accept loop, per-connection framing, worker pool, and
//! graceful drain.
//!
//! # Degradation ladder
//!
//! The server never falls over; it steps down a ladder of typed refusals:
//!
//! 1. **serve** — the request is admitted, evaluated under its deadline
//!    budget, cached, and answered.
//! 2. **shed** — the bounded queue is full; the request is refused
//!    *immediately* with `err overloaded queue_depth=… retry_after_ms=…`.
//!    No queue growth, no latency collapse.
//! 3. **drain** — a SIGTERM/ctrl-c (or `drain` query) cancels the drain
//!    token: the supervisor wakes the accept loop, which closes the
//!    connection that woke it unanswered and stops accepting; open
//!    connections are told `err draining`, admitted jobs finish or
//!    deadline out, workers exit, and the final health report is flushed.
//!    Exit code 0.
//!
//! # Isolation boundaries
//!
//! Two `catch_unwind` rings: one around each *connection handler* (a
//! framing bug cannot kill the accept loop) and one around each
//! *evaluation* in the worker pool (a poison query panics the evaluator,
//! the worker answers `err panic …` and takes the next job). Both feed
//! the [`ServerHealth`] counters.
//!
//! # Supervision
//!
//! Behind the isolation rings sits a supervisor thread that owns every
//! worker join handle. A worker thread that *exits* (a `kill_worker`
//! chaos query, or a panic that escapes the evaluation ring) is detected
//! within one poll interval and respawned into the same seat, up to
//! `worker_restart_budget` restarts across the server's lifetime; past
//! the budget the supervisor marks `supervisor_gave_up` in health and
//! stops replacing that seat. Each worker also publishes a heartbeat
//! epoch (odd while mid-job, even while idle) so the supervisor can
//! count — without killing — workers wedged inside one evaluation for
//! longer than the deadline plus slot grace (`worker_stalls`).
//!
//! The supervisor also owns the accept thread and is the one watcher of
//! the drain token, whatever cancelled it. The accept thread blocks in
//! `accept`; after a cancel the supervisor connects to the listener (on
//! loopback when it is bound to every interface) on each poll until that
//! thread has exited, so a lost wake delays the drain by a poll instead
//! of hanging it.

use crate::admission::{
    lock_unpoisoned, retry_after_ms, AdmissionQueue, AdmitError, Job, ResponseSlot,
};
use crate::cache::{try_recover_cache, ResponseCache};
use crate::health::{HealthSnapshot, ServerHealth};
use crate::protocol::{
    err_response, io_error, ok_response, try_decode_header, try_encode_frame, WireError,
    HEADER_BYTES, MAX_FRAME_BYTES,
};
use crate::query::{canonical_key, try_evaluate, try_parse_request, Query, QueryError};
use ppatc::eval::CancelToken;
use ppatc::{InterruptReason, PpatcError, RunBudget};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop pauses after an accept *error* (such as
/// `EMFILE`), so a persistent one cannot spin the blocking loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// Socket read timeout: the granularity at which connection threads
/// notice drains and frame deadlines.
const READ_POLL: Duration = Duration::from_millis(50);
/// Extra slack a connection thread waits past a request's deadline for
/// the worker to publish the deadline-exceeded response itself.
const SLOT_GRACE: Duration = Duration::from_secs(5);
/// How long `join` waits for straggler connections after the workers are
/// gone before giving up on them (they hold no queue slots and die with
/// the process).
const CONNECTION_LINGER: Duration = Duration::from_secs(10);
/// How often the supervisor polls worker liveness, heartbeats and the
/// drain token, and, once draining, re-sends the accept wake.
const SUPERVISOR_POLL: Duration = Duration::from_millis(50);
/// Response-cache shards.
const CACHE_SHARDS: usize = 8;
/// Response-cache entries per shard.
const CACHE_CAPACITY_PER_SHARD: usize = 256;

/// Server tuning knobs. `Default` suits tests and perfbench; the binary
/// maps its flags onto the fields.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = OS-assigned).
    pub addr: String,
    /// Evaluation worker threads.
    pub workers: usize,
    /// Admission-queue capacity (jobs waiting for a worker).
    pub queue_capacity: usize,
    /// Per-request wall-clock deadline (clients may lower it per request
    /// with `deadline_ms`, never raise it).
    pub request_deadline: Duration,
    /// A started frame must arrive completely within this window
    /// (slow-loris defense). Idle connections between frames are fine.
    pub frame_timeout: Duration,
    /// Whether the two chaos queries are honored instead of rejected as
    /// invalid: `poison` (panics the evaluator) and `kill_worker` (ends
    /// the worker thread that takes it, for the supervisor to respawn).
    pub enable_poison: bool,
    /// Worker respawns the supervisor will perform over the server's
    /// lifetime before declaring `supervisor_gave_up`.
    pub worker_restart_budget: usize,
    /// Path of the append-only cache journal. `Some` makes the response
    /// cache crash-safe: fresh inserts are written through, and a
    /// restarted server recovers the warm cache byte-identically.
    pub cache_journal: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            request_deadline: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(2),
            enable_poison: false,
            worker_restart_budget: 8,
            cache_journal: None,
        }
    }
}

/// Counts one live connection. Dropping it — even from a panicking
/// handler, or with the closure of a thread that never spawned — releases
/// the count and wakes a `join` waiting for stragglers.
struct ConnectionGuard(Arc<Shared>);

impl ConnectionGuard {
    fn new(shared: &Arc<Shared>) -> Self {
        *lock_unpoisoned(&shared.live_connections) += 1;
        Self(Arc::clone(shared))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.0.live_connections) -= 1;
        self.0.connection_closed.notify_all();
    }
}

/// Shared state every server thread sees.
struct Shared {
    config: ServerConfig,
    cancel: CancelToken,
    health: ServerHealth,
    queue: AdmissionQueue,
    cache: ResponseCache,
    /// Connection threads still running; `connection_closed` is notified
    /// each time one ends.
    live_connections: Mutex<usize>,
    connection_closed: Condvar,
    /// Per-seat worker heartbeat epochs: odd while a worker is mid-job,
    /// even while it waits for the next one.
    heartbeats: Vec<AtomicU64>,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::drain`] (or cancel the token) for an orderly stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Owns the accept thread and the workers; joining it joins them.
    supervisor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone of the drain token — cancel it (from a signal handler, a
    /// watchdog, or a test) to start the drain.
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// A point-in-time health snapshot.
    pub fn health(&self) -> HealthSnapshot {
        self.shared.health.snapshot()
    }

    /// Starts (or joins an already-started) drain and blocks until the
    /// accept loop, workers, and connections are done. Returns the final
    /// health report.
    pub fn drain(self) -> HealthSnapshot {
        self.shared.cancel.cancel();
        self.join()
    }

    /// Blocks until the server stops on its own (token cancelled
    /// externally, e.g. by a signal or a `drain` query). Returns the
    /// final health report.
    pub fn join(self) -> HealthSnapshot {
        let _ = self.supervisor.join();
        // Connections hold no queue slots; give stragglers a bounded
        // window to flush their `draining` responses and close.
        let live = lock_unpoisoned(&self.shared.live_connections);
        let _ = self
            .shared
            .connection_closed
            .wait_timeout_while(live, CONNECTION_LINGER, |live| *live > 0);
        self.shared.health.snapshot()
    }
}

/// Binds, spawns the accept loop, worker pool, and supervisor, and
/// returns the handle. With `cache_journal` set, the response cache is
/// first recovered from the journal (previously cached responses come
/// back byte-identical) and every fresh insert is written through.
///
/// # Errors
///
/// Any `std::io::Error` from binding the listener, plus journal recovery
/// failures (corruption before the tail, a journal from a different
/// cache geometry, or plain I/O) wrapped as `std::io::Error`.
pub fn try_spawn(config: ServerConfig) -> Result<ServerHandle, std::io::Error> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // The supervisor wakes the blocked accept by connecting to the
    // listener, on loopback when it is bound to every interface.
    let wake = match addr {
        SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
        bound => bound,
    };
    let health = ServerHealth::new();
    let cache = match &config.cache_journal {
        Some(path) => {
            let (cache, recovered) =
                try_recover_cache(path, CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD)
                    .map_err(std::io::Error::other)?;
            let recovered = u64::try_from(recovered).unwrap_or(u64::MAX);
            health.cache_recovered.store(recovered, Ordering::Relaxed);
            cache
        }
        None => ResponseCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
    };
    let worker_count = config.workers.max(1);
    let shared = Arc::new(Shared {
        cancel: CancelToken::new(),
        health,
        queue: AdmissionQueue::new(config.queue_capacity),
        cache,
        live_connections: Mutex::new(0),
        connection_closed: Condvar::new(),
        heartbeats: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
        config,
    });
    let seats = (0..worker_count)
        .map(|slot| spawn_worker(&shared, slot, 0).map(WorkerSeat::new))
        .collect::<Result<Vec<_>, _>>()?;
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ppatc-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ppatc-serve-supervisor".to_string())
            .spawn(move || supervisor_loop(&shared, seats, accept, wake))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        supervisor,
    })
}

/// Spawns the worker for `slot`; `generation` > 0 marks a respawn (it
/// shows in the thread name, which panics-to-stderr include).
fn spawn_worker(
    shared: &Arc<Shared>,
    slot: usize,
    generation: usize,
) -> Result<JoinHandle<()>, std::io::Error> {
    let shared = Arc::clone(shared);
    let name = if generation == 0 {
        format!("ppatc-serve-worker-{slot}")
    } else {
        format!("ppatc-serve-worker-{slot}r{generation}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared, slot))
}

/// One worker seat as the supervisor tracks it.
struct WorkerSeat {
    handle: Option<JoinHandle<()>>,
    /// Respawn generation (0 = the original spawn).
    generation: usize,
    /// Last heartbeat epoch observed for this seat.
    last_beat: u64,
    /// When `last_beat` last changed.
    last_change: Instant,
    /// Whether the current wedged episode was already counted.
    stall_flagged: bool,
}

impl WorkerSeat {
    fn new(handle: JoinHandle<()>) -> Self {
        Self {
            handle: Some(handle),
            generation: 0,
            last_beat: 0,
            last_change: Instant::now(),
            stall_flagged: false,
        }
    }
}

/// The supervisor: polls every worker seat, counts heartbeat stalls, and
/// respawns dead workers until the restart budget runs out. On drain it
/// stops respawning, wakes the accept thread by connecting to `wake` on
/// each poll until that thread has exited, and joins it and the
/// surviving workers (they exit once the queue runs dry).
fn supervisor_loop(
    shared: &Arc<Shared>,
    mut seats: Vec<WorkerSeat>,
    accept: JoinHandle<()>,
    wake: SocketAddr,
) {
    // A worker legitimately holds a job for up to the request deadline;
    // past deadline + grace the connection thread has already answered
    // for it, so from there on the worker counts as wedged.
    let stall_after = shared.config.request_deadline + SLOT_GRACE;
    let mut budget = shared.config.worker_restart_budget;
    while !(shared.cancel.is_cancelled() || shared.queue.is_draining()) {
        for (slot, seat) in seats.iter_mut().enumerate() {
            let Some(handle) = seat.handle.as_ref() else {
                continue; // seat abandoned: budget exhausted earlier
            };
            let beat = shared.heartbeats[slot].load(Ordering::Relaxed);
            if beat != seat.last_beat {
                seat.last_beat = beat;
                seat.last_change = Instant::now();
                seat.stall_flagged = false;
            } else if !seat.stall_flagged
                && beat % 2 == 1
                && seat.last_change.elapsed() > stall_after
                && !handle.is_finished()
            {
                // Odd epoch = mid-job. The worker is alive but has sat on
                // one evaluation past any deadline; observe, don't kill —
                // the evaluation ring still owns the cleanup.
                seat.stall_flagged = true;
                shared.health.worker_stalls.fetch_add(1, Ordering::Relaxed);
            }
            if !handle.is_finished() {
                continue;
            }
            // The thread exited. Re-check drain *after* observing the
            // exit: a drain-triggered exit must not count as a death.
            if shared.cancel.is_cancelled() || shared.queue.is_draining() {
                continue;
            }
            if let Some(done) = seat.handle.take() {
                let _ = done.join();
            }
            if budget == 0 {
                shared.health.supervisor_gave_up.store(1, Ordering::Relaxed);
                continue;
            }
            budget -= 1;
            seat.generation += 1;
            match spawn_worker(shared, slot, seat.generation) {
                Ok(handle) => {
                    shared
                        .health
                        .worker_restarts
                        .fetch_add(1, Ordering::Relaxed);
                    seat.handle = Some(handle);
                    seat.last_beat = shared.heartbeats[slot].load(Ordering::Relaxed);
                    seat.last_change = Instant::now();
                    seat.stall_flagged = false;
                }
                Err(_) => {
                    // Thread exhaustion: abandon the seat — the remaining
                    // workers keep the queue moving.
                    seat.handle = None;
                    shared.health.supervisor_gave_up.store(1, Ordering::Relaxed);
                }
            }
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
    // A wake can be lost (a refused or timed-out connect), so it is
    // repeated each poll rather than trusted once.
    while !accept.is_finished() {
        let _ = TcpStream::connect_timeout(&wake, SUPERVISOR_POLL);
        std::thread::sleep(SUPERVISOR_POLL);
    }
    let _ = accept.join();
    for seat in &mut seats {
        if let Some(handle) = seat.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Accepts connections, blocking in `accept`, until `accept` returns after
/// the drain token cancels (with the supervisor's wake, a client that lost
/// the race with the drain, or an error). A connection accepted then is
/// closed unanswered and uncounted, and the queue flips into drain mode
/// (workers exit once it runs dry).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.cancel.is_cancelled() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared
                    .health
                    .connections_opened
                    .fetch_add(1, Ordering::Relaxed);
                // On thread exhaustion the closure, guard included, is
                // dropped: the count is released and the client sees a
                // closed connection and retries.
                let guard = ConnectionGuard::new(shared);
                let _ = std::thread::Builder::new()
                    .name("ppatc-serve-conn".to_string())
                    .spawn(move || {
                        let shared = &guard.0;
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| handle_connection(stream, shared)));
                        if outcome.is_err() {
                            shared
                                .health
                                .connections_panicked
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    });
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    shared.health.draining.store(1, Ordering::Relaxed);
    shared.queue.drain();
}

/// Reads frames off one connection until close, drain, or a framing
/// violation.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // A connection that cannot get its frame clock has no slow-loris
    // defense: close it (the client reconnects) rather than serve it
    // unprotected. `set_nodelay` failing means the socket is already
    // broken (it is a no-op-capable hint on every healthy platform).
    if stream.set_read_timeout(Some(READ_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        shared
            .health
            .conn_setup_failed
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    loop {
        match read_frame_polled(&mut stream, shared) {
            FrameOutcome::Frame(payload) => {
                let response = process_request(&payload, shared);
                let frame = match try_encode_frame(&response, MAX_FRAME_BYTES) {
                    Ok(f) => f,
                    Err(_) => match try_encode_frame(
                        &err_response("eval_failed", &[("msg", "response too large".to_string())]),
                        MAX_FRAME_BYTES,
                    ) {
                        Ok(f) => f,
                        Err(_) => return,
                    },
                };
                if stream.write_all(&frame).is_err() {
                    return; // mid-response disconnect; nothing to salvage
                }
            }
            FrameOutcome::CleanClose | FrameOutcome::Disconnected => return,
            FrameOutcome::Draining => {
                let _ = write_error(&mut stream, "draining", &[]);
                return;
            }
            FrameOutcome::Malformed(wire) => {
                shared.health.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = write_error(&mut stream, "malformed", &[("msg", wire.to_string())]);
                return; // framing is no longer trustworthy
            }
        }
    }
}

/// Best-effort typed error write.
fn write_error(
    stream: &mut TcpStream,
    kind: &str,
    fields: &[(&str, String)],
) -> Result<(), WireError> {
    let frame = try_encode_frame(&err_response(kind, fields), MAX_FRAME_BYTES)?;
    stream.write_all(&frame).map_err(|e| io_error(&e))
}

/// What one polled frame read produced.
enum FrameOutcome {
    /// A complete, UTF-8 frame payload.
    Frame(String),
    /// EOF between frames.
    CleanClose,
    /// The peer vanished mid-frame or the socket failed.
    Disconnected,
    /// The server is draining and no frame had started.
    Draining,
    /// The frame violated the protocol (including the slow-loris
    /// timeout).
    Malformed(WireError),
}

/// Reads one frame with short poll reads so the thread can notice drains
/// while idle. The frame clock starts at the frame's first byte: a
/// connection may idle indefinitely *between* frames (unless draining),
/// but a started frame must complete within `frame_timeout`.
fn read_frame_polled(stream: &mut TcpStream, shared: &Arc<Shared>) -> FrameOutcome {
    let mut buf = Vec::with_capacity(HEADER_BYTES);
    let mut want = HEADER_BYTES;
    let mut payload_len: Option<usize> = None;
    let mut frame_deadline: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(deadline) = frame_deadline {
            if Instant::now() >= deadline {
                return FrameOutcome::Malformed(WireError::Timeout);
            }
        } else if shared.cancel.is_cancelled() {
            return FrameOutcome::Draining;
        }
        let take = (want - buf.len()).min(chunk.len());
        match stream.read(&mut chunk[..take]) {
            Ok(0) => {
                return if buf.is_empty() {
                    FrameOutcome::CleanClose
                } else {
                    FrameOutcome::Disconnected
                };
            }
            Ok(n) => {
                if frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + shared.config.frame_timeout);
                }
                buf.extend_from_slice(&chunk[..n]);
                if payload_len.is_none() && buf.len() == HEADER_BYTES {
                    let mut header = [0u8; HEADER_BYTES];
                    header.copy_from_slice(&buf);
                    match try_decode_header(&header, MAX_FRAME_BYTES) {
                        Ok(len) => {
                            payload_len = Some(len);
                            want = HEADER_BYTES + len;
                            buf.reserve(len);
                        }
                        Err(e) => return FrameOutcome::Malformed(e),
                    }
                }
                if let Some(len) = payload_len {
                    if buf.len() == HEADER_BYTES + len {
                        return match String::from_utf8(buf.split_off(HEADER_BYTES)) {
                            Ok(payload) => FrameOutcome::Frame(payload),
                            Err(_) => FrameOutcome::Malformed(WireError::NotUtf8),
                        };
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return FrameOutcome::Disconnected,
        }
    }
}

/// Dispatches one request payload to a response payload.
fn process_request(payload: &str, shared: &Arc<Shared>) -> String {
    let request = match try_parse_request(payload) {
        Ok(r) => r,
        Err(QueryError::Malformed { msg }) => {
            shared.health.malformed.fetch_add(1, Ordering::Relaxed);
            return err_response("malformed", &[("msg", msg)]);
        }
        Err(QueryError::Invalid { field, msg }) => {
            shared.health.invalid.fetch_add(1, Ordering::Relaxed);
            return err_response("invalid", &[("field", field.to_string()), ("msg", msg)]);
        }
    };
    match &request.query {
        Query::Ping => {
            shared.health.served.fetch_add(1, Ordering::Relaxed);
            ok_response("pong")
        }
        Query::Health => {
            shared.health.served.fetch_add(1, Ordering::Relaxed);
            ok_response(&shared.health.snapshot().render())
        }
        Query::Drain => {
            shared.health.served.fetch_add(1, Ordering::Relaxed);
            shared.cancel.cancel();
            ok_response("draining")
        }
        Query::Poison | Query::KillWorker if !shared.config.enable_poison => {
            shared.health.invalid.fetch_add(1, Ordering::Relaxed);
            err_response(
                "invalid",
                &[(
                    "msg",
                    "chaos queries are disabled (start with --enable-poison)".to_string(),
                )],
            )
        }
        Query::Poison | Query::KillWorker | Query::Eval(_) | Query::MonteCarlo { .. } => {
            dispatch_eval(request.query.clone(), request.deadline_ms, shared)
        }
    }
}

/// Cache-checks, admits, and awaits one evaluation query.
fn dispatch_eval(query: Query, deadline_ms: Option<u64>, shared: &Arc<Shared>) -> String {
    let canonical = canonical_key(&query);
    // Chaos queries are side effects, not computations: never cached.
    let cacheable = matches!(query, Query::Eval(_) | Query::MonteCarlo { .. });
    if cacheable {
        if let Some(hit) = shared.cache.get(&canonical, &shared.health) {
            shared.health.served.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
    }
    let now = Instant::now();
    let allowed = match deadline_ms {
        Some(ms) => shared
            .config
            .request_deadline
            .min(Duration::from_millis(ms)),
        None => shared.config.request_deadline,
    };
    let deadline = now + allowed;
    let slot = ResponseSlot::new();
    let job = Job {
        canonical,
        query,
        deadline,
        enqueued: now,
        slot: Arc::clone(&slot),
    };
    match shared.queue.try_admit(job) {
        Ok(()) => {
            shared
                .health
                .queue_depth
                .store(shared.queue.depth(), Ordering::Relaxed);
            match slot.wait_until(deadline + SLOT_GRACE) {
                Some(response) => response,
                None => {
                    // The worker is still wedged past deadline + grace —
                    // answer for it; its late fill lands in a dead slot.
                    shared
                        .health
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    err_response(
                        "deadline_exceeded",
                        &[("completed", "0".to_string()), ("total", "0".to_string())],
                    )
                }
            }
        }
        Err(AdmitError::Draining) => {
            shared.health.drained.fetch_add(1, Ordering::Relaxed);
            err_response("draining", &[])
        }
        Err(AdmitError::Overloaded { depth }) => {
            shared.health.shed.fetch_add(1, Ordering::Relaxed);
            let hint = retry_after_ms(
                depth,
                shared.config.workers,
                shared.health.ema_service_micros.load(Ordering::Relaxed),
            );
            err_response(
                "overloaded",
                &[
                    ("queue_depth", depth.to_string()),
                    ("retry_after_ms", hint.to_string()),
                ],
            )
        }
    }
}

/// The worker loop: take a job, evaluate it inside the panic-isolation
/// ring under its deadline budget, publish the response, update health.
/// The heartbeat epoch for `slot` is odd while a job is held and even
/// while waiting, so the supervisor can tell wedged from idle.
fn worker_loop(shared: &Arc<Shared>, slot: usize) {
    while let Some(job) = shared.queue.take() {
        shared.heartbeats[slot].fetch_add(1, Ordering::Relaxed);
        shared
            .health
            .queue_depth
            .store(shared.queue.depth(), Ordering::Relaxed);
        if matches!(job.query, Query::KillWorker) {
            // Chaos: answer, then exit the thread. The supervisor notices
            // the death and respawns this seat.
            shared.health.served.fetch_add(1, Ordering::Relaxed);
            job.slot.fill(ok_response("worker_killed"));
            shared.heartbeats[slot].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let started = Instant::now();
        let response = if started >= job.deadline {
            // Expired while queued: report zero progress, skip evaluation.
            shared
                .health
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            err_response(
                "deadline_exceeded",
                &[
                    ("completed", "0".to_string()),
                    ("total", "0".to_string()),
                    ("queued_ms", job.enqueued.elapsed().as_millis().to_string()),
                ],
            )
        } else {
            let budget = RunBudget::unlimited()
                .with_cancel(&shared.cancel)
                .with_deadline(job.deadline);
            match catch_unwind(AssertUnwindSafe(|| try_evaluate(&job.query, &budget))) {
                Ok(Ok(body)) => {
                    let response = ok_response(&body);
                    if !shared.cache.insert(&job.canonical, &response) {
                        // The in-memory insert stands; only the journal
                        // write-through failed. Serving continues warm but
                        // a restart will not recover this entry.
                        shared
                            .health
                            .cache_journal_failures
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    shared.health.served.fetch_add(1, Ordering::Relaxed);
                    response
                }
                Ok(Err(error)) => render_eval_error(&error, shared),
                Err(_) => {
                    shared.health.panicked.fetch_add(1, Ordering::Relaxed);
                    err_response(
                        "panic",
                        &[("msg", "evaluator panicked; request isolated".to_string())],
                    )
                }
            }
        };
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        shared.health.record_service_micros(micros);
        job.slot.fill(response);
        shared.heartbeats[slot].fetch_add(1, Ordering::Relaxed);
    }
}

/// Maps a typed evaluation error onto the wire and the health counters.
fn render_eval_error(error: &PpatcError, shared: &Arc<Shared>) -> String {
    match error {
        PpatcError::Interrupted {
            reason: InterruptReason::DeadlineExpired,
            completed,
            total,
        } => {
            shared
                .health
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            let done: usize = completed.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
            err_response(
                "deadline_exceeded",
                &[
                    ("completed", done.to_string()),
                    ("total", total.to_string()),
                ],
            )
        }
        PpatcError::Interrupted {
            reason: InterruptReason::Cancelled,
            completed,
            total,
        } => {
            shared.health.drained.fetch_add(1, Ordering::Relaxed);
            let done: usize = completed.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
            err_response(
                "draining",
                &[
                    ("completed", done.to_string()),
                    ("total", total.to_string()),
                ],
            )
        }
        PpatcError::Interrupted { .. } => {
            // Future interrupt reasons degrade to a generic eval failure.
            shared.health.eval_failed.fetch_add(1, Ordering::Relaxed);
            err_response("eval_failed", &[("msg", error.to_string())])
        }
        PpatcError::Validation(v) => {
            shared.health.invalid.fetch_add(1, Ordering::Relaxed);
            err_response(
                "invalid",
                &[("field", v.field.to_string()), ("msg", v.to_string())],
            )
        }
        PpatcError::WorkerPanic { index } => {
            shared.health.panicked.fetch_add(1, Ordering::Relaxed);
            err_response(
                "panic",
                &[("msg", format!("sample {index} panicked inside the sweep"))],
            )
        }
        other => {
            shared.health.eval_failed.fetch_add(1, Ordering::Relaxed);
            err_response("eval_failed", &[("msg", other.to_string())])
        }
    }
}
