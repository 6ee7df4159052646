//! Load and chaos harness for `ppatc-serve`, writing `BENCH_serve.json`.
//!
//! Replays a deterministic mix of synthetic traffic against an in-process
//! server: well-formed evaluation queries (mostly cache-friendly, some
//! cold), malformed frames, slow-loris partial writes, mid-request
//! disconnects, and poison queries that panic inside the evaluator. A
//! second phase drains the server mid-load (the in-process equivalent of
//! SIGTERM) and verifies the shutdown stays graceful. A final resilience
//! phase drives retry/backoff clients through a deterministic transport
//! fault plan while `kill_worker` queries assassinate worker threads,
//! then kills the server and restarts it on its cache journal, requiring
//! zero unanswered requests, at least one supervised worker respawn, and
//! byte-identical recovered responses.
//!
//! ```text
//! cargo run --release -p ppatc-bench --bin serve_bench
//! ```
//!
//! It takes no arguments: every phase runs one fixed shape (the constants
//! below), so `BENCH_serve.json` compares the same server on every host.
//! It is a chaos gate first; its latencies are a side output, and the
//! pipeline's timings of record come from perfbench (`BENCH_pipeline.json`).
//!
//! Exit codes: 0 on a clean run, 1 if any panic escaped a request
//! boundary, a repeated query was not byte-identical, the drain phase
//! failed to shut down gracefully, or the resilience phase left a
//! request unanswered / failed to recover the cache byte-identically.

use ppatc_serve::client::ServeClient;
use ppatc_serve::fault::{FaultPlan, FaultSpec};
use ppatc_serve::protocol::MAGIC;
use ppatc_serve::resilient::{ResilientClient, RetryPolicy};
use ppatc_serve::server::{try_spawn, ServerConfig};
use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// The fixed shape of every run. The load phase runs `LOAD_CLIENTS`
// clients of `LOAD_REQUESTS_PER_CLIENT` requests each, and the drain phase
// as many clients; both servers have `WORKERS` workers and a queue of
// `QUEUE_CAPACITY`, and the load server a `REQUEST_DEADLINE`. The overload
// burst and the resilience phase have clients and requests of their own.
const LOAD_CLIENTS: usize = 4;
const LOAD_REQUESTS_PER_CLIENT: usize = 750;
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
const BURST_CLIENTS: usize = 16;
const BURST_REQUESTS_PER_CLIENT: usize = 8;
const RESILIENCE_CLIENTS: usize = 3;
const RESILIENCE_REQUESTS_PER_CLIENT: usize = 30;

/// Connect/read/write timeout for harness clients. Generous: the harness
/// must never wedge even when the server sheds or drains under it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Slow-loris window configured on the load-phase server. Short so the
/// handful of deliberate loris events cost milliseconds, not seconds.
const FRAME_TIMEOUT: Duration = Duration::from_millis(100);

/// Deliberate slow-loris events per client (each costs ~`FRAME_TIMEOUT`
/// of wall clock, so they are a fixed count rather than a traffic share).
const LORIS_PER_CLIENT: usize = 3;

/// The cache-friendly query pool. Every client replays these; responses
/// must be byte-identical across all clients and repetitions.
const POOL: &[&str] = &[
    "ping",
    "eval",
    "eval capacity_kb=16",
    "eval capacity_kb=16 f_clk_mhz=700",
    "eval capacity_kb=32 ci_g_per_kwh=50",
    "mc samples=64 seed=7",
    "mc samples=64 seed=7 capacity_kb=16",
];

/// Deterministic per-client PRNG (64-bit LCG, Knuth constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Per-client outcome tally, merged across clients at the end.
#[derive(Debug, Default)]
struct Tally {
    ok: u64,
    shed: u64,
    deadline_exceeded: u64,
    panic: u64,
    malformed: u64,
    invalid: u64,
    draining: u64,
    eval_failed: u64,
    other_err: u64,
    reconnects: u64,
    mismatches: u64,
    loris_events: u64,
    disconnect_events: u64,
    malformed_frames: u64,
    poison_queries: u64,
    latencies_micros: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.panic += other.panic;
        self.malformed += other.malformed;
        self.invalid += other.invalid;
        self.draining += other.draining;
        self.eval_failed += other.eval_failed;
        self.other_err += other.other_err;
        self.reconnects += other.reconnects;
        self.mismatches += other.mismatches;
        self.loris_events += other.loris_events;
        self.disconnect_events += other.disconnect_events;
        self.malformed_frames += other.malformed_frames;
        self.poison_queries += other.poison_queries;
        self.latencies_micros.extend(other.latencies_micros);
    }

    fn classify(&mut self, kind: &str, ok: bool) {
        if ok {
            self.ok += 1;
            return;
        }
        match kind {
            "overloaded" => self.shed += 1,
            "deadline_exceeded" => self.deadline_exceeded += 1,
            "panic" => self.panic += 1,
            "malformed" => self.malformed += 1,
            "invalid" => self.invalid += 1,
            "draining" => self.draining += 1,
            "eval_failed" => self.eval_failed += 1,
            _ => self.other_err += 1,
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn reconnect(addr: std::net::SocketAddr) -> Option<ServeClient> {
    ServeClient::try_connect(addr, CLIENT_TIMEOUT).ok()
}

/// One load-phase client: replays its request share, injecting chaos at
/// deterministic points, comparing pool responses against the shared
/// reference for byte-identity.
#[allow(clippy::too_many_lines)]
fn client_loop(
    id: usize,
    addr: std::net::SocketAddr,
    reference: &Mutex<HashMap<String, String>>,
) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15 ^ (id as u64).wrapping_mul(0xdead_beef));
    let mut client = match reconnect(addr) {
        Some(c) => c,
        None => return tally,
    };
    // Loris events spread across the run at fixed indices.
    let loris_stride = (LOAD_REQUESTS_PER_CLIENT / (LORIS_PER_CLIENT + 1)).max(1);
    for i in 0..LOAD_REQUESTS_PER_CLIENT {
        // -- chaos: slow-loris partial write, then stall past the window.
        if LORIS_PER_CLIENT > 0
            && i > 0
            && i % loris_stride == 0
            && i / loris_stride <= LORIS_PER_CLIENT
        {
            tally.loris_events += 1;
            let _ = client.stream().write_all(&MAGIC[..2]);
            std::thread::sleep(FRAME_TIMEOUT + Duration::from_millis(50));
            // The server answers `err malformed msg=...timeout...` and
            // closes; drain the answer best-effort, then reconnect.
            let _ = client.try_request_raw("");
            tally.reconnects += 1;
            match reconnect(addr) {
                Some(c) => client = c,
                None => break,
            }
            continue;
        }
        let draw = rng.below(100);
        // -- chaos: mid-request disconnect (half a header, then vanish).
        if draw < 2 {
            tally.disconnect_events += 1;
            let _ = client.stream().write_all(&MAGIC[..3]);
            tally.reconnects += 1;
            match reconnect(addr) {
                Some(c) => client = c,
                None => break,
            }
            continue;
        }
        // -- chaos: malformed frame (wrong magic).
        if draw < 5 {
            tally.malformed_frames += 1;
            let _ = client.stream().write_all(b"XXXX\x00\x00\x00\x04junk");
            match client.try_request_raw("") {
                Ok(payload) if payload.starts_with("err malformed") => tally.malformed += 1,
                _ => tally.other_err += 1,
            }
            tally.reconnects += 1;
            match reconnect(addr) {
                Some(c) => client = c,
                None => break,
            }
            continue;
        }
        // -- the request mix proper.
        let owned: String;
        let line: &str = if draw < 9 {
            tally.poison_queries += 1;
            "poison"
        } else if draw < 15 {
            // Cold Monte-Carlo points: rotate seeds through a small space
            // so some repeat (cache hits) and some are first-seen (real
            // work that can back the queue up into shedding).
            owned = format!("mc samples=256 seed={}", rng.below(64));
            &owned
        } else if draw < 17 {
            "eval capacity_kb=63" // odd capacity: structured invalid
        } else {
            POOL[(i + id) % POOL.len()]
        };
        let started = Instant::now();
        match client.try_request_raw(line) {
            Ok(payload) => {
                let micros = started.elapsed().as_micros() as u64;
                tally.latencies_micros.push(micros);
                let ok = payload.starts_with("ok");
                let kind = if ok {
                    ""
                } else {
                    payload
                        .strip_prefix("err ")
                        .unwrap_or("")
                        .split_whitespace()
                        .next()
                        .unwrap_or("")
                };
                tally.classify(kind, ok);
                // Byte-identity across every client and repetition for
                // pool queries (they are pure and cacheable).
                if ok && POOL.contains(&line) {
                    let mut seen = reference.lock().expect("reference lock");
                    match seen.get(line) {
                        Some(first) if *first != payload => tally.mismatches += 1,
                        Some(_) => {}
                        None => {
                            seen.insert(line.to_string(), payload);
                        }
                    }
                }
            }
            Err(_) => {
                tally.reconnects += 1;
                match reconnect(addr) {
                    Some(c) => client = c,
                    None => break,
                }
            }
        }
    }
    tally
}

/// Overload burst: a deliberately undersized server (one worker, tiny
/// queue) hit by many concurrent clients with cold Monte-Carlo points.
/// Admission control must shed with `overloaded` + a retry hint instead
/// of queueing without bound; nothing may crash or hang.
fn burst_phase() -> (u64, u64, u64, bool) {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let handle = match try_spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve_bench: burst-phase server failed to start: {e}");
            return (0, 0, 0, false);
        }
    };
    let addr = handle.addr();
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut hinted = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..BURST_CLIENTS {
            joins.push(scope.spawn(move || {
                let mut answered = 0u64;
                let mut shed = 0u64;
                let mut hinted = 0u64;
                let Some(mut client) = reconnect(addr) else {
                    return (answered, shed, hinted);
                };
                for i in 0..BURST_REQUESTS_PER_CLIENT {
                    // Unique cold point per (client, i): always a cache
                    // miss, so the single worker is the bottleneck.
                    let seed = id * BURST_REQUESTS_PER_CLIENT + i + 1_000;
                    let q = format!("mc samples=8192 seed={seed}");
                    match client.try_request(&q) {
                        Ok(resp) => {
                            answered += 1;
                            if !resp.ok && resp.kind == "overloaded" {
                                shed += 1;
                                if resp
                                    .field("retry_after_ms")
                                    .and_then(|v| v.parse::<u64>().ok())
                                    .is_some_and(|ms| ms >= 1)
                                {
                                    hinted += 1;
                                }
                            }
                        }
                        Err(_) => match reconnect(addr) {
                            Some(c) => client = c,
                            None => break,
                        },
                    }
                }
                (answered, shed, hinted)
            }));
        }
        for join in joins {
            if let Ok((a, s, h)) = join.join() {
                answered += a;
                shed += s;
                hinted += h;
            }
        }
    });
    let report = handle.drain();
    (answered, shed, hinted, report.connections_panicked == 0)
}

/// Phase 2: drain mid-load. Clients hammer the pool; the main thread
/// cancels the server (the in-process stand-in for SIGTERM) and every
/// client must wind down with a typed `draining` response or a clean
/// close — never a hang, never an escaped panic.
fn drain_phase() -> (Tally, ppatc_serve::HealthSnapshot, bool) {
    /// Safety cap so a drain that never lands cannot spin forever.
    const MAX_REQUESTS_PER_CLIENT: usize = 1_000_000;
    let config = ServerConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        ..ServerConfig::default()
    };
    let handle = match try_spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve_bench: drain-phase server failed to start: {e}");
            return (
                Tally::default(),
                ppatc_serve::HealthSnapshot::parse(""),
                false,
            );
        }
    };
    let addr = handle.addr();
    let token = handle.cancel_token();
    let drained = AtomicBool::new(false);
    let mut merged = Tally::default();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..LOAD_CLIENTS {
            let drained = &drained;
            joins.push(scope.spawn(move || {
                let mut tally = Tally::default();
                let Some(mut client) = reconnect(addr) else {
                    return tally;
                };
                for i in 0..MAX_REQUESTS_PER_CLIENT {
                    match client.try_request(POOL[(i + id) % POOL.len()]) {
                        Ok(resp) if resp.ok => tally.ok += 1,
                        Ok(resp) => {
                            tally.classify(&resp.kind, false);
                            if resp.kind == "draining" {
                                break;
                            }
                        }
                        Err(_) => {
                            // Connection torn down. Expected once the
                            // drain started; a fresh connect must fail
                            // or at least never be served.
                            if drained.load(Ordering::Relaxed) {
                                break;
                            }
                            tally.reconnects += 1;
                            match reconnect(addr) {
                                Some(c) => client = c,
                                None => break,
                            }
                        }
                    }
                }
                tally
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        drained.store(true, Ordering::Relaxed);
        token.cancel();
        for join in joins {
            if let Ok(tally) = join.join() {
                merged.merge(tally);
            }
        }
    });
    let started = Instant::now();
    let report = handle.join();
    let graceful = started.elapsed() < Duration::from_secs(30) && report.connections_panicked == 0;
    (merged, report, graceful)
}

/// Cacheable query pool for the resilience phase: warmed fault-free
/// before the chaos starts, and required to come back byte-identical
/// from the recovered cache after the kill/restart.
const RESILIENCE_POOL: &[&str] = &[
    "eval capacity_kb=16",
    "eval capacity_kb=16 f_clk_mhz=700",
    "eval capacity_kb=32 ci_g_per_kwh=50",
    "mc samples=64 seed=11",
    "mc samples=64 seed=12 capacity_kb=16",
];

/// Root seed for the resilience phase. Every fault plan and every retry
/// jitter stream derives from it, so the injected schedule is a pure
/// function of this constant.
const RESILIENCE_SEED: u64 = 0xc0ff_ee11;

/// Per-client retry budget for the resilience phase: effectively
/// unlimited, so the only way a request ends unanswered is a genuine
/// loss of service rather than an artificial accounting cap.
const RESILIENCE_RETRY_BUDGET: u64 = 1_000_000;

/// Fault-injection intensity, per mille of frames, for each of the
/// disconnect, corrupt-magic, and truncate faults (delays run at half).
const RESILIENCE_FAULT_PER_MILLE: u64 = 100;

/// Deterministic (client, request-index) points where a `kill_worker`
/// chaos query rides the stream, forcing supervised worker respawns.
const KILL_POINTS: &[(usize, usize)] = &[(0, 5), (1, 11)];

/// Outcome tally for the resilience phase, merged across its clients.
#[derive(Debug, Default)]
struct ResilienceTally {
    requests: u64,
    ok: u64,
    typed_err: u64,
    unanswered: u64,
    attempts: u64,
    wire_replays: u64,
    overload_retries: u64,
    connects: u64,
    backoff_ms_total: u64,
    injected_disconnects: u64,
    injected_corrupted: u64,
    injected_truncated: u64,
    injected_delays: u64,
    kills_sent: u64,
}

impl ResilienceTally {
    fn merge(&mut self, other: &ResilienceTally) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.typed_err += other.typed_err;
        self.unanswered += other.unanswered;
        self.attempts += other.attempts;
        self.wire_replays += other.wire_replays;
        self.overload_retries += other.overload_retries;
        self.connects += other.connects;
        self.backoff_ms_total += other.backoff_ms_total;
        self.injected_disconnects += other.injected_disconnects;
        self.injected_corrupted += other.injected_corrupted;
        self.injected_truncated += other.injected_truncated;
        self.injected_delays += other.injected_delays;
        self.kills_sent += other.kills_sent;
    }
}

/// Phase 4: resilience. Fault-injected retry clients hammer a
/// journal-backed server while `kill_worker` queries assassinate worker
/// threads mid-stream; afterwards the server is stopped, the journal's
/// final line is deliberately torn (as a kill mid-append would), and a
/// fresh server recovers the cache and must answer the warmed pool
/// byte-identically. Returns the phase's JSON object and its clean flag.
#[allow(clippy::too_many_lines)]
fn resilience_phase() -> (String, bool) {
    let journal = std::env::temp_dir().join(format!(
        "ppatc-serve-bench-journal-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let config = ServerConfig {
        workers: 2,
        enable_poison: true,
        cache_journal: Some(journal.clone()),
        ..ServerConfig::default()
    };
    let handle = match try_spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve_bench: resilience-phase server failed to start: {e}");
            return ("null".to_string(), false);
        }
    };
    let addr = handle.addr();

    // Warm the cache fault-free and capture the reference bytes.
    let mut reference: Vec<String> = Vec::new();
    if let Some(mut client) = reconnect(addr) {
        for q in RESILIENCE_POOL {
            match client.try_request_raw(q) {
                Ok(payload) => reference.push(payload),
                Err(e) => {
                    eprintln!("serve_bench: resilience warm-up failed on {q}: {e}");
                    break;
                }
            }
        }
    }
    if reference.len() != RESILIENCE_POOL.len() {
        handle.drain();
        return ("null".to_string(), false);
    }

    let mut tally = ResilienceTally::default();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..RESILIENCE_CLIENTS {
            joins.push(scope.spawn(move || {
                let mut part = ResilienceTally::default();
                let spec = FaultSpec {
                    seed: RESILIENCE_SEED ^ (id as u64 + 1),
                    disconnect_per_mille: RESILIENCE_FAULT_PER_MILLE,
                    corrupt_per_mille: RESILIENCE_FAULT_PER_MILLE,
                    truncate_per_mille: RESILIENCE_FAULT_PER_MILLE,
                    delay_per_mille: RESILIENCE_FAULT_PER_MILLE / 2,
                    max_delay_ms: 3,
                };
                let policy = RetryPolicy {
                    max_attempts: 16,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(50),
                    retry_budget: RESILIENCE_RETRY_BUDGET,
                    circuit_failure_threshold: 50,
                    circuit_cooldown: Duration::from_millis(100),
                    connect_timeout: Duration::from_secs(5),
                    request_timeout: Some(CLIENT_TIMEOUT),
                    seed: RESILIENCE_SEED.wrapping_add(id as u64),
                };
                let mut client = ResilientClient::new(addr.to_string(), policy)
                    .with_fault_plan(FaultPlan::new(spec));
                for i in 0..RESILIENCE_REQUESTS_PER_CLIENT {
                    let line = if KILL_POINTS.contains(&(id, i)) {
                        part.kills_sent += 1;
                        "kill_worker"
                    } else if i % 7 == 0 {
                        "ping"
                    } else {
                        RESILIENCE_POOL[(i + id) % RESILIENCE_POOL.len()]
                    };
                    part.requests += 1;
                    match client.try_request(line) {
                        Ok(resp) if resp.ok => part.ok += 1,
                        Ok(_) => part.typed_err += 1,
                        Err(e) => {
                            part.unanswered += 1;
                            eprintln!(
                                "serve_bench: resilience client {id} request {i} \
                                 ({line}) unanswered: {e}"
                            );
                        }
                    }
                }
                let stats = client.stats();
                part.attempts = stats.attempts;
                part.wire_replays = stats.wire_replays;
                part.overload_retries = stats.overload_retries;
                part.connects = stats.connects;
                part.backoff_ms_total = stats.backoff_ms_total;
                let counts = client.fault_counts();
                part.injected_disconnects = counts.disconnects;
                part.injected_corrupted = counts.corrupted;
                part.injected_truncated = counts.truncated;
                part.injected_delays = counts.delays;
                part
            }));
        }
        for join in joins {
            if let Ok(part) = join.join() {
                tally.merge(&part);
            }
        }
    });

    // Every kill point must have produced a supervised respawn before we
    // read the final health block (the supervisor polls every 50 ms, so
    // the last death can land just after the last client finishes).
    let kill_total = KILL_POINTS.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.health().worker_restarts < kill_total && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let report_a = handle.drain();

    // Tear the journal's final line, as a kill mid-append would: the
    // recovery path must skip exactly this tail and nothing else.
    if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(&journal) {
        let _ = write!(file, "e 5 7 68656");
    }

    // Restart on the same journal (same default cache geometry) and
    // require byte-identical answers for the warmed pool.
    let restart_config = ServerConfig {
        cache_journal: Some(journal.clone()),
        ..ServerConfig::default()
    };
    let (recovered, recovery_mismatches, restart_hits, restarted) = match try_spawn(restart_config)
    {
        Ok(handle) => {
            let recovered = handle.health().cache_recovered;
            let mut mismatches = 0u64;
            match reconnect(handle.addr()) {
                Some(mut client) => {
                    for (q, want) in RESILIENCE_POOL.iter().zip(&reference) {
                        match client.try_request_raw(q) {
                            Ok(got) if got == *want => {}
                            _ => mismatches += 1,
                        }
                    }
                }
                None => mismatches = RESILIENCE_POOL.len() as u64,
            }
            let report_b = handle.drain();
            (recovered, mismatches, report_b.cache_hits, true)
        }
        Err(e) => {
            eprintln!("serve_bench: restart on the recovered journal failed: {e}");
            (0, RESILIENCE_POOL.len() as u64, 0, false)
        }
    };
    let _ = std::fs::remove_file(&journal);

    let pool_len = RESILIENCE_POOL.len() as u64;
    let clean = restarted
        && tally.unanswered == 0
        && report_a.worker_restarts >= 1
        && !report_a.supervisor_gave_up
        && report_a.connections_panicked == 0
        && report_a.cache_journal_failures == 0
        && recovered >= pool_len
        && recovery_mismatches == 0
        && restart_hits >= pool_len;
    let json = format!(
        r#"{{
    "clients": {RESILIENCE_CLIENTS},
    "requests_per_client": {RESILIENCE_REQUESTS_PER_CLIENT},
    "fault_seed": {RESILIENCE_SEED},
    "fault_per_mille": {{ "disconnect": {RESILIENCE_FAULT_PER_MILLE}, "corrupt_magic": {RESILIENCE_FAULT_PER_MILLE}, "truncate": {RESILIENCE_FAULT_PER_MILLE}, "delay": {} }},
    "requests": {},
    "answered_ok": {},
    "typed_errors": {},
    "unanswered": {},
    "attempts": {},
    "wire_replays": {},
    "overload_retries": {},
    "reconnects": {},
    "backoff_ms_total": {},
    "injected": {{ "disconnects": {}, "corrupt_magic": {}, "truncated": {}, "delays": {} }},
    "worker_kills_sent": {},
    "worker_restarts": {},
    "supervisor_gave_up": {},
    "cache_journal_failures": {},
    "kill_restart_recovery": {{
      "journal_recovered_entries": {recovered},
      "torn_tail_injected": true,
      "pool_queries_compared": {pool_len},
      "byte_mismatches": {recovery_mismatches},
      "post_restart_cache_hits": {restart_hits}
    }},
    "clean": {clean}
  }}"#,
        RESILIENCE_FAULT_PER_MILLE / 2,
        tally.requests,
        tally.ok,
        tally.typed_err,
        tally.unanswered,
        tally.attempts,
        tally.wire_replays,
        tally.overload_retries,
        tally.connects,
        tally.backoff_ms_total,
        tally.injected_disconnects,
        tally.injected_corrupted,
        tally.injected_truncated,
        tally.injected_delays,
        tally.kills_sent,
        report_a.worker_restarts,
        report_a.supervisor_gave_up,
        report_a.cache_journal_failures,
    );
    (json, clean)
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: serve_bench (it takes no arguments)");
        return ExitCode::FAILURE;
    }

    // Poison queries panic by design; keep stderr readable. Escaped
    // panics are still caught by the health counters and the exit code.
    std::panic::set_hook(Box::new(|_| {}));

    let config = ServerConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        request_deadline: REQUEST_DEADLINE,
        frame_timeout: FRAME_TIMEOUT,
        enable_poison: true,
        ..ServerConfig::default()
    };
    let handle = match try_spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve_bench: server failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    eprintln!(
        "serve_bench: load phase — {LOAD_CLIENTS} clients x {LOAD_REQUESTS_PER_CLIENT} \
         requests, {WORKERS} workers, queue {QUEUE_CAPACITY}, on {addr}"
    );

    let reference = Mutex::new(HashMap::new());
    let started = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..LOAD_CLIENTS {
            let reference = &reference;
            joins.push(scope.spawn(move || client_loop(id, addr, reference)));
        }
        for join in joins {
            if let Ok(t) = join.join() {
                tally.merge(t);
            }
        }
    });
    let load_secs = started.elapsed().as_secs_f64();
    let report = handle.drain();

    tally.latencies_micros.sort_unstable();
    let p50 = percentile(&tally.latencies_micros, 0.50);
    let p99 = percentile(&tally.latencies_micros, 0.99);
    let max = tally.latencies_micros.last().copied().unwrap_or(0);
    let answered = tally.latencies_micros.len() as u64;
    // A shed is an answered frame, so `shed` is 0 whenever `answered` is.
    let shed_rate = tally.shed as f64 / answered.max(1) as f64;
    let throughput = if load_secs > 0.0 {
        answered as f64 / load_secs
    } else {
        0.0
    };

    eprintln!("serve_bench: burst phase — 1 worker, queue 2, expect load shedding");
    let (burst_answered, burst_shed, burst_hinted, burst_clean) = burst_phase();
    let burst_shed_rate = burst_shed as f64 / burst_answered.max(1) as f64;

    eprintln!("serve_bench: drain phase — cancel mid-load, expect graceful wind-down");
    let (drain_tally, drain_report, graceful) = drain_phase();

    eprintln!(
        "serve_bench: resilience phase — fault-injected transport, worker kills, \
         kill/restart cache recovery"
    );
    let (resilience_json, resilience_clean) = resilience_phase();

    let escaped = report.connections_panicked + drain_report.connections_panicked;
    let clean = escaped == 0
        && tally.mismatches == 0
        && graceful
        && burst_clean
        && burst_shed > 0
        && resilience_clean;
    let json = format!(
        r#"{{
  "benchmark": "ppatc-serve load + chaos harness",
  "command": "cargo run --release -p ppatc-bench --bin serve_bench",
  "methodology": "deterministic per-client LCG traffic mix against an in-process server; latencies cover every answered frame (ok or typed error); chaos events (malformed frames, slow-loris stalls, mid-request disconnects, poison panics) ride inline with the load",
  "config": {{
    "clients": {LOAD_CLIENTS},
    "requests_per_client": {LOAD_REQUESTS_PER_CLIENT},
    "workers": {WORKERS},
    "queue_capacity": {QUEUE_CAPACITY},
    "request_deadline_secs": {:.3},
    "frame_timeout_ms": {}
  }},
  "latency_micros": {{
    "answered_frames": {answered},
    "p50": {p50},
    "p99": {p99},
    "max": {max},
    "throughput_per_sec": {throughput:.0},
    "load_wall_secs": {load_secs:.2}
  }},
  "outcomes": {{
    "ok": {},
    "shed": {},
    "shed_rate": {shed_rate:.4},
    "deadline_exceeded": {},
    "panic_isolated": {},
    "malformed": {},
    "invalid": {},
    "eval_failed": {},
    "other_err": {},
    "reconnects": {}
  }},
  "chaos_events": {{
    "slow_loris_stalls": {},
    "mid_request_disconnects": {},
    "malformed_frames": {},
    "poison_queries": {}
  }},
  "server_health_final": {{
    "served": {},
    "shed": {},
    "panicked": {},
    "deadline_expired": {},
    "malformed": {},
    "invalid": {},
    "connections_opened": {},
    "connections_panicked": {},
    "cache_hit_rate": {:.4}
  }},
  "burst_phase": {{
    "clients": {BURST_CLIENTS},
    "requests_per_client": {BURST_REQUESTS_PER_CLIENT},
    "server": "1 worker, queue capacity 2",
    "answered": {burst_answered},
    "shed": {burst_shed},
    "shed_rate": {burst_shed_rate:.4},
    "retry_hints_present": {burst_hinted},
    "graceful": {burst_clean}
  }},
  "drain_phase": {{
    "clients": {LOAD_CLIENTS},
    "served_before_drain": {},
    "draining_responses": {},
    "graceful": {graceful},
    "connections_panicked": {}
  }},
  "resilience_phase": {resilience_json},
  "determinism": {{
    "pool_queries_compared": {},
    "byte_mismatches": {}
  }},
  "clean": {clean}
}}"#,
        REQUEST_DEADLINE.as_secs_f64(),
        FRAME_TIMEOUT.as_millis(),
        tally.ok,
        tally.shed,
        tally.deadline_exceeded,
        tally.panic,
        tally.malformed,
        tally.invalid,
        tally.eval_failed,
        tally.other_err,
        tally.reconnects,
        tally.loris_events,
        tally.disconnect_events,
        tally.malformed_frames,
        tally.poison_queries,
        report.served,
        report.shed,
        report.panicked,
        report.deadline_expired,
        report.malformed,
        report.invalid,
        report.connections_opened,
        report.connections_panicked,
        report.cache_hit_rate(),
        drain_tally.ok,
        drain_tally.draining,
        drain_report.connections_panicked,
        reference.lock().map(|m| m.len()).unwrap_or(0),
        tally.mismatches,
    );
    if let Err(e) = std::fs::write("BENCH_serve.json", format!("{json}\n")) {
        eprintln!("failed to write BENCH_serve.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json}");
    if !clean {
        eprintln!(
            "serve_bench: FAILED — escaped_panics={escaped} mismatches={} graceful={graceful} \
             burst_shed={burst_shed} resilience_clean={resilience_clean}",
            tally.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
