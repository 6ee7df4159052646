//! End-to-end tests of the recovery half of the serve stack: the
//! retry/backoff client against a live server, worker-kill supervision,
//! fault-injected transport, and crash-safe cache recovery.

use ppatc_serve::fault::{FaultPlan, FaultSpec};
use ppatc_serve::resilient::{ResilientClient, RetryPolicy};
use ppatc_serve::server::{try_spawn, ServerConfig, ServerHandle};
use ppatc_serve::ServeClient;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(config: ServerConfig) -> ServerHandle {
    try_spawn(config).expect("server binds on an ephemeral port")
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        retry_budget: 10_000,
        circuit_failure_threshold: 50,
        circuit_cooldown: Duration::from_millis(100),
        connect_timeout: Duration::from_secs(5),
        request_timeout: Some(CLIENT_TIMEOUT),
        seed,
    }
}

fn journal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ppatc-resilience-journal-{}-{name}.txt",
        std::process::id()
    ))
}

/// Polls the server's health until `pred` holds or the timeout passes.
fn wait_for_health(
    handle: &ServerHandle,
    timeout: Duration,
    pred: impl Fn(&ppatc_serve::HealthSnapshot) -> bool,
) -> ppatc_serve::HealthSnapshot {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = handle.health();
        if pred(&snap) || Instant::now() >= deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn resilient_client_round_trips_against_a_live_server() {
    let handle = spawn(ServerConfig::default());
    let mut client = ResilientClient::new(handle.addr().to_string(), policy(1));
    let pong = client.try_request("ping").expect("ping answers");
    assert!(pong.ok);
    assert_eq!(pong.body, "pong");
    let eval = client
        .try_request("eval capacity_kb=16")
        .expect("eval answers");
    assert!(eval.ok, "{}", eval.body);
    // Typed server refusals surface as Ok, not errors.
    let bad = client
        .try_request("eval capacity_kb=7")
        .expect("typed refusal");
    assert!(!bad.ok);
    assert_eq!(bad.kind, "invalid");
    assert_eq!(client.stats().requests, 3);
    assert_eq!(client.stats().wire_replays, 0);
    handle.drain();
}

#[test]
fn killed_workers_are_respawned_and_service_continues() {
    let handle = spawn(ServerConfig {
        workers: 2,
        enable_poison: true,
        ..ServerConfig::default()
    });
    let mut client = ResilientClient::new(handle.addr().to_string(), policy(2));

    let killed = client
        .try_request("kill_worker")
        .expect("kill answers first");
    assert!(killed.ok, "{}", killed.body);
    assert_eq!(killed.body, "worker_killed");

    let snap = wait_for_health(&handle, Duration::from_secs(10), |s| s.worker_restarts >= 1);
    assert!(snap.worker_restarts >= 1, "supervisor respawned: {snap:?}");
    assert!(!snap.supervisor_gave_up, "budget not exhausted: {snap:?}");

    // The respawned pool still evaluates.
    let eval = client
        .try_request("eval capacity_kb=16")
        .expect("eval after respawn");
    assert!(eval.ok, "{}", eval.body);
    let report = handle.drain();
    assert!(report.worker_restarts >= 1);
}

#[test]
fn supervisor_gives_up_past_the_restart_budget() {
    let handle = spawn(ServerConfig {
        workers: 2,
        enable_poison: true,
        worker_restart_budget: 1,
        ..ServerConfig::default()
    });
    let mut client = ResilientClient::new(handle.addr().to_string(), policy(3));

    // First kill: consumed by the budget, respawned.
    let first = client
        .try_request("kill_worker")
        .expect("first kill answers");
    assert!(first.ok);
    wait_for_health(&handle, Duration::from_secs(10), |s| s.worker_restarts >= 1);
    // Second kill: past the budget; the seat is abandoned.
    let second = client
        .try_request("kill_worker")
        .expect("second kill answers");
    assert!(second.ok);
    let snap = wait_for_health(&handle, Duration::from_secs(10), |s| s.supervisor_gave_up);
    assert!(snap.supervisor_gave_up, "{snap:?}");
    assert_eq!(snap.worker_restarts, 1);

    // One worker seat survives (2 workers - 1 dead seat): still serving.
    let eval = client
        .try_request("eval capacity_kb=16")
        .expect("eval still works");
    assert!(eval.ok, "{}", eval.body);
    handle.drain();
}

#[test]
fn fault_injected_transport_still_gets_every_request_answered() {
    let handle = spawn(ServerConfig {
        workers: 2,
        enable_poison: true,
        ..ServerConfig::default()
    });
    let spec = FaultSpec {
        seed: 77,
        disconnect_per_mille: 100,
        corrupt_per_mille: 100,
        truncate_per_mille: 100,
        delay_per_mille: 100,
        max_delay_ms: 3,
    };
    let mut chaos_policy = policy(4);
    chaos_policy.max_attempts = 16;
    let mut client = ResilientClient::new(handle.addr().to_string(), chaos_policy)
        .with_fault_plan(FaultPlan::new(spec));
    let queries = ["ping", "eval capacity_kb=16", "eval capacity_kb=32", "ping"];
    // Rounds 1, 5 and 9 send `kill_worker` in place of their pings: six
    // kills, within the default restart budget of eight.
    for round in 0..10 {
        for q in &queries {
            let q = if *q == "ping" && round % 4 == 1 {
                "kill_worker"
            } else {
                q
            };
            let resp = client
                .try_request(q)
                .unwrap_or_else(|e| panic!("round {round} query {q} unanswered: {e}"));
            assert!(resp.ok, "round {round} query {q}: {}", resp.body);
        }
    }
    let counts = client.fault_counts();
    assert!(
        counts.disconnects + counts.corrupted + counts.truncated > 0,
        "the plan must actually have injected faults: {counts:?}"
    );
    let stats = client.stats();
    assert!(stats.wire_replays > 0, "replays happened: {stats:?}");
    assert_eq!(stats.requests, 40);
    let report = handle.drain();
    assert_eq!(report.connections_panicked, 0, "chaos stayed typed");
    assert!(
        report.worker_restarts >= 1,
        "killed workers respawned: {report:?}"
    );
    assert!(
        !report.supervisor_gave_up,
        "six kills fit the budget: {report:?}"
    );
}

#[test]
fn cache_journal_survives_kill_and_restart_byte_identically() {
    let path = journal_path("restart");
    let _ = std::fs::remove_file(&path);
    let queries = [
        "eval capacity_kb=16",
        "eval capacity_kb=16 f_clk_mhz=700",
        "mc samples=32 seed=9 capacity_kb=16",
    ];

    let config = ServerConfig {
        cache_journal: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = spawn(config.clone());
    let mut client = ServeClient::try_connect(handle.addr(), CLIENT_TIMEOUT).expect("connects");
    let mut reference = Vec::new();
    for q in &queries {
        reference.push(client.try_request_raw(q).expect("warm-up answers"));
    }
    drop(client);
    // An abrupt stop: drain tears down threads, but the journal's state
    // is already on disk after every insert (append + flush), so this is
    // equivalent to a kill for cache purposes.
    let report = handle.drain();
    assert_eq!(
        report.cache_journal_failures, 0,
        "write-through stayed clean"
    );
    // Tear the final line, as a kill mid-append would: recovery must skip
    // exactly this tail.
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal exists");
    write!(journal, "e 5 7 68656").expect("torn tail");
    drop(journal);

    // Restart on the same journal.
    let handle = spawn(config);
    let recovered = handle.health();
    assert!(
        recovered.cache_recovered >= queries.len() as u64,
        "recovered entries: {recovered:?}"
    );
    let mut client = ServeClient::try_connect(handle.addr(), CLIENT_TIMEOUT).expect("reconnects");
    for (q, want) in queries.iter().zip(&reference) {
        let got = client.try_request_raw(q).expect("post-restart answers");
        assert_eq!(&got, want, "query {q} must be byte-identical after restart");
    }
    let report = handle.drain();
    assert!(
        report.cache_hits >= queries.len() as u64,
        "post-restart answers came from the warm cache: {report:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overload_sheds_are_retried_until_answered() {
    let handle = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    // A storm of distinct (uncached) mc queries through resilient
    // clients: every one must end answered, with the shed/retry loop
    // absorbing the contention.
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let addr = handle.addr().to_string();
            scope.spawn(move || {
                let mut client = ResilientClient::new(addr, policy(100 + t));
                for i in 0..3 {
                    let q = format!("mc samples=64 seed={} capacity_kb=16", t * 10 + i);
                    let resp = client
                        .try_request(&q)
                        .unwrap_or_else(|e| panic!("query {q} unanswered: {e}"));
                    // `ok` or a typed shed that outlived the per-request
                    // attempts — both are authoritative answers.
                    assert!(resp.ok || resp.kind == "overloaded", "{q}: {}", resp.body);
                }
            });
        }
    });
    let report = handle.drain();
    assert_eq!(report.connections_panicked, 0);
}

#[test]
fn chaos_queries_are_rejected_without_enable_poison() {
    let handle = spawn(ServerConfig::default());
    let mut client = ResilientClient::new(handle.addr().to_string(), policy(5));
    let resp = client.try_request("kill_worker").expect("typed rejection");
    assert!(!resp.ok);
    assert_eq!(resp.kind, "invalid");
    let snap = handle.drain();
    assert_eq!(snap.worker_restarts, 0);
    assert_eq!(snap.invalid, 1);
}
