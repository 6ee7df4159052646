//! End-to-end tests of the recovery half of the serve stack: worker-kill
//! supervision under transport chaos, the restart budget, and crash-safe
//! cache recovery.

use ppatc_serve::protocol::{try_encode_frame, try_read_frame, MAGIC, MAX_FRAME_BYTES};
use ppatc_serve::server::{try_spawn, ServerConfig, ServerHandle};
use ppatc_serve::{HealthSnapshot, ServeClient};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(config: ServerConfig) -> ServerHandle {
    try_spawn(config).expect("server binds on an ephemeral port")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    ServeClient::try_connect(handle.addr(), CLIENT_TIMEOUT).expect("client connects")
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
    pred: impl Fn(&HealthSnapshot) -> bool,
) -> HealthSnapshot {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = handle.health();
        if pred(&snap) || Instant::now() >= deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Opens a connection, writes three bytes of a frame header and hangs up:
/// the tear a connection dropped mid-frame leaves.
fn send_torn_header(handle: &ServerHandle) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.write_all(&MAGIC[..3]).expect("writes");
}

/// Sends a `ping` frame whose magic was damaged in flight on a connection
/// of its own (the server closes it after answering) and returns the
/// answer.
fn send_corrupt_magic(handle: &ServerHandle) -> String {
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    let mut frame = try_encode_frame("ping", MAX_FRAME_BYTES).expect("encodes");
    frame[0] ^= 0x55;
    stream.write_all(&frame).expect("writes");
    match try_read_frame(&mut stream, MAX_FRAME_BYTES) {
        Ok(Some(payload)) => payload,
        other => panic!("expected an answer to the corrupt frame, got {other:?}"),
    }
}

#[test]
fn killed_workers_are_respawned_under_transport_chaos() {
    let handle = spawn(ServerConfig {
        workers: 2,
        enable_poison: true,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let queries = ["ping", "eval capacity_kb=16", "eval capacity_kb=32", "ping"];
    // Rounds 1, 5 and 9 send `kill_worker` in place of their pings: six
    // kills, within the default restart budget of eight. Every round also
    // tears one frame header and corrupts one frame's magic, each on a
    // connection of its own.
    for round in 0..10 {
        send_torn_header(&handle);
        for (i, q) in queries.iter().enumerate() {
            let q = if *q == "ping" && round % 4 == 1 {
                "kill_worker"
            } else {
                q
            };
            let resp = client
                .try_request(q)
                .unwrap_or_else(|e| panic!("round {round} query {q} unanswered: {e}"));
            assert!(resp.ok, "round {round} query {q}: {}", resp.body);
            if q == "kill_worker" {
                assert_eq!(resp.body, "worker_killed");
            }
            if i == 1 {
                let answer = send_corrupt_magic(&handle);
                assert!(answer.starts_with("err malformed"), "{answer}");
            }
        }
    }
    let snap = wait_for_health(&handle, Duration::from_secs(10), |s| s.worker_restarts >= 6);
    assert_eq!(snap.worker_restarts, 6, "every kill respawned: {snap:?}");
    // The respawned pool still evaluates a point no earlier round cached.
    let fresh = client
        .try_request("eval capacity_kb=24")
        .expect("eval after the respawns");
    assert!(fresh.ok, "{}", fresh.body);
    let report = handle.drain();
    assert_eq!(report.connections_panicked, 0, "chaos stayed typed");
    assert!(
        report.malformed >= 10,
        "every corrupt frame counted: {report:?}"
    );
    assert_eq!(report.worker_restarts, 6, "{report:?}");
    assert!(
        !report.supervisor_gave_up,
        "six kills fit the budget: {report:?}"
    );
}

#[test]
fn supervisor_gives_up_past_the_restart_budget() {
    let handle = spawn(ServerConfig {
        workers: 2,
        enable_poison: true,
        worker_restart_budget: 1,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);

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
    let mut client = connect(&handle);
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
    let mut client = connect(&handle);
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
