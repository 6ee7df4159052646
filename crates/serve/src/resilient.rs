//! The recovery half of the client: retries with seeded backoff, a
//! circuit breaker, and reconnect-and-replay.
//!
//! [`ResilientClient`] wraps [`ServeClient`] with the policy a real
//! fleet client needs against a server that sheds, drains, restarts
//! workers, or sits behind a flaky transport:
//!
//! - **Honored backpressure** — an `overloaded` answer is retried after
//!   `max(server retry_after_ms hint, exponential backoff)`, so the
//!   shedding server's own estimate is never undercut.
//! - **Reconnect-and-replay** — a torn connection (`Truncated`, I/O
//!   errors, socket timeouts) drops the socket and replays the request
//!   on a fresh one. This is safe by construction: every query is a pure
//!   function of its parameters, so a replay cannot double-apply
//!   anything (the lone side-effecting ops, `drain` and the chaos
//!   queries, are idempotent or deliberately chaotic).
//! - **Circuit breaker** — consecutive wire-level failures open the
//!   circuit; requests then fail fast with a typed
//!   [`ResilientError::CircuitOpen`] carrying the remaining cooldown
//!   instead of hammering a dead endpoint. After the cooldown one probe
//!   request (half-open) decides between closing and reopening.
//! - **Retry budget** — a lifetime cap on replays, so a pathological
//!   server cannot spin a client forever.
//!
//! All backoff jitter comes from a seeded [`SplitMix64`]: equal seeds
//! and equal failure sequences sleep the identical schedule, which is
//! what lets the chaos harness replay a run from its seed.
//!
//! The state machines are documented in `DESIGN.md` §13.

use crate::client::ServeClient;
use crate::fault::{FaultAction, FaultCounts, FaultPlan};
use crate::protocol::{
    io_error, parse_response, try_encode_frame, try_read_frame, ParsedResponse, WireError,
    MAX_FRAME_BYTES,
};
use ppatc_units::rng::SplitMix64;
use std::io::Write;
use std::time::{Duration, Instant};

/// Slack added on top of a request's own `deadline_ms` when deriving the
/// socket timeout: the server is allowed this much overrun to render and
/// flush its typed `deadline_exceeded` answer before the client gives up
/// on the connection (mirrors the server's slot grace).
const DEADLINE_SOCKET_GRACE: Duration = Duration::from_secs(5);

/// Cap on the exponent of the exponential backoff (2^20 × base already
/// exceeds any sane `max_backoff`; the shift must not overflow).
const BACKOFF_EXPONENT_CAP: u32 = 20;

/// Retry/backoff/breaker tuning. `Default` suits tests and the harness.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Attempts per request (first try + replays).
    pub max_attempts: u32,
    /// First-retry backoff; doubles each further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling (before jitter).
    pub max_backoff: Duration,
    /// Lifetime replay budget across all requests of this client.
    pub retry_budget: u64,
    /// Consecutive wire-level failures that open the circuit.
    pub circuit_failure_threshold: u32,
    /// How long an open circuit rejects before allowing a probe.
    pub circuit_cooldown: Duration,
    /// Budget for establishing one TCP connection.
    pub connect_timeout: Duration,
    /// Socket read/write budget per request when the request line carries
    /// no `deadline_ms` (`None` = block indefinitely).
    pub request_timeout: Option<Duration>,
    /// Seed for the jitter schedule (equal seeds, equal sleeps).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            retry_budget: 256,
            circuit_failure_threshold: 5,
            circuit_cooldown: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Some(Duration::from_secs(30)),
            seed: 42,
        }
    }
}

/// Why a resilient request gave up. Server-side *typed* refusals
/// (`invalid`, `malformed`, `deadline_exceeded`, …) are NOT errors at
/// this layer — they come back as `Ok(ParsedResponse)`; this enum is
/// only for requests that could not get any authoritative answer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResilientError {
    /// The circuit is open: the endpoint failed
    /// [`RetryPolicy::circuit_failure_threshold`] consecutive times and
    /// the cooldown has not elapsed. No I/O was attempted.
    CircuitOpen {
        /// Remaining cooldown before a probe will be allowed, ms.
        cooldown_ms: u64,
    },
    /// The retry budget (or the per-request attempt cap) ran out while
    /// the transport kept failing.
    RetryBudgetExhausted {
        /// Attempts made for this request before giving up.
        attempts: u32,
        /// The wire error of the final attempt.
        last: WireError,
    },
    /// A wire-level failure that is not worth replaying (for example an
    /// oversize request), or the failure that opened the circuit.
    Wire(WireError),
}

impl core::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::CircuitOpen { cooldown_ms } => {
                write!(
                    f,
                    "circuit open: endpoint cooling down for {cooldown_ms} ms"
                )
            }
            Self::RetryBudgetExhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts (last: {last})"
                )
            }
            Self::Wire(e) => write!(f, "wire failure: {e}"),
        }
    }
}

impl std::error::Error for ResilientError {}

/// Observable circuit-breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitState {
    /// Requests flow; failures are being counted.
    Closed,
    /// Requests fail fast until the cooldown elapses.
    Open,
    /// One probe request is deciding between Closed and Open.
    HalfOpen,
}

/// The breaker's internal state machine.
#[derive(Clone, Copy, Debug)]
enum Breaker {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// Running totals of what the client did to get its answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests submitted through [`ResilientClient::try_request`].
    pub requests: u64,
    /// Wire attempts (first tries + replays).
    pub attempts: u64,
    /// Replays after a wire-level failure.
    pub wire_replays: u64,
    /// Retries after an `overloaded` shed.
    pub overload_retries: u64,
    /// Fresh connections established (beyond each request's reuse).
    pub connects: u64,
    /// Backoff sleeps taken.
    pub backoff_sleeps: u64,
    /// Total time slept in backoff, ms.
    pub backoff_ms_total: u64,
    /// Times the circuit transitioned to open.
    pub circuit_opens: u64,
    /// Requests rejected without I/O because the circuit was open.
    pub circuit_fast_fails: u64,
    /// Requests that died on budget/attempt exhaustion.
    pub budget_exhausted: u64,
}

/// A retrying, circuit-breaking wrapper around [`ServeClient`].
#[derive(Debug)]
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    rng: SplitMix64,
    conn: Option<ServeClient>,
    breaker: Breaker,
    stats: RetryStats,
    budget_left: u64,
    fault: Option<FaultPlan>,
}

impl ResilientClient {
    /// Builds a client for `addr` (no connection is made until the first
    /// request).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let rng = SplitMix64::new(policy.seed);
        let budget_left = policy.retry_budget;
        Self {
            addr: addr.into(),
            policy,
            rng,
            conn: None,
            breaker: Breaker::Closed {
                consecutive_failures: 0,
            },
            stats: RetryStats::default(),
            budget_left,
            fault: None,
        }
    }

    /// Installs a deterministic transport fault plan: every frame this
    /// client is about to send first consults the plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Totals so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// What the installed fault plan has injected (zeroes when no plan).
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault
            .as_ref()
            .map(FaultPlan::counts)
            .unwrap_or_default()
    }

    /// Remaining lifetime replay budget.
    pub fn retry_budget_left(&self) -> u64 {
        self.budget_left
    }

    /// The breaker's current state (Open reports Open even if the
    /// cooldown has elapsed; the transition to half-open happens on the
    /// next request).
    pub fn circuit_state(&self) -> CircuitState {
        match self.breaker {
            Breaker::Closed { .. } => CircuitState::Closed,
            Breaker::Open { .. } => CircuitState::Open,
            Breaker::HalfOpen => CircuitState::HalfOpen,
        }
    }

    /// Sends one request line, retrying per policy, and returns the
    /// server's answer. `Ok` covers *every* authoritative server
    /// response, including typed refusals; `Err` means no authoritative
    /// answer was obtained.
    ///
    /// # Errors
    ///
    /// [`ResilientError::CircuitOpen`] without I/O while the breaker
    /// cools down; [`ResilientError::RetryBudgetExhausted`] when the
    /// transport kept failing past the budget;
    /// [`ResilientError::Wire`] for non-replayable failures (oversize
    /// request, alien response) or the failure that opened the circuit.
    pub fn try_request(&mut self, line: &str) -> Result<ParsedResponse, ResilientError> {
        self.stats.requests += 1;
        if let Breaker::Open { until } = self.breaker {
            let now = Instant::now();
            if now < until {
                self.stats.circuit_fast_fails += 1;
                let cooldown = until.saturating_duration_since(now);
                return Err(ResilientError::CircuitOpen {
                    cooldown_ms: duration_ms(cooldown),
                });
            }
            self.breaker = Breaker::HalfOpen;
        }
        let frame = try_encode_frame(line, MAX_FRAME_BYTES).map_err(ResilientError::Wire)?;
        let timeout = self.request_timeout_for(line);
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            self.stats.attempts += 1;
            let action = match self.fault.as_mut() {
                Some(plan) => plan.next(frame.len()),
                None => FaultAction::Pass,
            };
            let outcome = self.try_attempt(&frame, timeout, action);
            match outcome {
                Ok(response) => {
                    self.record_success();
                    if response.kind != "overloaded" {
                        return Ok(response);
                    }
                    // Shed: the server is alive and told us when to come
                    // back. Out of attempts or budget, the typed shed
                    // itself is the answer.
                    if attempt >= max_attempts || !self.consume_retry_budget() {
                        return Ok(response);
                    }
                    self.stats.overload_retries += 1;
                    let hint_ms = response
                        .field("retry_after_ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                    let backoff_ms = self.backoff_ms(attempt);
                    self.sleep_ms(hint_ms.max(backoff_ms));
                }
                Err(wire) => {
                    // The connection is no longer trustworthy either way.
                    self.conn = None;
                    let opened = self.record_failure();
                    if opened {
                        return Err(ResilientError::Wire(wire));
                    }
                    if attempt >= max_attempts || !self.consume_retry_budget() {
                        self.stats.budget_exhausted += 1;
                        return Err(ResilientError::RetryBudgetExhausted {
                            attempts: attempt,
                            last: wire,
                        });
                    }
                    self.stats.wire_replays += 1;
                    let backoff_ms = self.backoff_ms(attempt);
                    self.sleep_ms(backoff_ms);
                }
            }
        }
    }

    /// One wire attempt: apply the fault action, send, read, parse.
    fn try_attempt(
        &mut self,
        frame: &[u8],
        timeout: Option<Duration>,
        action: FaultAction,
    ) -> Result<ParsedResponse, WireError> {
        if matches!(action, FaultAction::DisconnectBeforeSend) {
            // The transport dropped us before the frame went out.
            self.conn = None;
            return Err(WireError::Io {
                detail: "injected: connection dropped before send".to_string(),
            });
        }
        if let FaultAction::Delay { millis } = action {
            std::thread::sleep(Duration::from_millis(millis));
        }
        if self.conn.is_none() {
            let client =
                ServeClient::try_connect_split(&self.addr, self.policy.connect_timeout, timeout)?;
            self.stats.connects += 1;
            self.conn = Some(client);
        }
        let Some(conn) = self.conn.as_mut() else {
            return Err(WireError::Io {
                detail: "connection vanished between connect and send".to_string(),
            });
        };
        conn.set_request_timeout(timeout)?;
        match action {
            FaultAction::CorruptMagic => {
                let mut damaged = frame.to_vec();
                damaged[0] ^= 0x55;
                // The server answers `err malformed` and abandons the
                // connection; from this client's model the frame was
                // corrupted in flight, so the server's rejection of the
                // garbage is not an answer to OUR request — replay it.
                let _ = exchange(conn, &damaged);
                Err(WireError::Io {
                    detail: "injected: frame corrupted in flight".to_string(),
                })
            }
            FaultAction::TruncateFrame { keep } => {
                let keep = keep.min(frame.len());
                let _ = conn.stream().write_all(&frame[..keep]);
                // Dropping the connection closes the socket mid-frame.
                Err(WireError::Truncated {
                    got: keep,
                    want: frame.len(),
                })
            }
            FaultAction::Pass | FaultAction::Delay { .. } | FaultAction::DisconnectBeforeSend => {
                let payload = exchange(conn, frame)?;
                parse_response(&payload)
            }
            // `FaultAction` is non-exhaustive for forward compatibility;
            // unknown future actions degrade to a clean pass.
            #[allow(unreachable_patterns)]
            _ => {
                let payload = exchange(conn, frame)?;
                parse_response(&payload)
            }
        }
    }

    /// Socket budget for one request: its own `deadline_ms` plus grace
    /// when present, else the policy default.
    fn request_timeout_for(&self, line: &str) -> Option<Duration> {
        for tok in line.split_ascii_whitespace() {
            if let Some(ms) = tok.strip_prefix("deadline_ms=") {
                if let Ok(ms) = ms.parse::<u64>() {
                    return Some(Duration::from_millis(ms) + DEADLINE_SOCKET_GRACE);
                }
            }
        }
        self.policy.request_timeout
    }

    /// Registers an authoritative server answer with the breaker.
    fn record_success(&mut self) {
        self.breaker = Breaker::Closed {
            consecutive_failures: 0,
        };
    }

    /// Registers a wire-level failure; returns whether the circuit just
    /// opened.
    fn record_failure(&mut self) -> bool {
        match self.breaker {
            Breaker::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= self.policy.circuit_failure_threshold.max(1) {
                    self.trip();
                    true
                } else {
                    self.breaker = Breaker::Closed {
                        consecutive_failures: failures,
                    };
                    false
                }
            }
            // The half-open probe failed: straight back to open.
            Breaker::HalfOpen => {
                self.trip();
                true
            }
            Breaker::Open { .. } => true,
        }
    }

    /// Opens the circuit for one cooldown.
    fn trip(&mut self) {
        self.stats.circuit_opens += 1;
        self.breaker = Breaker::Open {
            until: Instant::now() + self.policy.circuit_cooldown,
        };
    }

    /// Takes one unit of the lifetime replay budget; `false` when spent.
    fn consume_retry_budget(&mut self) -> bool {
        if self.budget_left == 0 {
            return false;
        }
        self.budget_left -= 1;
        true
    }

    /// Jittered exponential backoff for retry number `attempt` (1-based
    /// count of attempts already made): uniform in `[capped/2, capped]`
    /// where `capped = min(base · 2^(attempt-1), max_backoff)`.
    fn backoff_ms(&mut self, attempt: u32) -> u64 {
        let base = duration_ms(self.policy.base_backoff).max(1);
        let cap = duration_ms(self.policy.max_backoff).max(base);
        let exponent = attempt.saturating_sub(1).min(BACKOFF_EXPONENT_CAP);
        let raw = base.saturating_mul(1u64 << exponent).min(cap);
        let half = raw / 2;
        half + self.rng.next_below(raw - half + 1)
    }

    /// Sleeps `ms` and accounts it.
    fn sleep_ms(&mut self, ms: u64) {
        if ms == 0 {
            return;
        }
        self.stats.backoff_sleeps += 1;
        self.stats.backoff_ms_total += ms;
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Saturating milliseconds of a duration.
fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Writes `frame` and reads one response payload off `conn`'s socket.
fn exchange(conn: &mut ServeClient, frame: &[u8]) -> Result<String, WireError> {
    conn.stream().write_all(frame).map_err(|e| io_error(&e))?;
    match try_read_frame(conn.stream(), MAX_FRAME_BYTES)? {
        Some(payload) => Ok(payload),
        None => Err(WireError::Truncated { got: 0, want: 8 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A port with nothing listening (reserved by binding then dropping;
    /// racy in theory, deterministic enough in a test container).
    fn dead_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        addr
    }

    fn fast_policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            retry_budget: 64,
            circuit_failure_threshold: 4,
            circuit_cooldown: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(200),
            request_timeout: Some(Duration::from_millis(500)),
            seed,
        }
    }

    #[test]
    fn dead_endpoint_exhausts_attempts_with_a_typed_error() {
        let mut client = ResilientClient::new(dead_addr(), fast_policy(1));
        let err = client.try_request("ping").expect_err("nothing listens");
        assert!(
            matches!(
                err,
                ResilientError::RetryBudgetExhausted { attempts: 3, .. }
            ),
            "unexpected: {err:?}"
        );
        let stats = client.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.wire_replays, 2);
    }

    #[test]
    fn repeated_failures_open_the_circuit_and_fail_fast() {
        let mut client = ResilientClient::new(dead_addr(), fast_policy(2));
        // First request: 3 attempts = 3 failures (threshold 4 not hit).
        let _ = client.try_request("ping");
        assert_eq!(client.circuit_state(), CircuitState::Closed);
        // Second request's first failure is the 4th consecutive: trips.
        let err = client.try_request("ping").expect_err("still dead");
        assert!(
            matches!(err, ResilientError::Wire(_)),
            "unexpected: {err:?}"
        );
        assert_eq!(client.circuit_state(), CircuitState::Open);
        // While open: typed fast-fail, no I/O, cooldown surfaced.
        let err = client.try_request("ping").expect_err("circuit open");
        match err {
            ResilientError::CircuitOpen { cooldown_ms } => assert!(cooldown_ms <= 200),
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(client.stats().circuit_fast_fails, 1);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut policy = fast_policy(3);
        policy.circuit_cooldown = Duration::from_millis(1);
        policy.circuit_failure_threshold = 1;
        let mut client = ResilientClient::new(dead_addr(), policy);
        let _ = client.try_request("ping");
        assert_eq!(client.circuit_state(), CircuitState::Open);
        std::thread::sleep(Duration::from_millis(5));
        // Cooldown elapsed: the next request probes (half-open) and its
        // failure reopens the circuit.
        let _ = client.try_request("ping");
        assert_eq!(client.circuit_state(), CircuitState::Open);
        assert_eq!(client.stats().circuit_opens, 2);
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let addr = dead_addr();
        let mut a = ResilientClient::new(addr.clone(), fast_policy(9));
        let mut b = ResilientClient::new(addr, fast_policy(9));
        let _ = a.try_request("ping");
        let _ = b.try_request("ping");
        assert_eq!(a.stats().backoff_ms_total, b.stats().backoff_ms_total);
        assert!(a.stats().backoff_ms_total > 0);
    }

    #[test]
    fn retry_budget_is_a_lifetime_cap() {
        let mut policy = fast_policy(4);
        policy.retry_budget = 1;
        policy.circuit_failure_threshold = 100;
        let mut client = ResilientClient::new(dead_addr(), policy);
        let err = client.try_request("ping").expect_err("dead");
        // One replay allowed, then the budget gates attempt 3.
        assert!(
            matches!(
                err,
                ResilientError::RetryBudgetExhausted { attempts: 2, .. }
            ),
            "unexpected: {err:?}"
        );
        assert_eq!(client.retry_budget_left(), 0);
        let err = client.try_request("ping").expect_err("dead, no budget");
        assert!(
            matches!(
                err,
                ResilientError::RetryBudgetExhausted { attempts: 1, .. }
            ),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn oversize_requests_fail_without_attempts() {
        let mut client = ResilientClient::new(dead_addr(), fast_policy(5));
        let huge = "x".repeat(MAX_FRAME_BYTES + 1);
        let err = client.try_request(&huge).expect_err("oversize");
        assert!(matches!(
            err,
            ResilientError::Wire(WireError::Oversize { .. })
        ));
        assert_eq!(client.stats().attempts, 0, "rejected before any I/O");
    }

    #[test]
    fn deadline_in_the_line_drives_the_socket_budget() {
        let client = ResilientClient::new("127.0.0.1:1".to_string(), fast_policy(6));
        let derived = client.request_timeout_for("eval capacity_kb=16 deadline_ms=250");
        assert_eq!(
            derived,
            Some(Duration::from_millis(250) + DEADLINE_SOCKET_GRACE)
        );
        let fallback = client.request_timeout_for("eval capacity_kb=16");
        assert_eq!(fallback, client.policy.request_timeout);
    }
}
