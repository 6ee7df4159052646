//! SIGTERM/SIGINT → [`CancelToken`] bridging for graceful drain.
//!
//! The only unsafe code in the workspace: a minimal FFI declaration of
//! POSIX `signal(2)`. The handler does exactly one async-signal-safe
//! thing — a relaxed atomic store through a process-global
//! [`CancelToken`] clone — and the server's supervisor polls that token
//! and wakes the blocked accept loop, turning the signal into the
//! ordinary drain path (stop accepting, finish in-flight work, flush the
//! final health report, exit 0).

use ppatc::eval::CancelToken;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// POSIX signal number for termination requests (`kill <pid>`).
const SIGTERM: i32 = 15;
/// POSIX signal number for keyboard interrupts (ctrl-c).
const SIGINT: i32 = 2;

/// The token the handler cancels. Installed once per process.
static DRAIN_TOKEN: OnceLock<CancelToken> = OnceLock::new();

/// Guards the one-time installation (separate from [`DRAIN_TOKEN`] so the
/// "did *my* call install it?" answer is race-free).
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The C signal-handler type.
type SigHandler = extern "C" fn(i32);

extern "C" {
    /// POSIX `signal(2)`. The previous disposition is deliberately
    /// ignored — the server installs its handlers once at startup.
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

/// The installed handler: one relaxed atomic store, nothing else —
/// `CancelToken::cancel` is a `store(true)` on an `AtomicBool`, which is
/// async-signal-safe (no locks, no allocation).
extern "C" fn on_signal(_signum: i32) {
    if let Some(token) = DRAIN_TOKEN.get() {
        token.cancel();
    }
}

/// Installs SIGTERM and SIGINT handlers that cancel `token`. The first
/// call per process wins and returns `true`; later calls install nothing
/// and return `false` (their token will NOT be cancelled on signal — the
/// caller should poll the winner's token instead, or treat `false` as a
/// configuration error).
#[allow(unsafe_code)] // the workspace's one FFI call; see the module docs
pub fn install_drain_handler(token: &CancelToken) -> bool {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return false;
    }
    let _ = DRAIN_TOKEN.set(token.clone());
    // SAFETY: `on_signal` matches the C handler ABI and only performs an
    // atomic store; `signal` is the POSIX libc symbol.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_install_wins() {
        let token = CancelToken::new();
        let other = CancelToken::new();
        let first = install_drain_handler(&token);
        let second = install_drain_handler(&other);
        assert!(first, "first install succeeds");
        assert!(!second, "a second token cannot displace the first");
        // Raising SIGTERM in-process would race other tests; the handler
        // path is exercised end-to-end by the CI serve job instead.
    }
}
