//! Shared flag parsing for the front-end binaries (`ppatc-serve`, `paper`).
//!
//! Both binaries take the same supervision flags (`--jobs`/`--workers`,
//! `--deadline`); parsing them here keeps the front ends in agreement on
//! validation — in particular, `--jobs 0` is a structured [`OperandError`],
//! never a silent clamp to one worker, and operands are normalized the
//! same way everywhere: surrounding whitespace is trimmed and one leading
//! `+` sign is accepted, so `--jobs +8` and `--deadline " 1.5"` parse. A
//! rejected operand is quoted as given: `--jobs abc` reports `"abc" is not
//! a count >= 1`, `--jobs ""` reports that the operand is empty, and a
//! flag with no operand reports that it is missing.

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A rejected flag operand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandError {
    /// Name of the flag's parameter, e.g. `"jobs"`.
    pub field: &'static str,
    /// The operand as given; `None` when the flag ends the argument list.
    pub operand: Option<String>,
    /// What the flag takes, e.g. `"a count >= 1"`.
    pub requirement: &'static str,
}

impl OperandError {
    fn new(field: &'static str, operand: Option<&str>, requirement: &'static str) -> Self {
        Self {
            field,
            operand: operand.map(str::to_owned),
            requirement,
        }
    }
}

impl fmt::Display for OperandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, takes) = (self.field, self.requirement);
        match self.operand.as_deref() {
            None => write!(
                f,
                "invalid '{field}': missing operand; the flag takes {takes}"
            ),
            Some(op) if normalize(op).is_none() => {
                write!(
                    f,
                    "invalid '{field}': {op:?} is empty; the flag takes {takes}"
                )
            }
            Some(op) => write!(f, "invalid '{field}': {op:?} is not {takes}"),
        }
    }
}

impl std::error::Error for OperandError {}

/// Normalizes one CLI operand: trims surrounding ASCII whitespace and
/// strips at most one leading `+` sign (so `+8` and `8` are the same
/// worker count). Returns `None` for an operand that is empty after
/// trimming, which [`OperandError`] reports as empty.
fn normalize(raw: &str) -> Option<&str> {
    let trimmed = raw.trim();
    let unsigned = trimmed.strip_prefix('+').unwrap_or(trimmed);
    if unsigned.is_empty() {
        None
    } else if unsigned.starts_with('+') {
        // `++8`: Rust's own parsers accept one leading sign, so hand the
        // doubly-signed original through and let them reject it.
        Some(trimmed)
    } else {
        Some(unsigned)
    }
}

/// Parses a strictly positive count operand (worker pools, queue bounds,
/// request budgets). `None` (a dangling flag) and empty, non-numeric, or
/// zero values are structured errors; `--flag 0` is rejected rather than
/// silently clamped.
///
/// # Errors
///
/// [`OperandError`] on a missing, empty, malformed, or zero operand.
pub fn try_parse_count(field: &'static str, raw: Option<&str>) -> Result<usize, OperandError> {
    raw.and_then(normalize)
        .and_then(|digits| digits.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| OperandError::new(field, raw, "a count >= 1"))
}

/// Parses a `--jobs`/`--workers` operand via [`try_parse_count`]: a worker
/// count must be an integer of at least 1.
///
/// # Errors
///
/// [`OperandError`] on a missing, empty, malformed, or zero operand.
pub fn try_parse_jobs(raw: Option<&str>) -> Result<usize, OperandError> {
    try_parse_count("jobs", raw)
}

/// Parses a `--deadline` operand as seconds into a [`Duration`]. The value
/// must be a finite, positive number of seconds that still names an
/// [`Instant`] when added to now; whitespace and a leading `+` are
/// tolerated like every other operand.
///
/// # Errors
///
/// [`OperandError`] on a missing, empty, malformed, non-finite, or
/// non-positive operand, or on one too large to schedule.
pub fn try_parse_deadline(raw: Option<&str>) -> Result<Duration, OperandError> {
    let invalid = |requirement| OperandError::new("deadline", raw, requirement);
    let secs = raw
        .and_then(normalize)
        .and_then(|number| number.parse::<f64>().ok())
        .filter(|secs| secs.is_finite() && *secs > 0.0)
        .ok_or_else(|| invalid("a positive number of seconds"))?;
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| Instant::now().checked_add(*d).is_some())
        .ok_or_else(|| invalid("a number of seconds small enough to schedule from now"))
}

/// Parses a count operand that may legitimately be zero (restart
/// budgets: `--restart-budget 0` means "never respawn a dead worker").
/// Unlike [`try_parse_count`], `0` is accepted; everything else —
/// missing, empty, or malformed operands — is still a structured error.
///
/// # Errors
///
/// [`OperandError`] on a missing, empty, or malformed operand.
pub fn try_parse_count_or_zero(
    field: &'static str,
    raw: Option<&str>,
) -> Result<usize, OperandError> {
    raw.and_then(normalize)
        .and_then(|digits| digits.parse::<usize>().ok())
        .ok_or_else(|| OperandError::new(field, raw, "a count >= 0"))
}

/// Parses a filesystem-path operand (`--cache-journal`). The only
/// validation is non-emptiness after trimming: the file need not exist
/// (the server creates the journal when absent), and nearly any byte
/// sequence is a legal path, so no `+`-stripping or numeric normalizing
/// applies here.
///
/// # Errors
///
/// [`OperandError`] on a missing or empty operand.
pub fn try_parse_path(field: &'static str, raw: Option<&str>) -> Result<PathBuf, OperandError> {
    raw.map(str::trim)
        .filter(|path| !path.is_empty())
        .map(PathBuf::from)
        .ok_or_else(|| OperandError::new(field, raw, "a file path"))
}

/// Parses a `--port` operand: any integer in `[0, 65535]` (0 asks the OS
/// for an ephemeral port).
///
/// # Errors
///
/// [`OperandError`] on a missing, empty, malformed, or out-of-range
/// operand.
pub fn try_parse_port(raw: Option<&str>) -> Result<u16, OperandError> {
    raw.and_then(normalize)
        .and_then(|digits| digits.parse::<u16>().ok())
        .ok_or_else(|| OperandError::new("port", raw, "a port in [0, 65535]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_accepts_positive_integers() {
        assert_eq!(try_parse_jobs(Some("1")), Ok(1));
        assert_eq!(try_parse_jobs(Some("8")), Ok(8));
    }

    #[test]
    fn jobs_accepts_leading_plus_and_surrounding_whitespace() {
        assert_eq!(try_parse_jobs(Some("+8")), Ok(8));
        assert_eq!(try_parse_jobs(Some(" 8 ")), Ok(8));
        assert_eq!(try_parse_jobs(Some("\t+4\n")), Ok(4));
    }

    #[test]
    fn jobs_zero_is_a_structured_error_not_a_clamp() {
        let e = try_parse_jobs(Some("0")).expect_err("zero workers rejected");
        assert_eq!(e.field, "jobs");
        assert_eq!(e.operand.as_deref(), Some("0"));
        assert_eq!(e.to_string(), r#"invalid 'jobs': "0" is not a count >= 1"#);
        assert!(try_parse_jobs(Some("+0")).is_err(), "+0 is still zero");
    }

    #[test]
    fn jobs_empty_operand_names_the_emptiness() {
        for raw in ["", "   ", "+", " + "] {
            let e = try_parse_jobs(Some(raw)).expect_err("empty rejected");
            assert_eq!(e.field, "jobs");
            assert_eq!(
                e.to_string(),
                format!("invalid 'jobs': {raw:?} is empty; the flag takes a count >= 1"),
                "message must say the operand was empty"
            );
        }
    }

    #[test]
    fn jobs_rejects_garbage_and_missing_operands() {
        for raw in ["two", "-3", "++8", "8 8", "0x10"] {
            let e = try_parse_jobs(Some(raw)).expect_err("garbage rejected");
            assert_eq!(e.field, "jobs");
        }
        let e = try_parse_jobs(Some("two")).expect_err("garbage rejected");
        assert_eq!(
            e.to_string(),
            r#"invalid 'jobs': "two" is not a count >= 1"#
        );
        let e = try_parse_jobs(None).expect_err("dangling flag rejected");
        assert_eq!(e.field, "jobs");
        assert_eq!(
            e.to_string(),
            "invalid 'jobs': missing operand; the flag takes a count >= 1"
        );
    }

    #[test]
    fn deadline_parses_fractional_seconds() {
        let d = try_parse_deadline(Some("1.5")).expect("1.5 s parses");
        assert_eq!(d, Duration::from_millis(1_500));
    }

    #[test]
    fn deadline_accepts_leading_plus_and_whitespace() {
        assert_eq!(
            try_parse_deadline(Some("+1.5")).expect("+1.5 s parses"),
            Duration::from_millis(1_500)
        );
        assert_eq!(
            try_parse_deadline(Some(" 2 ")).expect("' 2 ' parses"),
            Duration::from_secs(2)
        );
    }

    #[test]
    fn deadline_rejects_bad_operands() {
        for raw in [
            Some("0"),
            Some("-2"),
            Some("inf"),
            Some("soon"),
            Some("1e19"),
            Some("1e20"),
            None,
        ] {
            let e = try_parse_deadline(raw).expect_err("bad deadline rejected");
            assert_eq!(e.field, "deadline");
        }
    }

    #[test]
    fn deadline_empty_operand_names_the_emptiness() {
        let e = try_parse_deadline(Some("  ")).expect_err("empty rejected");
        assert_eq!(
            e.to_string(),
            r#"invalid 'deadline': "  " is empty; the flag takes a positive number of seconds"#
        );
    }

    #[test]
    fn count_reports_its_own_field_name() {
        assert_eq!(try_parse_count("queue", Some("64")), Ok(64));
        let e = try_parse_count("queue", Some("no")).expect_err("rejected");
        assert_eq!(e.field, "queue");
    }

    #[test]
    fn count_or_zero_accepts_zero_but_rejects_garbage() {
        assert_eq!(try_parse_count_or_zero("restart-budget", Some("0")), Ok(0));
        assert_eq!(try_parse_count_or_zero("restart-budget", Some("+8")), Ok(8));
        for raw in [Some("-1"), Some("no"), Some(" "), None] {
            let e = try_parse_count_or_zero("restart-budget", raw).expect_err("rejected");
            assert_eq!(e.field, "restart-budget");
        }
    }

    #[test]
    fn path_trims_but_does_not_mangle() {
        assert_eq!(
            try_parse_path("cache-journal", Some(" /tmp/j.txt ")),
            Ok(PathBuf::from("/tmp/j.txt"))
        );
        // A path may legitimately start with `+`; no sign-stripping.
        assert_eq!(
            try_parse_path("cache-journal", Some("+cache.journal")),
            Ok(PathBuf::from("+cache.journal"))
        );
        for raw in [Some(""), Some("   "), None] {
            let e = try_parse_path("cache-journal", raw).expect_err("rejected");
            assert_eq!(e.field, "cache-journal");
        }
    }

    #[test]
    fn no_parser_renders_a_rejected_operand_as_nan() {
        type Parser = fn(Option<&str>) -> Result<(), OperandError>;
        let parsers: [(&str, Parser); 6] = [
            ("count", |raw| try_parse_count("queue", raw).map(drop)),
            ("jobs", |raw| try_parse_jobs(raw).map(drop)),
            ("deadline", |raw| try_parse_deadline(raw).map(drop)),
            ("count_or_zero", |raw| {
                try_parse_count_or_zero("restart-budget", raw).map(drop)
            }),
            ("path", |raw| try_parse_path("checkpoint", raw).map(drop)),
            ("port", |raw| try_parse_port(raw).map(drop)),
        ];
        let operands = [
            None,
            Some(""),
            Some("  "),
            Some("+"),
            Some("two"),
            Some("0x10"),
        ];
        for (name, parse) in parsers {
            for raw in operands {
                // A path parser accepts "+", "two" and "0x10" as file names.
                let Err(e) = parse(raw) else { continue };
                let message = e.to_string();
                assert!(!message.contains("NaN"), "{name} {raw:?}: {message}");
                match raw {
                    Some(op) => assert!(
                        message.contains(&format!("{op:?}")),
                        "{name} {raw:?}: the operand is quoted in `{message}`"
                    ),
                    None => assert!(message.contains("missing operand"), "{name}: `{message}`"),
                }
            }
        }
    }

    #[test]
    fn port_parses_the_full_range() {
        assert_eq!(try_parse_port(Some("0")), Ok(0));
        assert_eq!(try_parse_port(Some("65535")), Ok(65_535));
        assert_eq!(try_parse_port(Some("+7878")), Ok(7_878));
        assert!(try_parse_port(Some("65536")).is_err());
        assert!(try_parse_port(Some("-1")).is_err());
        assert!(try_parse_port(Some("")).is_err());
        assert!(try_parse_port(None).is_err());
    }
}
