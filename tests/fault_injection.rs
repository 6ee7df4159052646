//! Deterministic fault-injection harness.
//!
//! Every test here feeds the pipeline deliberately corrupted inputs — NaN
//! model parameters, zero and negative widths, inverted uncertainty
//! ranges, circuits no solve can settle — and asserts that the failure
//! surfaces as a *structured error*, never as a panic, and that
//! per-sample faults in a Monte-Carlo sweep are isolated and counted
//! rather than aborting the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ppatc::montecarlo::{
    self, MonteCarloConfig, MonteCarloResult, RatioSource, UncertaintyRanges, UncertaintySample,
};
use ppatc::{
    CarbonTrajectory, EmbodiedPipeline, Lifetime, PpatcError, SystemDesign, TcdpMap, Technology,
    UsagePattern,
};
use ppatc_device::{si, DeviceError, SiVtFlavor};
use ppatc_spice::{Circuit, SpiceError, TransientConfig, Waveform};
use ppatc_units::{
    CarbonIntensity, CarbonMass, Frequency, Length, Power, Resistance, Time, Voltage,
};

/// Asserts that `f` completes without panicking and returns its value.
fn no_panic<T>(label: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("`{label}` panicked on hostile input"),
    }
}

fn paper_trajectory(embodied_g: f64, power_mw: f64) -> CarbonTrajectory {
    CarbonTrajectory::new(
        CarbonMass::from_grams(embodied_g),
        Power::from_milliwatts(power_mw),
        UsagePattern::paper_default(),
        Time::from_seconds(0.04),
    )
}

fn paper_map() -> TcdpMap {
    TcdpMap::new(
        paper_trajectory(3.11, 9.7),
        paper_trajectory(3.63, 8.45),
        Lifetime::months(24.0),
        0.81,
    )
}

/// A serial Monte-Carlo sweep under a default supervisor, so a
/// call-order-dependent source sees the samples in index order.
fn sweep(
    source: &(dyn RatioSource + Sync),
    ranges: &UncertaintyRanges,
    config: &MonteCarloConfig,
) -> Result<MonteCarloResult, PpatcError> {
    montecarlo::try_run_supervised(source, ranges, config, 1, &ppatc::Supervisor::new())
}

// ---------------------------------------------------------------------------
// Device layer: NaN parameters and degenerate widths.
// ---------------------------------------------------------------------------

#[test]
fn nan_model_parameters_are_structured_errors() {
    let w = Length::from_nanometers(100.0);
    let corruptions: [fn(&mut ppatc_device::VirtualSourceModel); 4] = [
        |m| m.c_inv = f64::NAN,
        |m| m.v_x0 = f64::NAN,
        |m| m.mobility = -1.0,
        |m| m.beta = f64::NAN,
    ];
    for corrupt in corruptions {
        let mut model = si::nfet(SiVtFlavor::Rvt);
        corrupt(&mut model);
        let err = no_panic("try_sized with NaN parameter", || model.try_sized(w))
            .expect_err("corrupted model must be rejected");
        assert!(matches!(err, DeviceError::Model(_)), "{err}");
        // The source chain reaches the underlying parameter error.
        assert!(std::error::Error::source(&err).is_some());
    }
}

#[test]
fn degenerate_widths_are_structured_errors() {
    for bad_nm in [0.0, -100.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = no_panic("try_sized with degenerate width", || {
            si::nfet(SiVtFlavor::Rvt).try_sized(Length::from_nanometers(bad_nm))
        })
        .expect_err("degenerate width must be rejected");
        assert!(matches!(err, DeviceError::InvalidWidth(_)), "{err}");
    }
}

// ---------------------------------------------------------------------------
// Evaluation layer: hostile scalar inputs through every try_* constructor.
// ---------------------------------------------------------------------------

#[test]
fn hostile_scalars_never_panic_through_try_apis() {
    let hostile = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for &v in &hostile {
        no_panic("Lifetime::try_months", || {
            let r = Lifetime::try_months(v);
            // 0.0 is a legal (degenerate) lifetime; everything else here is not.
            assert_eq!(r.is_ok(), v == 0.0, "months({v})");
        });
        no_panic("UsagePattern::try_new", || {
            assert!(
                UsagePattern::try_new(v, CarbonIntensity::from_g_per_kwh(380.0)).is_err(),
                "hours_per_day({v})"
            );
        });
        no_panic("EmbodiedPipeline::try_with_embodied_scale", || {
            assert!(EmbodiedPipeline::paper_default()
                .try_with_embodied_scale(v)
                .is_err());
        });
        no_panic("TcdpMap::try_ratio_with", || {
            assert!(paper_map().try_ratio_with(v, 1.0, None).is_err());
            assert!(paper_map().try_ratio_with(1.0, v, None).is_err());
        });
        no_panic("SystemDesign::new with hostile f_clk", || {
            let r = SystemDesign::new(Technology::AllSi, Frequency::from_hertz(v));
            assert!(r.is_err(), "f_clk({v})");
        });
    }
}

#[test]
fn hostile_inputs_carry_field_names() {
    let e = Lifetime::try_months(f64::NAN).expect_err("NaN lifetime");
    assert_eq!(e.field, "lifetime_months");
    let e = UsagePattern::try_new(25.0, CarbonIntensity::from_g_per_kwh(380.0))
        .expect_err("26-hour day");
    assert_eq!(e.field, "hours_per_day");
    let e = TcdpMap::try_new(
        paper_trajectory(3.11, 9.7),
        paper_trajectory(3.63, 8.45),
        Lifetime::months(24.0),
        1.5,
    )
    .expect_err("yield above 1");
    assert_eq!(e.field, "m3d_nominal_yield");
}

// ---------------------------------------------------------------------------
// Monte-Carlo layer: invalid ranges and injected per-sample faults.
// ---------------------------------------------------------------------------

#[test]
fn inverted_and_nan_ranges_are_structured_errors() {
    let config = MonteCarloConfig::new(100, 1).expect("valid config");
    let map = paper_map();

    let mut inverted = UncertaintyRanges::paper_default();
    inverted.lifetime_months = (36.0, 12.0);
    let err = no_panic("Monte Carlo with inverted range", || {
        sweep(&map, &inverted, &config)
    })
    .expect_err("inverted range must be rejected");
    assert!(matches!(err, PpatcError::Validation(_)), "{err}");

    let mut nan_hi = UncertaintyRanges::paper_default();
    nan_hi.ci_use_scale = (0.5, f64::NAN);
    assert!(sweep(&map, &nan_hi, &config).is_err());

    let mut wild_yield = UncertaintyRanges::paper_default();
    wild_yield.m3d_yield = (0.5, 1.5);
    assert!(sweep(&map, &wild_yield, &config).is_err());
}

/// A ratio source that corrupts every `nan_every`-th evaluation with NaN
/// and every `neg_every`-th with a negative ratio.
struct FaultySource {
    inner: TcdpMap,
    nan_every: usize,
    neg_every: usize,
    calls: AtomicUsize,
}

impl RatioSource for FaultySource {
    fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.nan_every) {
            f64::NAN
        } else if n.is_multiple_of(self.neg_every) {
            -1.0
        } else {
            self.inner.tcdp_ratio(sample)
        }
    }
}

#[test]
fn injected_sample_faults_are_isolated_and_counted_per_cause() {
    let source = FaultySource {
        inner: paper_map(),
        nan_every: 10,
        neg_every: 7,
        calls: AtomicUsize::new(0),
    };
    let config = MonteCarloConfig::new(700, 42)
        .expect("valid config")
        .with_failure_budget(0.5)
        .expect("valid budget");
    let result = no_panic("Monte Carlo under injected faults", || {
        sweep(&source, &UncertaintyRanges::paper_default(), &config)
    })
    .expect("sweep completes despite injected faults");

    // Of 700 calls: 70 are NaN; multiples of 7 that are not also
    // multiples of 10 (i.e. not multiples of 70) are negative.
    assert_eq!(result.failures.non_finite_ratio, 70);
    assert_eq!(result.failures.non_positive_ratio, 100 - 10);
    assert_eq!(result.evaluated + result.failures.total(), result.samples);
    // Survivor statistics stay physical.
    assert!(result.p_m3d_wins >= 0.0 && result.p_m3d_wins <= 1.0);
    let (q05, q50, q95) = result.ratio_quantiles;
    assert!(q05 <= q50 && q50 <= q95);
    assert!(q05 > 0.0);
}

#[test]
fn blown_failure_budget_is_an_error_not_a_panic() {
    struct AlwaysNan;
    impl RatioSource for AlwaysNan {
        fn tcdp_ratio(&self, _: &UncertaintySample) -> f64 {
            f64::NAN
        }
    }
    let config = MonteCarloConfig::new(50, 3).expect("valid config");
    let err = no_panic("Monte Carlo with 100% faults", || {
        sweep(&AlwaysNan, &UncertaintyRanges::paper_default(), &config)
    })
    .expect_err("nothing survives");
    match err {
        PpatcError::FailureBudgetExceeded {
            failed, samples, ..
        } => {
            assert_eq!(failed, 50);
            assert_eq!(samples, 50);
        }
        other => panic!("expected FailureBudgetExceeded, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// SPICE layer: forced non-convergence and singular topologies.
// ---------------------------------------------------------------------------

#[test]
fn forced_non_convergence_is_a_structured_error() {
    // A 1 kV rail: damping moves a node at most 0.3 V per Newton
    // iteration, and 400 iterations end near 120 V. The operating point
    // and a transient that starts from it must both give up with an error,
    // not a panic.
    let mut c = Circuit::new();
    let hv = c.node("hv");
    c.voltage_source(
        "V1",
        hv,
        Circuit::GROUND,
        Waveform::dc(Voltage::from_volts(1_000.0)),
    );
    c.resistor("R1", hv, Circuit::GROUND, Resistance::from_kilo_ohms(1.0));
    let err = no_panic("DC solve of a 1 kV rail", || c.dc_operating_point())
        .expect_err("no single solve reaches 1 kV");
    assert!(
        matches!(err, SpiceError::NoConvergence { analysis: "dc", .. }),
        "{err}"
    );
    let cfg = TransientConfig::new(Time::from_nanoseconds(1.0), Time::from_picoseconds(10.0));
    let err = no_panic("transient from a 1 kV rail", || c.transient(&cfg))
        .expect_err("the initial DC solve fails");
    assert!(
        matches!(err, SpiceError::NoConvergence { analysis: "dc", .. }),
        "{err}"
    );
}

#[test]
fn singular_topologies_fail_fast_with_a_structured_error() {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.voltage_source(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::dc(Voltage::from_volts(1.0)),
    );
    c.voltage_source(
        "V2",
        a,
        Circuit::GROUND,
        Waveform::dc(Voltage::from_volts(2.0)),
    );
    let err = no_panic("singular circuit", || c.dc_operating_point())
        .expect_err("conflicting ideal sources are singular");
    assert!(matches!(err, SpiceError::SingularMatrix { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Chaos: injected worker panics, cancellation at random chunk boundaries,
// deadline exhaustion, and crash-safe resume.
// ---------------------------------------------------------------------------

/// A scratch journal path unique to this process and test.
fn scratch_journal(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ppatc-chaos-{}-{name}.journal", std::process::id()))
}

/// A ratio source that panics on one specific sample index sequence: every
/// call whose drawn lifetime falls below a cut. Deterministic in the
/// sample, so serial and parallel runs fail identically.
struct PanickyBelowLifetime {
    inner: TcdpMap,
    cut_months: f64,
}

impl RatioSource for PanickyBelowLifetime {
    fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
        assert!(
            sample.lifetime.as_time().as_months() >= self.cut_months,
            "injected panic: lifetime below {} months",
            self.cut_months
        );
        self.inner.tcdp_ratio(sample)
    }
}

#[test]
fn injected_worker_panics_stay_within_the_failure_budget_at_eight_workers() {
    // ~8% of paper-default lifetimes (18–30 mo) fall below 19 months.
    let source = PanickyBelowLifetime {
        inner: paper_map(),
        cut_months: 19.0,
    };
    let config = MonteCarloConfig::new(2_000, 11)
        .expect("valid config")
        .with_failure_budget(0.25)
        .expect("valid budget");
    let ranges = UncertaintyRanges::paper_default();
    let supervisor = ppatc::Supervisor::new();
    let parallel = no_panic("Monte Carlo with panicking samples at 8 workers", || {
        montecarlo::try_run_supervised(&source, &ranges, &config, 8, &supervisor)
    })
    .expect("panics are isolated, not fatal");
    assert!(
        parallel.failures.worker_panic > 0,
        "the lifetime cut must actually fire"
    );
    assert_eq!(
        parallel.evaluated + parallel.failures.total(),
        parallel.samples
    );
    // Panic isolation must not disturb determinism: the serial sweep sees
    // the same panics on the same indices and the same survivors.
    let serial = montecarlo::try_run_supervised(&source, &ranges, &config, 1, &supervisor)
        .expect("serial sweep completes");
    assert_eq!(serial, parallel);
}

#[test]
fn cancellation_at_random_chunk_boundaries_reports_coalesced_progress() {
    use ppatc_units::rng::SplitMix64;

    let mut rng = SplitMix64::new(0x000C_4A05);
    let n = 5_000usize;
    for round in 0..4 {
        let jobs = [1, 2, 4, 8][round];
        // Cancel after a pseudo-random number of item evaluations, so the
        // interrupt lands at a different chunk boundary every round.
        let cancel_after = 1 + (rng.next_u64() as usize) % (n / 2);
        let token = ppatc::CancelToken::new();
        let budget = ppatc::RunBudget::unlimited().with_cancel(&token);
        let calls = AtomicUsize::new(0);
        let result = ppatc::eval::par_map_chunks(n, jobs, &budget, |start, end| {
            (start..end)
                .map(|i| {
                    if calls.fetch_add(1, Ordering::Relaxed) + 1 == cancel_after {
                        token.cancel();
                    }
                    (i as f64).sqrt()
                })
                .collect()
        });
        let Err(PpatcError::Interrupted {
            reason,
            completed,
            total,
        }) = result
        else {
            panic!("jobs = {jobs}: expected an interrupt");
        };
        assert_eq!(reason, ppatc::InterruptReason::Cancelled);
        assert_eq!(total, n);
        // Progress is reported as sorted, disjoint, in-range index runs.
        let mut done = 0;
        let mut prev_end = 0;
        for &(start, end) in &completed {
            assert!(start >= prev_end, "jobs = {jobs}: overlapping runs");
            assert!(
                end > start && end <= n,
                "jobs = {jobs}: bad run ({start}, {end})"
            );
            done += end - start;
            prev_end = end;
        }
        assert!(
            done < n,
            "jobs = {jobs}: a cancelled run cannot be complete"
        );
    }
}

#[test]
fn deadline_exhaustion_interrupts_a_raster_with_a_typed_reason() {
    let map = paper_map();
    let supervisor = ppatc::Supervisor::new()
        .with_budget(ppatc::RunBudget::unlimited().with_deadline(std::time::Instant::now()));
    let err = no_panic("raster under an expired deadline", || {
        map.try_raster_supervised((0.5, 3.0), (0.25, 1.5), 120, 100, 4, &supervisor)
    })
    .expect_err("an expired deadline stops the raster");
    assert!(
        matches!(
            err,
            PpatcError::Interrupted {
                reason: ppatc::InterruptReason::DeadlineExpired,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn interrupted_monte_carlo_resumes_byte_identically_from_its_journal() {
    let path = scratch_journal("montecarlo-resume");
    let _ = std::fs::remove_file(&path);
    let config = MonteCarloConfig::new(3_000, 2025).expect("valid config");
    let ranges = UncertaintyRanges::paper_default();
    let map = paper_map();

    // Reference: the uninterrupted, unjournaled sweep.
    let reference = sweep(&map, &ranges, &config).expect("reference sweep completes");

    // A source that cancels its own run partway through.
    struct SelfCancelling<'a> {
        inner: &'a TcdpMap,
        token: ppatc::CancelToken,
        calls: AtomicUsize,
        cancel_after: usize,
    }
    impl RatioSource for SelfCancelling<'_> {
        fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.cancel_after {
                self.token.cancel();
            }
            self.inner.tcdp_ratio(sample)
        }
    }
    let token = ppatc::CancelToken::new();
    let source = SelfCancelling {
        inner: &map,
        token: token.clone(),
        calls: AtomicUsize::new(0),
        cancel_after: 1_000,
    };
    let supervisor = ppatc::Supervisor::new()
        .with_budget(ppatc::RunBudget::unlimited().with_cancel(&token))
        .with_checkpoint(&path);
    let err = montecarlo::try_run_supervised(&source, &ranges, &config, 4, &supervisor)
        .expect_err("the run cancels itself");
    let PpatcError::Interrupted { completed, .. } = err else {
        panic!("expected an interrupt, got {err}");
    };
    assert!(!completed.is_empty(), "partial progress must be journaled");

    // Resume from the journal with a fresh supervisor: finished chunks
    // replay from disk, the rest is recomputed, and the merged result is
    // exactly the uninterrupted sweep.
    let resumed_supervisor = ppatc::Supervisor::new()
        .with_checkpoint(&path)
        .resuming(true);
    let resumed = montecarlo::try_run_supervised(&map, &ranges, &config, 4, &resumed_supervisor)
        .expect("resume completes");
    assert_eq!(reference, resumed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupted_raster_resumes_byte_identically_from_its_journal() {
    let path = scratch_journal("raster-resume");
    let _ = std::fs::remove_file(&path);
    let map = paper_map();
    let window = ((0.5, 3.0), (0.25, 1.5));
    let (nx, ny) = (96, 80);

    let reference = map
        .try_raster_jobs(window.0, window.1, nx, ny, 1)
        .expect("reference raster completes");

    // First pass: journal under an already-expired deadline. The run stops
    // before computing anything new, but the journal (header only) is
    // valid. Then a second pass with a live budget journals real chunks
    // but is cancelled partway; the third pass resumes to completion.
    let expired = ppatc::Supervisor::new()
        .with_budget(ppatc::RunBudget::unlimited().with_deadline(std::time::Instant::now()))
        .with_checkpoint(&path);
    let err = map
        .try_raster_supervised(window.0, window.1, nx, ny, 4, &expired)
        .expect_err("expired deadline interrupts");
    assert!(matches!(err, PpatcError::Interrupted { .. }));

    let resumed = ppatc::Supervisor::new()
        .with_checkpoint(&path)
        .resuming(true);
    let grid = map
        .try_raster_supervised(window.0, window.1, nx, ny, 4, &resumed)
        .expect("resume completes the raster");
    let bits = |g: &[(f64, f64, f64)]| {
        g.iter()
            .map(|(x, y, r)| (x.to_bits(), y.to_bits(), r.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&reference), bits(&grid));

    // A second resume replays everything from disk and still matches.
    let replayed = map
        .try_raster_supervised(window.0, window.1, nx, ny, 2, &resumed)
        .expect("full replay completes");
    assert_eq!(bits(&reference), bits(&replayed));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Cross-layer: errors compose into the unified taxonomy.
// ---------------------------------------------------------------------------

#[test]
fn every_layer_error_converts_into_ppatc_error() {
    let spice_err = SpiceError::NoConvergence {
        analysis: "dc",
        time: 0.0,
        residual: 1.0,
    };
    let unified: PpatcError = spice_err.into();
    assert!(matches!(unified, PpatcError::Spice(_)));
    assert!(std::error::Error::source(&unified).is_some());

    let validation = Lifetime::try_months(-1.0).expect_err("negative lifetime");
    let unified: PpatcError = validation.into();
    assert!(matches!(unified, PpatcError::Validation(_)));
    let msg = unified.to_string();
    assert!(msg.contains("lifetime_months"), "{msg}");
}

// ---------------------------------------------------------------------------
// Supervision edge cases: degenerate deadlines, racing cancellation, and
// chunks that panic wholesale.
// ---------------------------------------------------------------------------

#[test]
fn an_already_expired_deadline_interrupts_before_the_first_item() {
    let past = std::time::Instant::now();
    for (label, budget) in [
        (
            "deadline pinned to now",
            ppatc::RunBudget::unlimited().with_deadline(past),
        ),
        (
            "zero-duration deadline",
            ppatc::RunBudget::unlimited().with_deadline_in(std::time::Duration::ZERO),
        ),
    ] {
        let calls = AtomicUsize::new(0);
        let result = ppatc::eval::par_map_chunks(512, 4, &budget, |start, end| {
            calls.fetch_add(end - start, Ordering::Relaxed);
            (start..end).map(|i| i as f64).collect()
        });
        let Err(PpatcError::Interrupted {
            reason,
            completed,
            total,
        }) = result
        else {
            panic!("{label}: an expired deadline must interrupt, got Ok");
        };
        assert_eq!(reason, ppatc::InterruptReason::DeadlineExpired, "{label}");
        assert_eq!(total, 512, "{label}");
        assert!(
            completed.is_empty(),
            "{label}: nothing ran, so no progress spans: {completed:?}"
        );
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "{label}: the budget is polled before the first chunk is claimed"
        );
    }
}

#[test]
fn cancellation_raced_from_a_second_thread_interrupts_cooperatively() {
    let n = 4_000usize;
    let token = ppatc::CancelToken::new();
    let budget = ppatc::RunBudget::unlimited().with_cancel(&token);
    let first_item_seen = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        // The canceller lives on a different thread than every worker and
        // fires as soon as the sweep is demonstrably in flight.
        let canceller_token = token.clone();
        let first_item_seen = &first_item_seen;
        scope.spawn(move || {
            while !first_item_seen.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            canceller_token.cancel();
        });
        ppatc::eval::par_map_chunks(n, 4, &budget, |start, end| {
            (start..end)
                .map(|i| {
                    first_item_seen.store(true, Ordering::Release);
                    // Keep items slow enough that the run outlives the
                    // canceller.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    (i as f64).ln_1p()
                })
                .collect()
        })
    });
    let Err(PpatcError::Interrupted {
        reason,
        completed,
        total,
    }) = result
    else {
        panic!("a cancellation raced mid-run must interrupt");
    };
    assert_eq!(reason, ppatc::InterruptReason::Cancelled);
    assert_eq!(total, n);
    let done: usize = completed.iter().map(|&(s, e)| e - s).sum();
    assert!(done < n, "a cancelled run cannot be complete ({done}/{n})");
    let mut prev_end = 0;
    for &(start, end) in &completed {
        assert!(
            start >= prev_end && end > start && end <= n,
            "bad spans: {completed:?}"
        );
        prev_end = end;
    }
}

#[test]
fn a_chunk_whose_every_item_panics_is_fully_accounted() {
    // Direct engine level: all 64 items of the run panic; the run still
    // completes Ok with every index listed as panicked, in index order,
    // and the first one typed as a WorkerPanic.
    let budget = ppatc::RunBudget::unlimited();
    let mapped = no_panic("all-panic sweep at 4 workers", || {
        ppatc::eval::par_map_chunks::<f64, _>(64, 4, &budget, |start, _end| {
            panic!("injected: chunk at {start} always panics")
        })
    })
    .expect("wholesale panics are isolated, not fatal");
    assert!(mapped.values.is_empty());
    assert_eq!(mapped.panicked, (0..64).collect::<Vec<_>>());
    assert_eq!(
        mapped.try_complete(),
        Err(PpatcError::WorkerPanic { index: 0 })
    );

    // Monte-Carlo level: a source that panics on every sample wipes out
    // the whole run. Even with a saturated failure budget of 1.0 the
    // result is a *typed* NoSurvivingSamples error (quantiles of an empty
    // set are meaningless), never an escaped panic — and the serial and
    // parallel sweeps agree on it.
    let source = PanickyBelowLifetime {
        inner: paper_map(),
        cut_months: f64::INFINITY,
    };
    let config = MonteCarloConfig::new(400, 23)
        .expect("valid config")
        .with_failure_budget(1.0)
        .expect("valid budget");
    let ranges = UncertaintyRanges::paper_default();
    let supervisor = ppatc::Supervisor::new();
    for jobs in [1, 8] {
        let err = no_panic("all-panic Monte Carlo", || {
            montecarlo::try_run_supervised(&source, &ranges, &config, jobs, &supervisor)
        })
        .expect_err("a total wipeout is a structured error");
        assert!(
            matches!(err, PpatcError::NoSurvivingSamples { samples: 400 }),
            "jobs = {jobs}: every panic is accounted before the error: {err}"
        );
    }
}
