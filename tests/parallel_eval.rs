//! Serial-vs-parallel determinism of the evaluation engine.
//!
//! Every parallel entry point in the workspace must return results that
//! are *byte-identical* to its serial counterpart for any worker count:
//! Monte-Carlo sample `i` is a pure function of `(seed, i)`, raster point
//! `(i, j)` of its grid coordinates, and design-space candidate `k` of its
//! enumeration index, so how the work is sharded must be unobservable.

use ppatc::montecarlo::{self, MonteCarloConfig, UncertaintyRanges};
use ppatc::optimize::{DesignSpace, Optimizer};
use ppatc::{CaseStudy, Lifetime, RunBudget, Supervisor};
use ppatc_workloads::{Workload, WorkloadRun};
use std::sync::OnceLock;

const JOBS: [usize; 3] = [1, 2, 8];

fn short_matmul() -> &'static WorkloadRun {
    static RUN: OnceLock<WorkloadRun> = OnceLock::new();
    RUN.get_or_init(|| {
        Workload::matmul_int()
            .execute_with_reps(1)
            .expect("matmul-int runs")
    })
}

#[test]
fn monte_carlo_is_byte_identical_across_worker_counts() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let ranges = UncertaintyRanges::paper_default();
    let config = MonteCarloConfig::new(5000, 42).expect("sample count >= 1");
    let sweep = |jobs: usize| {
        montecarlo::try_run_supervised(&map, &ranges, &config, jobs, &Supervisor::new())
    };
    let serial = sweep(1).expect("serial run");
    for jobs in JOBS {
        let parallel = sweep(jobs).expect("parallel run");
        assert_eq!(serial, parallel, "jobs = {jobs}");
        // PartialEq on f64 admits -0.0 == 0.0; pin the actual bits too.
        let (s05, s50, s95) = serial.ratio_quantiles;
        let (p05, p50, p95) = parallel.ratio_quantiles;
        assert_eq!(
            (s05.to_bits(), s50.to_bits(), s95.to_bits()),
            (p05.to_bits(), p50.to_bits(), p95.to_bits()),
            "quantile bits, jobs = {jobs}"
        );
    }
}

#[test]
fn sensitivity_shares_are_byte_identical_across_worker_counts() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let ranges = UncertaintyRanges::paper_default();
    let shares = |jobs: usize| {
        montecarlo::try_sensitivity_supervised(
            &map,
            &ranges,
            2000,
            42,
            jobs,
            &RunBudget::unlimited(),
        )
    };
    let serial = shares(1).expect("serial shares");
    for jobs in JOBS {
        let parallel = shares(jobs).expect("shares");
        assert_eq!(serial.len(), parallel.len(), "jobs = {jobs}");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0, "source order, jobs = {jobs}");
            assert_eq!(s.1.to_bits(), p.1.to_bits(), "{}: jobs = {jobs}", s.0);
        }
    }
}

#[test]
fn raster_grid_is_byte_identical_across_worker_counts() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let serial = map
        .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 31, 17, 1)
        .expect("serial raster");
    for jobs in JOBS {
        let parallel = map
            .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 31, 17, jobs)
            .expect("parallel raster");
        assert_eq!(serial.len(), parallel.len(), "jobs = {jobs}");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                (s.0.to_bits(), s.1.to_bits(), s.2.to_bits()),
                (p.0.to_bits(), p.1.to_bits(), p.2.to_bits()),
                "jobs = {jobs}"
            );
        }
    }
}

#[test]
fn design_space_ranking_is_identical_across_worker_counts() {
    let optimizer = Optimizer::new(DesignSpace::paper_default(), Lifetime::months(24.0));
    let serial = optimizer.run_jobs(short_matmul(), 1);
    assert!(!serial.is_empty(), "paper-default space yields candidates");
    for jobs in JOBS {
        let parallel = optimizer.run_jobs(short_matmul(), jobs);
        assert_eq!(serial.len(), parallel.len(), "jobs = {jobs}");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.technology, p.technology, "jobs = {jobs}");
            assert_eq!(s.flavor, p.flavor, "jobs = {jobs}");
            assert_eq!(
                s.f_clk.as_megahertz().to_bits(),
                p.f_clk.as_megahertz().to_bits(),
                "jobs = {jobs}"
            );
            assert_eq!(
                s.tcdp.as_grams_per_hertz().to_bits(),
                p.tcdp.as_grams_per_hertz().to_bits(),
                "tcdp bits, jobs = {jobs}"
            );
            assert_eq!(s.feasible, p.feasible, "jobs = {jobs}");
        }
        let front_serial = optimizer.pareto_front_jobs(short_matmul(), 1);
        let front_parallel = optimizer.pareto_front_jobs(short_matmul(), jobs);
        assert_eq!(
            front_serial.len(),
            front_parallel.len(),
            "front size, jobs = {jobs}"
        );
    }
}

#[test]
fn sample_streams_do_not_depend_on_total_sample_count() {
    // The bug this guards against: a single RNG threaded through the whole
    // sweep makes sample i depend on how many samples precede it. With
    // counter-indexed streams, sample i is a pure function of (seed, i).
    let ranges = UncertaintyRanges::paper_default();
    for i in [0u64, 1, 17, 99] {
        let a = montecarlo::draw_sample(7, i, &ranges);
        let b = montecarlo::draw_sample(7, i, &ranges);
        assert_eq!(a, b, "sample {i} must be reproducible in isolation");
    }
}
