//! `explore`: in-process library calls at `jobs = default_jobs()` — Monte
//! Carlo, raster, Pareto front and a case study at an eDRAM size this
//! process has not characterized yet. The ISS runs only in set-up.

use crate::golden;
use crate::loops::{Family, Kind};
use crate::sys::{self, Usage};
use crate::trace::{count_run, LayerCounters, Tracer};
use ppatc::montecarlo::{self, MonteCarloConfig, MonteCarloResult, UncertaintyRanges};
use ppatc::optimize::{Candidate, DesignSpace, Optimizer};
use ppatc::{
    CaseStudy, EmbodiedPipeline, Lifetime, SiVtFlavor, Supervisor, SystemDesign, TcdpMap,
    Technology, UsagePattern,
};
use ppatc_edram::{EdramMacro, Organization};
use ppatc_units::rng::SplitMix64;
use ppatc_units::{CarbonIntensity, Frequency};
use ppatc_workloads::{Workload, WorkloadRun};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Three Monte-Carlo sweeps, two rasters, two Pareto fronts and one
/// capacity study per block.
const BLOCK: &[(Kind, usize)] = &[
    (Kind::Mc, 3),
    (Kind::Raster, 2),
    (Kind::Pareto, 2),
    (Kind::Capacity, 1),
];
/// One of each kind per block when another workload borrows this family.
const SIDE_BLOCK: &[(Kind, usize)] = &[
    (Kind::Mc, 1),
    (Kind::Raster, 1),
    (Kind::Pareto, 1),
    (Kind::Capacity, 1),
];
/// Samples per Monte-Carlo op.
const MC_SAMPLES: usize = 10_000;
/// Raster resolution per axis.
const RASTER_N: usize = 512;
/// About one op in this many is recomputed serially after the loop ...
const CHECK_EVERY: u64 = 16;
/// ... up to this many per kind.
const MAX_CHECKS: usize = 12;
/// Salt of the parameter stream.
const PARAM_SALT: u64 = 0x6578_706c_6f72_6521;
/// Salt of the eDRAM-organization permutation.
const ORG_SALT: u64 = 0x6f72_6761_6e69_7a65;

/// A sampled op's inputs and output, recomputed serially after the loop.
enum Check {
    Mc {
        map: TcdpMap,
        config: MonteCarloConfig,
        result: MonteCarloResult,
    },
    Raster {
        map: TcdpMap,
        window: ((f64, f64), (f64, f64)),
        digest: u64,
    },
    Pareto {
        optimizer: Optimizer,
        front: Vec<Candidate>,
    },
    Capacity {
        point: CapacityPoint,
        ratio: f64,
    },
}

/// One capacity op's inputs.
#[derive(Clone, Debug)]
struct CapacityPoint {
    org: Organization,
    f_mhz: f64,
    lifetime_months: f64,
    usage: UsagePattern,
}

/// The in-process library family.
pub struct ExploreFamily {
    block: &'static [(Kind, usize)],
    jobs: usize,
    run: WorkloadRun,
    study: CaseStudy,
    rng: SplitMix64,
    orgs: Vec<(u32, u32, u32)>,
    next_org: usize,
    checks: Vec<Check>,
    checks_per_kind: BTreeMap<Kind, usize>,
    phase_start: Usage,
    phase_counters: LayerCounters,
    /// This harness, re-run for set-ups in fresh processes.
    harness: PathBuf,
    seed: u64,
}

/// Every eDRAM organization a capacity op may draw — even sizes from 2 kB
/// to 1 MB, 512 B to 8 kB sub-arrays, 8- to 64-bit words: 7,679 of them —
/// except the paper's own, in seeded order. A 55 s run uses about 1,900.
fn org_order(seed: u64) -> Vec<(u32, u32, u32)> {
    let mut orgs = Vec::new();
    for kb in (2..=1024u32).step_by(2) {
        for sub in [512u32, 1024, 2048, 4096, 8192] {
            for word in [8u32, 16, 32, 64] {
                if (kb * 1024) % sub == 0 && (kb, sub, word) != (64, 2048, 32) {
                    orgs.push((kb * 1024, sub, word));
                }
            }
        }
    }
    let mut rng = SplitMix64::stream(seed, ORG_SALT);
    for i in (1..orgs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        orgs.swap(i, j);
    }
    orgs
}

/// Digest of a raster grid's exact bits.
fn grid_digest(grid: &[(f64, f64, f64)]) -> u64 {
    let bytes: Vec<u8> = grid
        .iter()
        .flat_map(|&(x, y, r)| [x, y, r])
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    golden::fnv1a(&bytes)
}

impl ExploreFamily {
    /// Set-up: the ISS run, the paper case study, and one optimizer pass
    /// that designs every candidate the Pareto ops revisit. `harness` is
    /// this program, for later set-ups in fresh processes.
    pub fn setup(
        seed: u64,
        harness: &Path,
        side: bool,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let jobs = ppatc::eval::default_jobs();
        let before = LayerCounters::now();
        let s = tracer.begin("m0.execute");
        let run = Workload::matmul_int()
            .execute()
            .map_err(|e| e.to_string())?;
        tracer.end(s);
        count_run(tracer, "matmul-int", &run);
        golden::check(&golden::kernel_line("matmul-int", &run))?;
        let s = tracer.begin("core.study");
        let study = CaseStudy::paper(&run).map_err(|e| e.to_string())?;
        tracer.end(s);
        let s = tracer.begin("core.optimize");
        std::hint::black_box(
            Optimizer::new(DesignSpace::paper_default(), Lifetime::months(24.0))
                .run_jobs(&run, jobs),
        );
        tracer.end(s);
        tracer.add(
            "core.optimize_candidates",
            DesignSpace::paper_default().len() as f64,
        );
        before.add_delta(tracer);
        Ok(Self {
            block: if side { SIDE_BLOCK } else { BLOCK },
            jobs,
            run,
            study,
            rng: SplitMix64::stream(seed, PARAM_SALT),
            orgs: org_order(seed),
            next_org: 0,
            checks: Vec::new(),
            checks_per_kind: BTreeMap::new(),
            phase_start: Usage::default(),
            phase_counters: LayerCounters::now(),
            harness: harness.to_path_buf(),
            seed,
        })
    }

    /// Whether this op is recomputed serially after the loop.
    fn sampled(&mut self, kind: Kind) -> bool {
        let draw = self.rng.next_below(CHECK_EVERY) == 0;
        let taken = self.checks_per_kind.entry(kind).or_insert(0);
        if draw && *taken < MAX_CHECKS {
            *taken += 1;
            true
        } else {
            false
        }
    }

    fn lifetime(&mut self) -> Result<Lifetime, String> {
        Lifetime::try_months(self.rng.uniform(6.0, 120.0)).map_err(|e| e.to_string())
    }

    fn mc(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let lifetime = self.lifetime()?;
        let seed = self.rng.next_u64();
        let check = self.sampled(Kind::Mc);
        tracer.note_input(&format!("mc {lifetime:?} {seed}"));
        let config = MonteCarloConfig::new(MC_SAMPLES, seed).map_err(|e| e.to_string())?;
        let ranges = UncertaintyRanges::paper_default();
        let start = Instant::now();
        let map = self.study.tcdp_map(lifetime);
        let s = tracer.begin("core.montecarlo");
        let result =
            montecarlo::try_run_supervised(&map, &ranges, &config, self.jobs, &Supervisor::new());
        tracer.end(s);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let result = result.map_err(|e| e.to_string())?;
        tracer.add("core.mc_samples", result.samples as f64);
        tracer.add("core.mc_failed", result.failures.total() as f64);
        if result.samples != MC_SAMPLES
            || result.evaluated + result.failures.total() != MC_SAMPLES
            || !(0.0..=1.0).contains(&result.p_m3d_wins)
        {
            return Err(format!("implausible Monte-Carlo summary: {result}"));
        }
        if check {
            self.checks.push(Check::Mc {
                map,
                config,
                result,
            });
        }
        Ok(ms)
    }

    fn raster(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let lifetime = self.lifetime()?;
        let x0 = self.rng.uniform(0.1, 1.0);
        let x = (x0, x0 + self.rng.uniform(0.5, 3.0));
        let y0 = self.rng.uniform(0.1, 1.0);
        let y = (y0, y0 + self.rng.uniform(0.5, 3.0));
        let check = self.sampled(Kind::Raster);
        tracer.note_input(&format!("raster {lifetime:?} {x:?} {y:?}"));
        let start = Instant::now();
        let map = self.study.tcdp_map(lifetime);
        let s = tracer.begin("core.raster");
        let grid = map.try_raster_jobs(x, y, RASTER_N, RASTER_N, self.jobs);
        tracer.end(s);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let grid = grid.map_err(|e| e.to_string())?;
        tracer.add("core.isoline_points", grid.len() as f64);
        if grid.len() != RASTER_N * RASTER_N
            || grid.iter().any(|&(_, _, r)| !(r.is_finite() && r > 0.0))
        {
            return Err("raster has missing or non-positive ratios".to_string());
        }
        if check {
            self.checks.push(Check::Raster {
                map,
                window: (x, y),
                digest: grid_digest(&grid),
            });
        }
        Ok(ms)
    }

    fn pareto(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let lifetime = self.lifetime()?;
        let hours = self.rng.uniform(0.5, 12.0);
        let ci = self.rng.uniform(20.0, 800.0);
        let check = self.sampled(Kind::Pareto);
        tracer.note_input(&format!("pareto {lifetime:?} {hours} {ci}"));
        let usage = UsagePattern::try_new(hours, CarbonIntensity::from_g_per_kwh(ci))
            .map_err(|e| e.to_string())?;
        let optimizer = Optimizer::new(DesignSpace::paper_default(), lifetime).with_usage(usage);
        let start = Instant::now();
        let s = tracer.begin("core.optimize");
        let front = optimizer.pareto_front_jobs(&self.run, self.jobs);
        tracer.end(s);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.add(
            "core.optimize_candidates",
            DesignSpace::paper_default().len() as f64,
        );
        if front.is_empty() || front.iter().any(|c| !c.feasible) {
            return Err("empty or infeasible Pareto front".to_string());
        }
        if check {
            self.checks.push(Check::Pareto { optimizer, front });
        }
        Ok(ms)
    }

    fn capacity(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let &(bytes, sub, word) = self
            .orgs
            .get(self.next_org)
            .ok_or("every eDRAM organization is already characterized")?;
        self.next_org += 1;
        let point = CapacityPoint {
            org: Organization::new(bytes, sub, word),
            f_mhz: self.rng.uniform(100.0, 300.0),
            lifetime_months: self.rng.uniform(6.0, 120.0),
            usage: UsagePattern::try_new(
                2.0,
                CarbonIntensity::from_g_per_kwh(self.rng.uniform(20.0, 800.0)),
            )
            .map_err(|e| e.to_string())?,
        };
        let check = self.sampled(Kind::Capacity);
        tracer.note_input(&format!("capacity {point:?}"));
        let start = Instant::now();
        let ratio = capacity_ratio(&point, &self.run, tracer)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if !(ratio.is_finite() && ratio > 0.0) {
            return Err(format!("capacity ratio {ratio}"));
        }
        if check {
            self.checks.push(Check::Capacity { point, ratio });
        }
        Ok(ms)
    }
}

/// The capacity op: both designs at `point`, their case study, and its tCDP
/// ratio. Traced, the eDRAM macros are characterized first in spans of
/// their own (the designs then hit the memo) and the embodied carbon of
/// each design is timed on its own.
fn capacity_ratio(
    point: &CapacityPoint,
    run: &WorkloadRun,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let f = Frequency::from_megahertz(point.f_mhz);
    let lifetime = Lifetime::try_months(point.lifetime_months).map_err(|e| e.to_string())?;
    if tracer.spans_on() {
        for tech in Technology::ALL {
            let s = tracer.begin("edram.characterize");
            let m = EdramMacro::characterize_with(tech, point.org.clone());
            tracer.end(s);
            m.map_err(|e| e.to_string())?;
        }
    }
    let s = tracer.begin("core.design");
    let designs = Technology::ALL.map(|tech| {
        SystemDesign::with_flavor_and_memory(tech, f, SiVtFlavor::Rvt, point.org.clone())
    });
    tracer.end(s);
    let [si, m3d] = designs;
    let (si, m3d) = (
        si.map_err(|e| e.to_string())?,
        m3d.map_err(|e| e.to_string())?,
    );
    let pipeline = EmbodiedPipeline::paper_default();
    if tracer.spans_on() {
        for design in [&si, &m3d] {
            let s = tracer.begin("core.embodied");
            std::hint::black_box(pipeline.per_good_die(design));
            tracer.end(s);
        }
    }
    let s = tracer.begin("core.study");
    let study = CaseStudy::from_designs(si, m3d, run, pipeline, point.usage);
    let ratio = study.tcdp_ratio(lifetime);
    tracer.end(s);
    Ok(ratio)
}

impl Family for ExploreFamily {
    fn block(&self) -> &'static [(Kind, usize)] {
        self.block
    }

    fn begin_phase(&mut self) -> Result<(), String> {
        self.phase_start = sys::self_usage();
        self.phase_counters = LayerCounters::now();
        Ok(())
    }

    fn run_op(&mut self, kind: Kind, tracer: &mut Tracer) -> Result<f64, String> {
        match kind {
            Kind::Mc => self.mc(tracer),
            Kind::Raster => self.raster(tracer),
            Kind::Pareto => self.pareto(tracer),
            Kind::Capacity => self.capacity(tracer),
            other => Err(format!("explore family cannot run `{}`", other.name())),
        }
    }

    fn end_phase(&mut self, tracer: &mut Tracer) -> Result<Usage, String> {
        let now = sys::self_usage();
        self.phase_counters.add_delta(tracer);
        Ok(Usage {
            cpu: now.cpu.saturating_sub(self.phase_start.cpu),
            max_rss_kb: now.max_rss_kb,
        })
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let ranges = UncertaintyRanges::paper_default();
        let mut quiet = Tracer::new(false);
        for check in std::mem::take(&mut self.checks) {
            let problem = match check {
                Check::Mc {
                    map,
                    config,
                    result,
                } => {
                    let serial = montecarlo::try_run_supervised(
                        &map,
                        &ranges,
                        &config,
                        1,
                        &Supervisor::new(),
                    );
                    let scalar = montecarlo::try_run_scalar(&map, &ranges, &config, 1);
                    match (serial, scalar) {
                        (Ok(a), Ok(b)) if a == result && b == result => None,
                        _ => Some("mc differs from its serial or scalar recomputation"),
                    }
                }
                Check::Raster {
                    map,
                    window: (x, y),
                    digest,
                } => match map.try_raster_jobs(x, y, RASTER_N, RASTER_N, 1) {
                    Ok(grid) if grid_digest(&grid) == digest => None,
                    _ => Some("raster differs from its serial recomputation"),
                },
                Check::Pareto { optimizer, front } => (optimizer.pareto_front_jobs(&self.run, 1)
                    != front)
                    .then_some("Pareto front differs from its serial recomputation"),
                Check::Capacity { point, ratio } => {
                    let fresh = Technology::ALL.iter().all(|&t| {
                        matches!(
                            (
                                EdramMacro::characterize_uncached(t, point.org.clone()),
                                EdramMacro::characterize_with(t, point.org.clone()),
                            ),
                            (Ok(a), Ok(b)) if a == b
                        )
                    });
                    let again = capacity_ratio(&point, &self.run, &mut quiet);
                    match again {
                        Ok(r) if fresh && r.to_bits() == ratio.to_bits() => None,
                        _ => Some("capacity differs from an uncached recomputation"),
                    }
                }
            };
            if let Some(p) = problem {
                failures.push(p.to_string());
            }
        }
        failures
    }

    /// A cold set-up needs a fresh process: the eDRAM memo is process-wide.
    /// The child's CPU and memory are not this process's own usage.
    fn setup_sample(&mut self, _tracer: &mut Tracer) -> Result<f64, String> {
        let out = Command::new(&self.harness)
            .args(["--setup-only", "--seed", &self.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        text.lines()
            .find_map(|l| l.strip_prefix("setup_s="))
            .and_then(|v| v.parse().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| "set-up process failed".to_string())
    }
}

/// Body of `--setup-only`: one cold explore set-up in this fresh process.
/// Returns its wall time, s.
pub fn setup_probe(seed: u64) -> Result<f64, String> {
    let harness = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    ExploreFamily::setup(seed, &harness, false, &mut Tracer::new(false))?;
    Ok(start.elapsed().as_secs_f64())
}
