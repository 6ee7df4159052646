//! `perfbench`: the end-to-end and per-layer benchmark of the ppatc
//! pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-cold|explore|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one caller that puts one layer on
//! the hot path (`WORKLOADS.md` says which and why). With `--trace 0` it
//! runs only its own op kinds for `--seconds` and prints every end-to-end
//! metric. With `--trace 1` it times a fixed, seed-given number of ops, with
//! short chunks of the other two workloads' op kinds interleaved so that
//! every layer runs, twice — untraced in a fresh process, then traced here —
//! and prints every per-layer metric plus the tracing overhead. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod bins;
mod explore;
mod golden;
mod loops;
mod paper;
mod serve;
mod stats;
mod sys;
mod trace;

use bins::Bins;
use explore::ExploreFamily;
use loops::{drive, Family, Kind, LoopStats, Side, Stop};
use paper::PaperFamily;
use serve::ServeFamily;
use stats::{median, tail_summary};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <paper-cold|explore|serve-mixed> --seed N \
                     --seconds S --trace <0|1> [--blocks N]";

/// Set-ups per timed run, the first before the loop and the rest spread
/// through it; `setup_s` is their median.
const SETUP_REPEATS: u32 = 9;
/// Share of `--seconds` one traced pass is sized to take on a 2-vCPU host.
const TRACE_SHARE: f64 = 0.35;
/// Table II's cycle count for matmul-int.
const PAPER_CYCLES: f64 = 20_047_348.0;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperCold,
    Explore,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "paper-cold" => Ok(Self::PaperCold),
            "explore" => Ok(Self::Explore),
            "serve-mixed" => Ok(Self::ServeMixed),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperCold => "paper-cold",
            Self::Explore => "explore",
            Self::ServeMixed => "serve-mixed",
        }
    }

    /// Rough wall time of one main block plus its share of side chunks on
    /// a 2-vCPU host, s — only sizes the traced passes, so their op counts
    /// depend on nothing measured.
    fn block_seconds(self) -> f64 {
        match self {
            Self::PaperCold => 0.8,
            Self::Explore => 0.047,
            Self::ServeMixed => 0.015,
        }
    }

    /// How the other two workloads' op kinds are interleaved in a
    /// fixed-block (traced) pass so that every layer runs on every workload:
    /// before every `.0`-th main block, each `(family, blocks)` of `.1` runs
    /// one chunk.
    fn schedule(self) -> (u64, [(Workload, u64); 2]) {
        match self {
            Self::PaperCold => (1, [(Self::Explore, 1), (Self::ServeMixed, 8)]),
            Self::Explore => (60, [(Self::PaperCold, 1), (Self::ServeMixed, 8)]),
            Self::ServeMixed => (180, [(Self::PaperCold, 1), (Self::Explore, 3)]),
        }
    }

    /// Whether the run is pinned to one CPU. The query service's round trips
    /// are a few hand-offs between the client and server threads; on two
    /// shared vCPUs, whether those land on the other vCPU (which may have to
    /// be woken) decided a repeat's median (0.016 vs 0.030 ms under the same
    /// background load). On one CPU every hand-off is a local switch. The
    /// server's parallelism is its worker pool, and one client keeps at most
    /// one worker busy.
    fn pinned(self) -> bool {
        self == Self::ServeMixed
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Main-loop block count (instead of `--seconds`); such a pass also runs
    /// the side chunks of [`Workload::schedule`], as a traced pass does.
    blocks: Option<u64>,
}

enum Mode {
    Run(Args),
    SetupOnly(u64),
    ExhibitTraced(String),
    Spawner,
    PrintGolden,
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut blocks = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--blocks" => {
                blocks = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--blocks: {e}"))?,
                )
            }
            "--setup-only" => setup_only = true,
            "--exhibit-traced" => return Ok(Mode::ExhibitTraced(value()?)),
            "--spawner" => return Ok(Mode::Spawner),
            "--print-golden" => return Ok(Mode::PrintGolden),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if setup_only {
        return Ok(Mode::SetupOnly(seed));
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        blocks,
    }))
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::ExhibitTraced(name) => paper::traced_exhibit(&name),
        Mode::Spawner => paper::spawner_loop(),
        Mode::SetupOnly(seed) => explore::setup_probe(seed).map(|s| println!("setup_s={s}")),
        Mode::PrintGolden => bins::build().and_then(|b| print_golden(&b)),
        Mode::Run(args) => bins::build().and_then(|b| {
            if args.workload.pinned() {
                let cpu = sys::pin_to_one_cpu().map_err(|e| format!("pinning: {e}"))?;
                println!("# pinned to cpu {cpu}");
            }
            if args.trace {
                run_traced(&args, &b)
            } else {
                run_untraced(&args, &b)
            }
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the current golden lines (every kernel, both exhibits) in
/// `golden.txt`'s format, for refreshing it after an intended change.
fn print_golden(bins: &Bins) -> Result<(), String> {
    for w in ppatc_workloads::Workload::suite() {
        let run = w.execute().map_err(|e| e.to_string())?;
        println!("{}", golden::kernel_line(w.name(), &run));
    }
    for name in ["table2", "all"] {
        let out = Command::new(&bins.paper)
            .arg(name)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        println!("{}", golden::exhibit_line(name, &out.stdout));
    }
    Ok(())
}

/// A family set up for one run, boxed behind the loop's interface.
struct Prepared {
    family: Box<dyn Family>,
    /// Wall time of the cold set-up taken here, s (none when a side paper
    /// family skips it).
    setups: Vec<f64>,
}

fn journal_path(workload: Workload, seed: u64, role: &str) -> std::path::PathBuf {
    bins::out_dir().join(format!(
        "journal-{}-{seed}-{role}-{}",
        workload.name(),
        std::process::id()
    ))
}

/// Sets `family` up once and returns it ready to loop.
fn prepare(
    family: Workload,
    run: &Args,
    bins: &Bins,
    side: bool,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    match family {
        Workload::PaperCold => {
            let mut f = PaperFamily::new(bins)?;
            let setups = if side {
                Vec::new()
            } else {
                vec![f.setup_once(tracer)?]
            };
            Ok(Prepared {
                family: Box::new(f),
                setups,
            })
        }
        Workload::Explore => {
            let start = Instant::now();
            let f = ExploreFamily::setup(run.seed, &bins.harness, side, tracer)?;
            Ok(Prepared {
                family: Box::new(f),
                setups: vec![start.elapsed().as_secs_f64()],
            })
        }
        Workload::ServeMixed => {
            let role = if side { "side" } else { "main" };
            let mut f = ServeFamily::new(
                &bins.serve,
                journal_path(run.workload, run.seed, role),
                run.seed,
                side,
                tracer,
            )?;
            let setups = vec![f.start()?];
            Ok(Prepared {
                family: Box::new(f),
                setups,
            })
        }
    }
}

/// The main loop's stop rule.
fn main_stop(args: &Args) -> Stop {
    match args.blocks {
        Some(n) => Stop::Blocks(n),
        None => Stop::After(Duration::from_secs(args.seconds)),
    }
}

/// Runs the main loop, with the other workloads' op kinds interleaved when
/// `with_sides`. Returns the main stats, every main set-up (the first,
/// then those the timed loop took) and the side stats.
fn run_loops(
    args: &Args,
    bins: &Bins,
    stop: Stop,
    with_sides: bool,
    tracer: &mut Tracer,
) -> Result<(LoopStats, Vec<f64>, Vec<LoopStats>), String> {
    let mut main = prepare(args.workload, args, bins, false, tracer)?;
    let (every, chunks) = args.workload.schedule();
    let mut side_families = Vec::new();
    for (w, blocks) in chunks.into_iter().filter(|_| with_sides) {
        side_families.push((prepare(w, args, bins, true, tracer)?.family, blocks));
    }
    let mut sides: Vec<Side<'_>> = side_families
        .iter_mut()
        .map(|(f, blocks)| Side {
            family: f.as_mut(),
            blocks_per_chunk: *blocks,
        })
        .collect();
    let (stats, side_stats) = drive(
        main.family.as_mut(),
        &mut sides,
        every,
        args.seed,
        stop,
        SETUP_REPEATS - 1,
        tracer,
    )?;
    let mut setups = main.setups;
    setups.extend(&stats.setups);
    Ok((stats, setups, side_stats))
}

/// Completed ops of a loop.
fn completed(stats: &LoopStats) -> usize {
    stats.samples.values().map(Vec::len).sum()
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints the informational lines and the JSON result line.
fn report(tracer: &Tracer, loops: &[(&str, &LoopStats)], metrics: &[Metric]) {
    for (origin, stats) in loops {
        for (kind, samples) in &stats.samples {
            println!("# {origin} {}: {} ms", kind.name(), tail_summary(samples));
        }
        for e in stats.errors.iter().take(5) {
            eprintln!("perfbench: failed {e}");
        }
    }
    println!("# inputs fnv1a64={:016x}", tracer.inputs_digest());
    println!("# available_parallelism={}", ppatc::eval::default_jobs());
    let attempted: u64 = loops.iter().map(|(_, s)| s.attempted).sum();
    let failed: u64 = loops.iter().map(|(_, s)| s.failed).sum();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && finite && attempted > 0,
        body.join(", ")
    );
}

/// Median op time of `kind`, from whichever loop ran it.
fn p50(loops: &[(&str, &LoopStats)], kind: Kind) -> f64 {
    loops
        .iter()
        .find_map(|(_, s)| s.samples.get(&kind))
        .map_or(0.0, |v| median(v))
}

/// `--trace 0`: the timed loop over the workload's own ops (with the side
/// chunks too under `--blocks`); prints every end-to-end metric.
fn run_untraced(args: &Args, bins: &Bins) -> Result<(), String> {
    let mut tracer = Tracer::new(false);
    let (stats, setups, sides) = run_loops(
        args,
        bins,
        main_stop(args),
        args.blocks.is_some(),
        &mut tracer,
    )?;
    println!("# main busy_ms={} ops={}", stats.busy_ms, completed(&stats));
    let mut loops: Vec<(&str, &LoopStats)> = vec![("main", &stats)];
    loops.extend(sides.iter().map(|s| ("side", s)));
    println!("# setup_s samples: {setups:?}");
    let ops = completed(&stats).max(1) as f64;
    let metrics = [
        metric("setup_s", median(&setups), "s"),
        metric("ops_per_s", ops / (stats.busy_ms / 1e3), "1/s"),
        metric(
            "cpu_ms_per_op",
            stats.usage.cpu.as_secs_f64() * 1e3 / ops,
            "ms",
        ),
        metric("peak_rss_mb", stats.usage.max_rss_kb as f64 / 1024.0, "MB"),
    ];
    report(&tracer, &loops, &metrics);
    Ok(())
}

/// Main-loop blocks of a traced pass: sized from `--seconds` and a fixed
/// per-block estimate, so the same seed always runs the same ops.
fn traced_blocks(args: &Args) -> u64 {
    args.blocks.unwrap_or_else(|| {
        ((args.seconds as f64 * TRACE_SHARE / args.workload.block_seconds()).ceil() as u64).max(1)
    })
}

/// `--trace 1`: the same ops untraced in a fresh process, then traced here;
/// prints every per-layer metric and writes the spans to `out/`.
fn run_traced(args: &Args, bins: &Bins) -> Result<(), String> {
    let blocks = traced_blocks(args);
    let out = Command::new(&bins.harness)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--blocks",
            &blocks.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let untraced_ms = text
        .lines()
        .find_map(|l| l.strip_prefix("# main busy_ms="))
        .and_then(|l| l.split_ascii_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|_| {
            out.status.success()
                && text
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("{\"correct\": true,"))
        })
        .ok_or("untraced pass failed")?;

    let mut tracer = Tracer::new(true);
    let (stats, _, sides) = run_loops(args, bins, Stop::Blocks(blocks), true, &mut tracer)?;
    let mut loops: Vec<(&str, &LoopStats)> = vec![("main", &stats)];
    loops.extend(sides.iter().map(|s| ("side", s)));
    let path = bins::out_dir().join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    let ops = completed(&stats).max(1) as f64;
    let overhead_ms = (stats.busy_ms - untraced_ms) / ops;
    println!(
        "# tracing overhead: traced {:.3} ms - untraced {:.3} ms over {ops} ops = {overhead_ms:.4} ms/op",
        stats.busy_ms, untraced_ms
    );
    let mut metrics = layer_metrics(&tracer, &loops);
    metrics.push(metric("trace.overhead_ms_per_op", overhead_ms, "ms"));
    metrics.push(metric(
        "trace.overhead_pct",
        ratio(100.0 * (stats.busy_ms - untraced_ms), untraced_ms),
        "%",
    ));
    report(&tracer, &loops, &metrics);
    Ok(())
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, from the spans and counts of a traced run.
fn layer_metrics(t: &Tracer, loops: &[(&str, &LoopStats)]) -> Vec<Metric> {
    let c = |name: &str| t.count(name);
    let med = |name: &str| median(&t.durations_ms(name));
    let m0_ms = t.self_ms("m0.execute");
    let instructions = c("m0.instructions");
    let chars = c("edram.characterizations");
    let hits = c("edram.memo_hits");
    let exec_ms: Vec<f64> = {
        let total = t.durations_ms("bench.process");
        let inner = t.children_ms_each("bench.process");
        total.iter().zip(inner).map(|(a, b)| a - b).collect()
    };
    let query_eval = med("serve.query_eval");
    let serve_hits = c("serve.cache_hits");
    let serve_misses = c("serve.cache_misses");
    vec![
        metric("m0.runs", c("m0.runs"), "count"),
        metric("m0.self_ms", m0_ms, "ms"),
        metric("m0.instructions", instructions, "count"),
        metric(
            "m0.minstr_per_s",
            ratio(instructions / 1e6, m0_ms / 1e3),
            "Minstr/s",
        ),
        metric(
            "m0.cycles_vs_paper_pct",
            ratio(c("m0.matmul_cycles"), c("m0.matmul_runs")) / PAPER_CYCLES * 100.0 - 100.0,
            "%",
        ),
        metric("edram.characterizations", chars, "count"),
        metric("edram.self_ms", t.self_ms("edram.characterize"), "ms"),
        metric(
            "edram.ms_per_macro",
            ratio(
                t.self_ms("edram.characterize"),
                t.calls("edram.characterize") as f64,
            ),
            "ms",
        ),
        metric("edram.memo_hits", hits, "count"),
        metric("edram.memo_hit_ratio", ratio(hits, hits + chars), "ratio"),
        metric("spice.recovered", c("spice.recovered"), "count"),
        metric("spice.exhausted", c("spice.exhausted"), "count"),
        metric("core.design_ms", med("core.design"), "ms"),
        metric(
            "core.embodied_calls",
            t.calls("core.embodied") as f64,
            "count",
        ),
        metric("core.embodied_ms", med("core.embodied"), "ms"),
        metric("core.study_ms", med("core.study"), "ms"),
        metric("core.isoline_points", c("core.isoline_points"), "count"),
        metric(
            "core.isoline_ns_per_point",
            ratio(t.total_ms("core.raster") * 1e6, c("core.isoline_points")),
            "ns",
        ),
        metric("core.mc_samples", c("core.mc_samples"), "count"),
        metric(
            "core.mc_ns_per_sample",
            ratio(t.total_ms("core.montecarlo") * 1e6, c("core.mc_samples")),
            "ns",
        ),
        metric("core.mc_failed", c("core.mc_failed"), "count"),
        metric(
            "core.optimize_candidates",
            c("core.optimize_candidates"),
            "count",
        ),
        metric("core.optimize_ms", med("core.optimize"), "ms"),
        metric("bench.render_ms", med("bench.render"), "ms"),
        metric("bench.exec_ms", median(&exec_ms), "ms"),
        metric(
            "serve.accept_wait_ms",
            p50(loops, Kind::Connect) - p50(loops, Kind::Repeat),
            "ms",
        ),
        metric("serve.query_eval_ms", query_eval, "ms"),
        metric(
            "serve.overhead_ms",
            p50(loops, Kind::Fresh) - query_eval,
            "ms",
        ),
        metric(
            "serve.cache_hit_ratio",
            ratio(serve_hits, serve_hits + serve_misses),
            "ratio",
        ),
        metric("serve.cache_misses", serve_misses, "count"),
        metric("serve.journal_bytes", c("serve.journal_bytes"), "bytes"),
        metric("serve.connections", c("serve.connections"), "count"),
        metric("serve.errors", c("serve.errors"), "count"),
    ]
}
