//! `paper-cold`: a fresh `paper table2` or `paper all` process per op, at
//! the binary's default worker count. Traced ops run a fresh process of this
//! harness instead, which calls the same layers in pipeline order with a
//! span around each call.

use crate::bins::Bins;
use crate::golden;
use crate::loops::{Family, Kind};
use crate::sys::{self, Usage};
use crate::trace::{count_run, LayerCounters, Tracer};
use ppatc::Technology;
use ppatc_edram::{EdramMacro, Organization};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Exhibits alternate one-to-one.
const BLOCK: &[(Kind, usize)] = &[(Kind::Table2, 1), (Kind::All, 1)];

/// A small helper process (this harness in `--spawner` mode) that starts
/// each exhibit process and reaps it with `wait4`. The kernel reports a
/// child's peak RSS as at least the peak of the address space it was
/// spawned from (exec records the old one's high-water mark), so spawning
/// from the harness would report the harness's own memory instead.
struct Spawner {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// One exhibit process as the spawner saw it.
struct Spawned {
    exited_zero: bool,
    wall: Duration,
    usage: Usage,
    stdout: Vec<u8>,
}

impl Spawner {
    fn start(harness: &Path) -> Result<Self, String> {
        let mut child = Command::new(harness)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn helper: {e}"))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("helper has no pipes".to_string());
        };
        Ok(Self {
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    /// Runs `argv` to completion in the helper.
    fn run(&mut self, argv: &[&str]) -> Result<Spawned, String> {
        let stdin = self.stdin.as_mut().ok_or("helper closed")?;
        writeln!(stdin, "{}", argv.join("\t"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("helper: {e}"))?;
        let mut header = String::new();
        self.stdout
            .read_line(&mut header)
            .map_err(|e| format!("helper: {e}"))?;
        let f: Vec<u64> = header
            .strip_prefix("done ")
            .ok_or_else(|| format!("helper answered `{}`", header.trim()))?
            .split_ascii_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("helper: {e}"))?;
        let &[ok, wall_ns, cpu_us, rss_kb, len] = f.as_slice() else {
            return Err(format!("helper answered `{}`", header.trim()));
        };
        let mut stdout = vec![0; usize::try_from(len).map_err(|e| e.to_string())?];
        self.stdout
            .read_exact(&mut stdout)
            .map_err(|e| format!("helper: {e}"))?;
        Ok(Spawned {
            exited_zero: ok == 1,
            wall: Duration::from_nanos(wall_ns),
            usage: Usage {
                cpu: Duration::from_micros(cpu_us),
                max_rss_kb: rss_kb,
            },
            stdout,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the helper's loop.
        self.stdin = None;
        let _ = self.child.wait();
    }
}

/// Body of `--spawner`: for each tab-separated command line on stdin, runs
/// it with stdout captured and answers `done <exit 0?> <wall ns> <cpu µs>
/// <peak RSS kB> <stdout bytes>` followed by the stdout bytes.
pub fn spawner_loop() -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut argv = line.split('\t');
        let program = argv.next().ok_or("empty command")?;
        let start = Instant::now();
        let mut child = Command::new(program)
            .args(argv)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {program}: {e}"))?;
        let mut buf = Vec::new();
        let read = child.stdout.take().map(|mut s| s.read_to_end(&mut buf));
        let (exited_zero, usage) = sys::reap(child).map_err(|e| format!("wait: {e}"))?;
        let wall = start.elapsed();
        if !matches!(read, Some(Ok(_))) {
            return Err(format!("reading the stdout of {program} failed"));
        }
        writeln!(
            out,
            "done {} {} {} {} {}",
            u8::from(exited_zero),
            wall.as_nanos(),
            usage.cpu.as_micros(),
            usage.max_rss_kb,
            buf.len()
        )
        .and_then(|()| out.write_all(&buf))
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The exhibit processes.
pub struct PaperFamily {
    bins: Bins,
    spawner: Spawner,
    /// Summed CPU and peak RSS of every exhibit process reaped so far.
    reaped: Usage,
    phase_start: Usage,
}

impl PaperFamily {
    /// A family driving `bins.paper` (or the traced harness).
    pub fn new(bins: &Bins) -> Result<Self, String> {
        Ok(Self {
            bins: bins.clone(),
            spawner: Spawner::start(&bins.harness)?,
            reaped: Usage::default(),
            phase_start: Usage::default(),
        })
    }

    /// One set-up pass: each exhibit once, untimed as an op and
    /// digest-checked. Returns its wall time, s.
    pub fn setup_once(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let start = Instant::now();
        for name in ["table2", "all"] {
            self.exhibit(name, tracer)?;
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// Runs one exhibit process to completion, checks it, and returns its
    /// wall time, ms.
    fn exhibit(&mut self, name: &str, tracer: &mut Tracer) -> Result<f64, String> {
        let traced = tracer.spans_on();
        let program = if traced {
            &self.bins.harness
        } else {
            &self.bins.paper
        };
        let program = program.to_str().ok_or("program path is not UTF-8")?;
        let argv: &[&str] = if traced {
            &[program, "--exhibit-traced", name]
        } else {
            &[program, name]
        };
        let start = Instant::now();
        let done = self.spawner.run(argv)?;
        self.reaped.cpu += done.usage.cpu;
        self.reaped.max_rss_kb = self.reaped.max_rss_kb.max(done.usage.max_rss_kb);
        if !done.exited_zero {
            return Err(format!("`{name}` exited with a failure status"));
        }
        if traced {
            let span = tracer.record("bench.process", start, start + done.wall);
            let text = String::from_utf8_lossy(&done.stdout);
            tracer.import(&text, span);
            let line = text
                .lines()
                .find(|l| l.starts_with("exhibit "))
                .ok_or("traced exhibit printed no digest")?;
            golden::check(line)?;
        } else {
            golden::check(&golden::exhibit_line(name, &done.stdout))?;
        }
        Ok(done.wall.as_secs_f64() * 1e3)
    }
}

impl Family for PaperFamily {
    fn block(&self) -> &'static [(Kind, usize)] {
        BLOCK
    }

    fn begin_phase(&mut self) -> Result<(), String> {
        self.phase_start = self.reaped;
        Ok(())
    }

    fn run_op(&mut self, kind: Kind, tracer: &mut Tracer) -> Result<f64, String> {
        tracer.note_input(kind.name());
        match kind {
            Kind::Table2 => self.exhibit("table2", tracer),
            Kind::All => self.exhibit("all", tracer),
            other => Err(format!("paper family cannot run `{}`", other.name())),
        }
    }

    fn end_phase(&mut self, _tracer: &mut Tracer) -> Result<Usage, String> {
        Ok(Usage {
            cpu: self.reaped.cpu.saturating_sub(self.phase_start.cpu),
            max_rss_kb: self.reaped.max_rss_kb,
        })
    }

    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }

    fn setup_sample(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        // The set-up's exhibit processes are not ops: keep their CPU out of
        // the phase's total.
        let cpu = self.reaped.cpu;
        let seconds = self.setup_once(tracer);
        self.reaped.cpu = cpu;
        seconds
    }
}

/// The eDRAM macros an exhibit characterizes: the paper's 64 kB macro in
/// both technologies, plus for `all` the capacity sweep's other sizes and
/// the sub-array ablation's other M3D partitions.
fn macros(exhibit: &str) -> Vec<(Technology, Organization)> {
    let mut out: Vec<(Technology, Organization)> = Technology::ALL
        .iter()
        .map(|&t| (t, Organization::paper_default()))
        .collect();
    if exhibit == "all" {
        for kb in [16u32, 32, 128, 256] {
            for &t in &Technology::ALL {
                out.push((t, Organization::new(kb * 1024, 2 * 1024, 32)));
            }
        }
        for sub in [512u32, 1024, 4096, 8192, 65536] {
            out.push((
                Technology::M3dIgzoCnfetSi,
                Organization::new(64 * 1024, sub, 32),
            ));
        }
    }
    out
}

/// Body of `--exhibit-traced NAME`: renders one exhibit in a fresh process,
/// calling the layers in pipeline order (ISS, every eDRAM macro the exhibit
/// needs, case study, render) with a span around each, then prints the
/// exhibit's golden line followed by the exported spans and counts.
pub fn traced_exhibit(name: &str) -> Result<(), String> {
    if !matches!(name, "table2" | "all") {
        return Err(format!("no traced exhibit `{name}`"));
    }
    let mut t = Tracer::new(true);
    let before = LayerCounters::now();
    let s = t.begin("m0.execute");
    let run = ppatc_bench::matmul_run();
    t.end(s);
    count_run(&mut t, "matmul-int", run);
    for (tech, org) in macros(name) {
        let s = t.begin("edram.characterize");
        EdramMacro::characterize_with(tech, org).map_err(|e| e.to_string())?;
        t.end(s);
    }
    let s = t.begin("core.study");
    std::hint::black_box(ppatc_bench::case_study());
    t.end(s);
    let s = t.begin("bench.render");
    let output = match name {
        "table2" => ppatc_bench::table2::render(),
        _ => ppatc_bench::render_all_jobs(ppatc::eval::default_jobs()),
    };
    t.end(s);
    before.add_delta(&mut t);
    let stdout = format!("{output}\n");
    println!("{}", golden::exhibit_line(name, stdout.as_bytes()));
    print!("{}", t.export());
    Ok(())
}
