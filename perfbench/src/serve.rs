//! `serve-mixed`: the `ppatc-serve` binary with two workers and a cache
//! journal; one client connection sends hot-set repeats, fresh design
//! points and a few Monte-Carlo queries, and now and then a repeat goes out
//! on a brand-new connection.

use crate::golden;
use crate::loops::{Family, Kind};
use crate::sys::{self, Usage};
use crate::trace::{count_run, LayerCounters, Tracer};
use ppatc::RunBudget;
use ppatc_serve::protocol::{ok_response, parse_response};
use ppatc_serve::query::{try_evaluate, try_parse_request};
use ppatc_serve::{HealthSnapshot, ServeClient};
use ppatc_units::rng::SplitMix64;
use ppatc_workloads::Workload;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The workload's mix: about 2/3 repeats, 1/4 fresh points, 6% Monte Carlo
/// and 2% new connections.
const MAIN_BLOCK: &[(Kind, usize)] = &[
    (Kind::Repeat, 33),
    (Kind::Fresh, 13),
    (Kind::ServeMc, 3),
    (Kind::Connect, 1),
];
/// The mix when another workload borrows this family for its serve metrics:
/// connects are a quarter of the ops so their median settles quickly.
const SIDE_BLOCK: &[(Kind, usize)] = &[(Kind::Repeat, 2), (Kind::Fresh, 1), (Kind::Connect, 1)];
/// Server worker threads.
const WORKERS: &str = "2";
/// About one fresh or Monte-Carlo response in this many is compared with a
/// direct evaluation after the loop (every hot-set response is).
const VERIFY_EVERY: u64 = 4;
/// Design axes a fresh query moves, with their ranges.
const FRESH_AXES: [(&str, f64, f64); 4] = [
    ("f_clk_mhz", 100.0, 500.0),
    ("ci_g_per_kwh", 20.0, 900.0),
    ("hours_per_day", 0.5, 16.0),
    ("lifetime_months", 3.0, 120.0),
];
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// Salt of the parameter stream.
const PARAM_SALT: u64 = 0x7365_7276_655f_6d69;

/// A running server and the client connection the loop uses.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    client: Option<ServeClient>,
}

impl Server {
    /// Drains the server (closing every harness connection first) and waits
    /// for it to exit.
    fn stop(mut self) -> Result<(), String> {
        self.client = None;
        let drained = ServeClient::try_connect(self.addr, CONNECT_TIMEOUT)
            .and_then(|mut c| c.try_request_raw("drain"));
        if drained.is_err() {
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"));
        drained.map_err(|e| format!("drain: {e}"))?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("server exited with {s}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths (`stop` consumes a server that exits
        // on its own): make sure no server outlives the harness.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The query-service family.
pub struct ServeFamily {
    serve_bin: PathBuf,
    journal: PathBuf,
    block: &'static [(Kind, usize)],
    server: Option<Server>,
    kernels: Vec<&'static str>,
    hot: Vec<String>,
    rng: SplitMix64,
    seen: HashSet<String>,
    /// First response per query line; later ones must equal it.
    first: HashMap<String, String>,
    /// Lines whose first response is compared with a direct evaluation.
    to_verify: Vec<String>,
    phase_health: HealthSnapshot,
    phase_usage: Usage,
    phase_journal: u64,
    phase_counters: LayerCounters,
}

/// Names of the suite kernels.
fn kernels() -> Vec<&'static str> {
    Workload::suite().iter().map(Workload::name).collect()
}

impl ServeFamily {
    /// Prepares a family: the seeded hot set, and this process's own memo
    /// (every kernel's ISS run, checked against the committed counts) so
    /// direct evaluations see the same warm state as the server.
    pub fn new(
        serve_bin: &Path,
        journal: PathBuf,
        seed: u64,
        side: bool,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let mut rng = SplitMix64::stream(seed, PARAM_SALT);
        let mut hot = Vec::new();
        for k in kernels() {
            hot.push(format!("eval workload={k}"));
            hot.push(format!(
                "eval workload={k} f_clk_mhz={:.1}",
                rng.uniform(150.0, 500.0)
            ));
            hot.push(format!(
                "eval workload={k} ci_g_per_kwh={:.1} hours_per_day={:.1}",
                rng.uniform(20.0, 900.0),
                rng.uniform(0.5, 16.0)
            ));
            hot.push(format!(
                "eval workload={k} lifetime_months={:.1}",
                rng.uniform(3.0, 120.0)
            ));
        }
        let before = LayerCounters::now();
        for w in Workload::suite() {
            let s = tracer.begin("m0.execute");
            let run = w.execute().map_err(|e| e.to_string());
            tracer.end(s);
            let run = run?;
            count_run(tracer, w.name(), &run);
            golden::check(&golden::kernel_line(w.name(), &run))?;
        }
        for line in &hot {
            let s = tracer.begin("serve.query_eval_warm");
            let direct = direct_response(line);
            tracer.end(s);
            direct?;
        }
        before.add_delta(tracer);
        Ok(Self {
            serve_bin: serve_bin.to_path_buf(),
            journal,
            block: if side { SIDE_BLOCK } else { MAIN_BLOCK },
            server: None,
            kernels: kernels(),
            seen: hot.iter().cloned().collect(),
            to_verify: hot.clone(),
            hot,
            rng,
            first: HashMap::new(),
            phase_health: HealthSnapshot::default(),
            phase_usage: Usage::default(),
            phase_journal: 0,
            phase_counters: LayerCounters::now(),
        })
    }

    /// Starts the loop's server on a fresh journal. Returns the wall time
    /// from spawn to the last hot-set touch, s.
    pub fn start(&mut self) -> Result<f64, String> {
        let journal = self.journal.clone();
        let (server, seconds) = self.spawn_warm(&journal)?;
        self.server = Some(server);
        Ok(seconds)
    }

    /// Starts a server on a fresh `journal`, reads its `listening` line,
    /// connects, and touches every hot-set query once. Returns the server
    /// and the wall time from spawn to the last touch, s.
    fn spawn_warm(&mut self, journal: &Path) -> Result<(Server, f64), String> {
        if let Some(dir) = journal.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        match std::fs::remove_file(journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("removing old journal: {e}"))
            }
            _ => {}
        }
        let start = Instant::now();
        let mut child = Command::new(&self.serve_bin)
            .args(["--port", "0", "--workers", WORKERS, "--cache-journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server has no stdout pipe".to_string());
        };
        let mut server = Server {
            child,
            stdout: BufReader::new(out),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            client: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server stdout: {e}"))?;
            if n == 0 {
                return Err("server exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("ppatc-serve: listening on ") {
                server.addr = addr.parse().map_err(|e| format!("bad address: {e}"))?;
                break;
            }
        }
        let mut client =
            ServeClient::try_connect_split(server.addr, CONNECT_TIMEOUT, Some(REQUEST_TIMEOUT))
                .map_err(|e| format!("connect: {e}"))?;
        for q in &self.hot {
            let resp = client.try_request_raw(q).map_err(|e| e.to_string())?;
            record(&mut self.first, q, resp)?;
        }
        server.client = Some(client);
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// Drains and stops the server.
    fn stop(&mut self) -> Result<(), String> {
        self.server.take().map_or(Ok(()), Server::stop)
    }

    fn server(&mut self) -> Result<&mut Server, String> {
        self.server.as_mut().ok_or_else(|| "no server".to_string())
    }

    /// One request on the loop's connection; returns the raw response and
    /// the round trip, ms.
    fn request(&mut self, line: &str) -> Result<(String, f64), String> {
        let client = self
            .server()?
            .client
            .as_mut()
            .ok_or("no client connection")?;
        let start = Instant::now();
        let resp = client.try_request_raw(line).map_err(|e| e.to_string())?;
        Ok((resp, start.elapsed().as_secs_f64() * 1e3))
    }

    fn health(&mut self) -> Result<HealthSnapshot, String> {
        let (raw, _) = self.request("health")?;
        let parsed = parse_response(&raw).map_err(|e| e.to_string())?;
        if !parsed.ok {
            return Err(format!("health answered `{}`", parsed.kind));
        }
        Ok(HealthSnapshot::parse(&parsed.body))
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    fn hot_line(&mut self) -> String {
        let i = self.rng.next_below(self.hot.len() as u64) as usize;
        self.hot[i].clone()
    }

    fn kernel(&mut self) -> &'static str {
        self.kernels[self.rng.next_below(self.kernels.len() as u64) as usize]
    }

    /// A design point not asked before in this run: one axis moved.
    fn fresh_line(&mut self) -> String {
        loop {
            let k = self.kernel();
            let (axis, lo, hi) = FRESH_AXES[self.rng.next_below(FRESH_AXES.len() as u64) as usize];
            let line = format!("eval workload={k} {axis}={:.6}", self.rng.uniform(lo, hi));
            if self.seen.insert(line.clone()) {
                return line;
            }
        }
    }

    fn mc_line(&mut self) -> String {
        let k = self.kernel();
        let samples = 256 + self.rng.next_below(769);
        let seed = self.rng.next_u64();
        format!("mc samples={samples} seed={seed} workload={k}")
    }

    /// A fresh or Monte-Carlo op: traced, the same query is also evaluated
    /// directly in this process and timed in span `direct`; otherwise a
    /// sampled few are compared directly after the loop.
    fn evaluated(
        &mut self,
        line: String,
        direct: &str,
        tracer: &mut Tracer,
    ) -> Result<f64, String> {
        tracer.note_input(&line);
        let sampled = self.rng.next_below(VERIFY_EVERY) == 0;
        let (resp, ms) = self.request(&line)?;
        if tracer.spans_on() {
            let s = tracer.begin(direct);
            let expected = direct_response(&line);
            tracer.end(s);
            if expected? != resp {
                return Err(format!(
                    "`{line}` served bytes differ from a direct evaluation"
                ));
            }
        } else if sampled {
            self.to_verify.push(line.clone());
        }
        record(&mut self.first, &line, resp)?;
        Ok(ms)
    }
}

/// `ok` plus the body of a direct in-process evaluation of `line`.
fn direct_response(line: &str) -> Result<String, String> {
    let req = try_parse_request(line).map_err(|e| e.to_string())?;
    let body = try_evaluate(&req.query, &RunBudget::unlimited()).map_err(|e| e.to_string())?;
    Ok(ok_response(&body))
}

/// Fails non-`ok` responses and responses that differ from the first one
/// seen for the same line.
fn record(first: &mut HashMap<String, String>, line: &str, resp: String) -> Result<(), String> {
    if !resp.starts_with("ok\n") {
        return Err(format!(
            "`{line}` answered `{}`",
            resp.lines().next().unwrap_or("")
        ));
    }
    match first.get(line) {
        Some(prev) if *prev != resp => Err(format!("`{line}` answered differently on repeat")),
        Some(_) => Ok(()),
        None => {
            first.insert(line.to_string(), resp);
            Ok(())
        }
    }
}

impl Family for ServeFamily {
    fn block(&self) -> &'static [(Kind, usize)] {
        self.block
    }

    fn begin_phase(&mut self) -> Result<(), String> {
        self.phase_health = self.health()?;
        let pid = self.server()?.child.id();
        self.phase_usage = sys::proc_usage(pid).map_err(|e| e.to_string())?;
        self.phase_journal = self.journal_bytes();
        self.phase_counters = LayerCounters::now();
        Ok(())
    }

    fn run_op(&mut self, kind: Kind, tracer: &mut Tracer) -> Result<f64, String> {
        match kind {
            Kind::Repeat => {
                let line = self.hot_line();
                tracer.note_input(&line);
                let (resp, ms) = self.request(&line)?;
                record(&mut self.first, &line, resp)?;
                Ok(ms)
            }
            Kind::Fresh => {
                let line = self.fresh_line();
                self.evaluated(line, "serve.query_eval", tracer)
            }
            Kind::ServeMc => {
                let line = self.mc_line();
                self.evaluated(line, "serve.mc_eval", tracer)
            }
            Kind::Connect => {
                let line = self.hot_line();
                tracer.note_input(&line);
                let addr = self.server()?.addr;
                let start = Instant::now();
                let mut client =
                    ServeClient::try_connect_split(addr, CONNECT_TIMEOUT, Some(REQUEST_TIMEOUT))
                        .map_err(|e| format!("connect: {e}"))?;
                let resp = client.try_request_raw(&line).map_err(|e| e.to_string())?;
                let ms = start.elapsed().as_secs_f64() * 1e3;
                drop(client);
                record(&mut self.first, &line, resp)?;
                Ok(ms)
            }
            other => Err(format!("serve family cannot run `{}`", other.name())),
        }
    }

    fn end_phase(&mut self, tracer: &mut Tracer) -> Result<Usage, String> {
        let pid = self.server()?.child.id();
        let usage = sys::proc_usage(pid).map_err(|e| e.to_string())?;
        let h = self.health()?;
        let h0 = &self.phase_health;
        let errors = |s: &HealthSnapshot| {
            s.shed
                + s.panicked
                + s.deadline_expired
                + s.malformed
                + s.invalid
                + s.eval_failed
                + s.drained
                + s.connections_panicked
                + s.conn_setup_failed
                + s.cache_journal_failures
        };
        tracer.add(
            "serve.cache_hits",
            h.cache_hits.saturating_sub(h0.cache_hits) as f64,
        );
        tracer.add(
            "serve.cache_misses",
            h.cache_misses.saturating_sub(h0.cache_misses) as f64,
        );
        tracer.add(
            "serve.connections",
            h.connections_opened.saturating_sub(h0.connections_opened) as f64,
        );
        tracer.add("serve.errors", errors(&h).saturating_sub(errors(h0)) as f64);
        tracer.add(
            "serve.journal_bytes",
            self.journal_bytes().saturating_sub(self.phase_journal) as f64,
        );
        self.phase_counters.add_delta(tracer);
        Ok(Usage {
            cpu: usage.cpu.saturating_sub(self.phase_usage.cpu),
            max_rss_kb: usage.max_rss_kb,
        })
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for line in std::mem::take(&mut self.to_verify) {
            let ok = match (direct_response(&line), self.first.get(&line)) {
                (Ok(direct), Some(served)) => direct == *served,
                _ => false,
            };
            if !ok {
                failures.push(format!(
                    "`{line}` served bytes differ from a direct evaluation"
                ));
            }
        }
        failures
    }

    /// A server of its own on its own journal, beside the loop's, which
    /// keeps its cache and connection; stopped again before the loop goes on.
    fn setup_sample(&mut self, _tracer: &mut Tracer) -> Result<f64, String> {
        let mut journal = self.journal.clone().into_os_string();
        journal.push("-setup");
        let journal = PathBuf::from(journal);
        let (server, seconds) = self.spawn_warm(&journal)?;
        let stopped = server.stop();
        let _ = std::fs::remove_file(&journal);
        stopped.map(|()| seconds)
    }
}

impl Drop for ServeFamily {
    fn drop(&mut self) {
        let _ = self.stop();
        let _ = std::fs::remove_file(&self.journal);
    }
}
