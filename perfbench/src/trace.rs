//! Spans and counts recorded by the harness around its calls into each
//! layer's public functions. Spans live in memory and are written out when
//! the run ends; counts are kept whether or not spans are. Counts that
//! layers keep process-wide are read here as deltas; the harness is their
//! only caller, so a delta belongs to the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans recorded outside any op (set-up).
pub const SETUP_OP: u64 = u64::MAX;

/// One timed call.
#[derive(Clone, Debug)]
struct Span {
    /// Layer-qualified name, e.g. `edram.characterize`.
    name: String,
    /// Nanoseconds since the tracer's origin.
    start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The op the span belongs to ([`SETUP_OP`] outside ops).
    op: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (a no-op handle when spans are off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// The per-run recorder.
#[derive(Debug)]
pub struct Tracer {
    spans_on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
    inputs: u64,
}

impl Tracer {
    /// A recorder; with `spans_on == false` only counts are kept.
    pub fn new(spans_on: bool) -> Self {
        Self {
            spans_on,
            origin: Instant::now(),
            op: SETUP_OP,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            inputs: crate::golden::fnv1a(b""),
        }
    }

    /// Whether spans are recorded.
    pub fn spans_on(&self) -> bool {
        self.spans_on
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.spans_on {
            return SpanId(None);
        }
        let start_ns = self.ns_since_origin(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let now = self.ns_since_origin(Instant::now());
        self.spans[i].end_ns = now;
        while let Some(top) = self.open.pop() {
            if top == i {
                break;
            }
        }
    }

    /// Records an already finished span under the innermost open one.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> SpanId {
        if !self.spans_on {
            return SpanId(None);
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent: self.open.last().copied(),
            op: self.op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Adds `v` to the count `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Folds one op's generated inputs into the run's input digest.
    pub fn note_input(&mut self, text: &str) {
        self.inputs = text.bytes().chain([b'\n']).fold(self.inputs, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    }

    /// Digest of every input noted so far.
    pub fn inputs_digest(&self) -> u64 {
        self.inputs
    }

    /// The count `name` (0 when never added).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Spans named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Total duration of spans named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|(_, s)| s.ns() as f64).sum::<f64>() / 1e6
    }

    /// Durations of spans named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| s.ns() as f64 / 1e6).collect()
    }

    /// Self time of spans named `name`, ms: each span's duration minus the
    /// part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.named(name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]) as f64)
            .sum::<f64>()
            / 1e6
    }

    /// For each span named `name` (in [`Tracer::durations_ms`] order), the
    /// total duration of its direct children, ms.
    pub fn children_ms_each(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|(i, _)| {
                self.spans
                    .iter()
                    .filter(|s| s.parent == Some(i))
                    .map(|s| s.ns() as f64)
                    .sum::<f64>()
                    / 1e6
            })
            .collect()
    }

    /// Serializes spans and counts for a parent process to
    /// [`Tracer::import`]: `span <parent|-> <start_ns> <end_ns> <name>` and
    /// `count <name> <value>` lines.
    pub fn export(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "span {parent} {} {} {}", s.start_ns, s.end_ns, s.name);
        }
        for (name, v) in &self.counts {
            let _ = writeln!(out, "count {name} {v}");
        }
        out
    }

    /// Adds a child process's [`Tracer::export`] output under span `under`
    /// (its time axis shifted to start at `under`'s start). Unknown lines
    /// are ignored.
    pub fn import(&mut self, text: &str, under: SpanId) {
        let base = self.spans.len();
        let (shift, op) = match under.0 {
            Some(i) => (self.spans[i].start_ns, self.spans[i].op),
            None => (0, self.op),
        };
        for line in text.lines() {
            let mut f = line.split_ascii_whitespace();
            match f.next() {
                Some("count") => {
                    if let (Some(name), Some(Ok(v))) = (f.next(), f.next().map(str::parse)) {
                        self.add(name, v);
                    }
                }
                Some("span") if self.spans_on => {
                    let (Some(parent), Some(Ok(s)), Some(Ok(e)), Some(name)) = (
                        f.next(),
                        f.next().map(str::parse::<u64>),
                        f.next().map(str::parse::<u64>),
                        f.next(),
                    ) else {
                        continue;
                    };
                    let parent = match parent.parse::<usize>() {
                        Ok(p) => Some(base + p),
                        Err(_) => under.0,
                    };
                    self.spans.push(Span {
                        name: name.to_string(),
                        start_ns: s + shift,
                        end_ns: e + shift,
                        parent,
                        op,
                    });
                }
                _ => {}
            }
        }
    }

    /// Writes every span as tab-separated `op name start_us end_us parent`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("op\tname\tstart_us\tend_us\tparent\n");
        for s in &self.spans {
            let op = if s.op == SETUP_OP {
                "setup".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{op}\t{}\t{:.3}\t{:.3}\t{parent}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Snapshot of the process-wide eDRAM memo and SPICE recovery counters.
pub struct LayerCounters {
    memo: (usize, usize),
    recovery: (u64, u64),
}

impl LayerCounters {
    /// The counters now.
    pub fn now() -> Self {
        Self {
            memo: ppatc_edram::characterization_cache_stats(),
            recovery: ppatc_spice::recovery_counters(),
        }
    }

    /// Adds the change since `self` to `tracer`'s counts.
    pub fn add_delta(&self, tracer: &mut Tracer) {
        let now = Self::now();
        tracer.add(
            "edram.memo_hits",
            now.memo.0.saturating_sub(self.memo.0) as f64,
        );
        tracer.add(
            "edram.characterizations",
            now.memo.1.saturating_sub(self.memo.1) as f64,
        );
        tracer.add(
            "spice.recovered",
            now.recovery.0.saturating_sub(self.recovery.0) as f64,
        );
        tracer.add(
            "spice.exhausted",
            now.recovery.1.saturating_sub(self.recovery.1) as f64,
        );
    }
}

/// Records a finished ISS run's work counts.
pub fn count_run(tracer: &mut Tracer, name: &str, run: &ppatc_workloads::WorkloadRun) {
    tracer.add("m0.runs", 1.0);
    tracer.add("m0.instructions", run.instructions as f64);
    tracer.add("m0.cycles", run.cycles as f64);
    if name == "matmul-int" {
        tracer.add("m0.matmul_runs", 1.0);
        tracer.add("m0.matmul_cycles", run.cycles as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_export_round_trips() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a.outer");
        let inner = t.begin("a.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        t.add("a.count", 3.0);
        assert!(t.self_ms("a.outer") < t.total_ms("a.outer"));
        assert_eq!(t.children_ms_each("a.outer"), vec![t.total_ms("a.inner")]);

        let mut parent = Tracer::new(true);
        let p = parent.begin("proc");
        parent.import(&t.export(), p);
        parent.end(p);
        assert_eq!(parent.calls("a.inner"), 1);
        assert_eq!(parent.count("a.count"), 3.0);
        assert_eq!(
            parent.children_ms_each("proc"),
            vec![parent.total_ms("a.outer")]
        );
    }

    #[test]
    fn counts_are_kept_with_spans_off() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        t.add("x.n", 1.0);
        assert_eq!(t.calls("x"), 0);
        assert_eq!(t.count("x.n"), 1.0);
    }
}
