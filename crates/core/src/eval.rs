//! The parallel evaluation engine.
//!
//! Every headline exhibit — the Fig. 6b isoline uncertainty band, the joint
//! Monte-Carlo summary, the capacity sweep, the design-space ranking —
//! reduces to thousands of *independent* tCDP evaluations. This module
//! shards such index spaces across `std::thread::scope` workers (the
//! pattern proven by `ppatc-lint`'s per-file stage) while keeping the
//! results **byte-identical to a serial run for any worker count**:
//!
//! - each work item is a pure function of its index (Monte-Carlo samples
//!   draw from counter-indexed [`SplitMix64::stream`]s, grid points from
//!   their coordinates), so no draw-order coupling exists to begin with;
//! - workers steal fixed-size *chunks* of the index range, evaluate each
//!   chunk in one `f(start, end)` call, and the chunks are merged back
//!   into index order before any reduction — so sorts, sums, and
//!   quantiles see exactly the serial operand order.
//!
//! The engine is dependency-free: work stealing is one `AtomicUsize`, and
//! finished chunks are merged into index order as they arrive.
//!
//! # One supervised engine
//!
//! [`par_map_chunks`] and [`par_map_chunks_journaled`] are the only map
//! functions; every sweep calls one of them, and each module's
//! unsupervised `_jobs` function is its supervised twin under an unlimited
//! budget. Each run:
//!
//! - polls a [`RunBudget`] (cooperative [`CancelToken`] + wall-clock
//!   deadline) before claiming each chunk; a stopped run returns
//!   [`PpatcError::Interrupted`] carrying the completed-index set instead
//!   of discarding partial work;
//! - runs each chunk under one `catch_unwind`, and only after a panic (or
//!   a wrong-size return) re-runs it as `f(i, i + 1)` per index, so the
//!   failing index is pinned exactly and listed in [`Mapped::panicked`]
//!   while its siblings keep their values;
//! - with a [`Journal`], replays journaled items instead of recomputing
//!   them and streams every chunk that computed something to the journal
//!   — byte-identical to an uninterrupted run because every item is a pure
//!   function of its index.
//!
//! [`SplitMix64::stream`]: ppatc_units::rng::SplitMix64::stream

use crate::checkpoint::{Checkpointable, Journal, JournalSpec};
use crate::error::{InterruptReason, PpatcError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Smallest number of items a worker claims at once. Large enough that the
/// fetch-add and the per-run allocation amortize over real work; small
/// enough that a 5-point capacity sweep still spreads across workers.
const MIN_CHUNK: usize = 1;

/// Upper bound on the chunk size, keeping late-arriving workers from
/// starving on very large index spaces and batch buffers cache-sized.
const MAX_CHUNK: usize = 1024;

/// The default worker count: one per available core (1 when parallelism
/// cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A cooperative cancellation handle: clone it, hand one clone to a
/// [`RunBudget`], and call [`CancelToken::cancel`] from any thread (a
/// signal handler, a UI, a watchdog) to stop supervised runs at their next
/// chunk boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Bounds one supervised run: an optional [`CancelToken`] and an optional
/// wall-clock deadline, both polled at chunk boundaries (cheap: one atomic
/// load and one `Instant::now`). The default budget is unlimited.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl RunBudget {
    /// A budget with no bounds (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token (stored as a clone; cancelling the
    /// caller's token stops the run).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Bounds the run by an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the run by a wall-clock timeout from now. A timeout too far
    /// out for an [`Instant`] to represent sets no deadline.
    #[must_use]
    pub fn with_deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Whether this budget imposes no bounds at all.
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none()
    }

    /// Polls the budget: `Err` with the reason once cancelled or past the
    /// deadline. Called by the engine at every chunk boundary.
    pub fn check(&self) -> Result<(), InterruptReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(InterruptReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(InterruptReason::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// The matching per-solve [`ppatc_spice::SolverBudget`], sharing this
    /// budget's deadline — so a run-level deadline also stops a SPICE
    /// recovery ladder or transient loop stuck inside one work item.
    pub fn solver_budget(&self) -> ppatc_spice::SolverBudget {
        match self.deadline {
            Some(d) => ppatc_spice::SolverBudget::unlimited().with_deadline(d),
            None => ppatc_spice::SolverBudget::unlimited(),
        }
    }
}

/// Everything a supervised entry point needs beyond its inputs: the
/// [`RunBudget`], and optionally a checkpoint journal path plus whether to
/// resume from it. The default supervisor is unlimited and journal-free,
/// making supervised entry points drop-in equivalents of their unsupervised
/// counterparts.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    budget: RunBudget,
    checkpoint: Option<PathBuf>,
    resume: bool,
}

impl Supervisor {
    /// An unlimited supervisor with no checkpoint journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the run budget.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Journals completed chunks to `path` (created fresh unless
    /// [`Supervisor::resuming`] is set).
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Whether to reload completed items from an existing checkpoint
    /// journal instead of truncating it.
    #[must_use]
    pub fn resuming(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The run budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Opens this supervisor's journal for a run described by `spec`:
    /// `None` when no checkpoint path is configured, a fresh journal when
    /// not resuming, a reloaded one otherwise.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] on I/O failure or a spec mismatch with an
    /// existing journal.
    pub fn try_open_journal(&self, spec: &JournalSpec) -> Result<Option<Journal>, PpatcError> {
        match &self.checkpoint {
            None => Ok(None),
            Some(path) if self.resume => Journal::try_resume(path, spec).map(Some),
            Some(path) => Journal::try_create(path, spec).map(Some),
        }
    }
}

/// The outcome of one completed engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct Mapped<T> {
    /// The value of every item that completed, in index order. Panicked
    /// items have no entry, so `values.len() + panicked.len()` is the
    /// run's item count.
    pub values: Vec<T>,
    /// Ascending indices of the items whose evaluation panicked, or whose
    /// `f(i, i + 1)` call returned other than exactly one value.
    pub panicked: Vec<usize>,
}

impl<T> Mapped<T> {
    /// The values of a run in which every item must succeed (a partial
    /// grid or ranking would silently misreport).
    ///
    /// # Errors
    ///
    /// [`PpatcError::WorkerPanic`] naming the lowest panicked index.
    pub fn try_complete(self) -> Result<Vec<T>, PpatcError> {
        match self.panicked.first() {
            Some(&index) => Err(PpatcError::WorkerPanic { index }),
            None => Ok(self.values),
        }
    }
}

/// Evaluates items `0..n` across `jobs` workers under `budget`, one chunk
/// `[start, end)` per `f(start, end)` call, and returns them in index
/// order.
///
/// **Contract:** `f(start, end)` returns exactly `end - start` values and
/// is bit-identical to `(start..end).map(per_index).collect()` for the
/// per-index function it batches — chunk boundaries differ between worker
/// counts, so any cross-item coupling inside a chunk would break the
/// byte-identical-for-any-worker-count guarantee. A chunk may hoist work
/// that is constant across items (the hoisted values are the same ones a
/// per-index evaluation would recompute), but must not reassociate
/// per-item arithmetic.
///
/// `jobs` is clamped to `[1, n]`; `jobs <= 1` runs inline without
/// spawning threads. A panicking item is caught and listed in
/// [`Mapped::panicked`]; its siblings are unaffected.
///
/// # Errors
///
/// [`PpatcError::Interrupted`] when the budget stops the run.
pub fn par_map_chunks<T, F>(
    n: usize,
    jobs: usize,
    budget: &RunBudget,
    f: F,
) -> Result<Mapped<T>, PpatcError>
where
    T: Send,
    F: Fn(usize, usize) -> Vec<T> + Sync,
{
    run_engine(n, jobs, budget, &NoJournal, f)
}

/// [`par_map_chunks`] with crash-safe checkpointing: every chunk that
/// computed something streams to `journal` (when given), and items already
/// journaled are replayed instead of recomputed — including items
/// journaled as deterministic panics. Pass `None` to run unjournaled.
///
/// # Errors
///
/// [`PpatcError::Interrupted`] when the budget stops the run (chunks
/// completed before the interrupt *are* journaled, so a resumed run skips
/// them), [`PpatcError::Checkpoint`] when the journal cannot be written or
/// does not match the run.
pub fn par_map_chunks_journaled<T, F>(
    n: usize,
    jobs: usize,
    budget: &RunBudget,
    journal: Option<&Journal>,
    f: F,
) -> Result<Mapped<T>, PpatcError>
where
    T: Send + Checkpointable,
    F: Fn(usize, usize) -> Vec<T> + Sync,
{
    match journal {
        None => run_engine(n, jobs, budget, &NoJournal, f),
        Some(journal) => {
            journal.require_run::<T>(n)?;
            run_engine(n, jobs, budget, &WithJournal(journal), f)
        }
    }
}

/// The state one run's workers share: finished chunks merged back into
/// index order as they arrive, and why the run stopped early, if it did.
/// Merging as chunks arrive keeps one output buffer plus a few in-flight
/// chunks alive, instead of every chunk until the run ends.
struct Merge<T> {
    /// Every item before `merged`, in index order.
    out: Mapped<T>,
    merged: usize,
    /// Chunks that finished ahead of `merged`: start → (end, chunk).
    pending: BTreeMap<usize, (usize, Mapped<T>)>,
    interrupt: Option<InterruptReason>,
    /// A journal fault; it outranks an interrupt, since the caller asked
    /// for a checkpoint it is not getting.
    fault: Option<PpatcError>,
}

impl<T> Merge<T> {
    fn halted(&self) -> bool {
        self.interrupt.is_some() || self.fault.is_some()
    }

    /// Files chunk `start..end` and merges every chunk now contiguous with
    /// the output.
    fn push(&mut self, start: usize, end: usize, chunk: Mapped<T>) {
        self.pending.insert(start, (end, chunk));
        while let Some((end, chunk)) = self.pending.remove(&self.merged) {
            self.out.values.extend(chunk.values);
            self.out.panicked.extend(chunk.panicked);
            self.merged = end;
        }
    }

    /// The sorted, disjoint, maximal `[start, end)` runs of finished items
    /// for [`PpatcError::Interrupted::completed`].
    fn completed(&self) -> Vec<(usize, usize)> {
        let spans = std::iter::once((0, self.merged))
            .chain(self.pending.iter().map(|(&start, &(end, _))| (start, end)));
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (start, end) in spans.filter(|&(start, end)| end > start) {
            match runs.last_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => runs.push((start, end)),
            }
        }
        runs
    }
}

/// How journaled items enter and leave one run. `NoJournal` is the
/// zero-cost stub for unjournaled runs.
trait JournalHooks<T>: Sync {
    /// A previously journaled outcome for item `i`, if any.
    fn preloaded(&self, i: usize) -> Option<Result<T, PpatcError>>;
    /// Persists chunk `start..` from its values and panicked indices.
    fn append(&self, start: usize, chunk: &Mapped<T>) -> Result<(), PpatcError>;
}

struct NoJournal;

impl<T> JournalHooks<T> for NoJournal {
    fn preloaded(&self, _i: usize) -> Option<Result<T, PpatcError>> {
        None
    }

    fn append(&self, _start: usize, _chunk: &Mapped<T>) -> Result<(), PpatcError> {
        Ok(())
    }
}

struct WithJournal<'a>(&'a Journal);

impl<T: Checkpointable> JournalHooks<T> for WithJournal<'_> {
    fn preloaded(&self, i: usize) -> Option<Result<T, PpatcError>> {
        self.0.preloaded_item(i)
    }

    fn append(&self, start: usize, chunk: &Mapped<T>) -> Result<(), PpatcError> {
        let end = start + chunk.values.len() + chunk.panicked.len();
        let mut values = chunk.values.iter();
        let mut panicked = chunk.panicked.iter().peekable();
        let items = (start..end).map(|i| match panicked.next_if_eq(&&i) {
            Some(_) => None,
            None => values.next(),
        });
        self.0.append_chunk(start, items)
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock: no user code
/// runs while the engine holds one, so the data is always coherent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine body behind both map functions: chunked work stealing,
/// budget polls at chunk boundaries, and journal replay/append hooks.
fn run_engine<T, F, J>(
    n: usize,
    jobs: usize,
    budget: &RunBudget,
    journal: &J,
    f: F,
) -> Result<Mapped<T>, PpatcError>
where
    T: Send,
    F: Fn(usize, usize) -> Vec<T> + Sync,
    J: JournalHooks<T>,
{
    let jobs = jobs.max(1).min(n.max(1));
    // Aim for several chunks per worker so the tail balances.
    let size = (n / (jobs * 8).max(1)).clamp(MIN_CHUNK, MAX_CHUNK);
    let next = AtomicUsize::new(0);
    let merge = Mutex::new(Merge {
        out: Mapped {
            values: Vec::with_capacity(n),
            panicked: Vec::new(),
        },
        merged: 0,
        pending: BTreeMap::new(),
        interrupt: None,
        fault: None,
    });

    let worker = || loop {
        if lock(&merge).halted() {
            break;
        }
        if let Err(reason) = budget.check() {
            lock(&merge).interrupt.get_or_insert(reason);
            break;
        }
        let start = next.fetch_add(size, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + size).min(n);
        let (chunk, fresh) = eval_chunk(&f, journal, start, end);
        if let Err(e) = fresh.then(|| journal.append(start, &chunk)).transpose() {
            // The chunk is still good in memory; let siblings wind down
            // cooperatively.
            lock(&merge).fault.get_or_insert(e);
        }
        lock(&merge).push(start, end, chunk);
    };
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }

    let merge = merge.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = merge.fault {
        return Err(e);
    }
    if let Some(reason) = merge.interrupt {
        return Err(PpatcError::Interrupted {
            reason,
            completed: merge.completed(),
            total: n,
        });
    }
    Ok(merge.out)
}

/// Evaluates items `start..end`: journaled items are replayed, and each
/// maximal run of fresh items is one `f` call. Returns the chunk and
/// whether anything in it was computed fresh.
fn eval_chunk<T, F, J>(f: &F, journal: &J, start: usize, end: usize) -> (Mapped<T>, bool)
where
    F: Fn(usize, usize) -> Vec<T>,
    J: JournalHooks<T>,
{
    let mut chunk = Mapped {
        values: Vec::new(),
        panicked: Vec::new(),
    };
    let mut fresh = false;
    let mut i = start;
    while i < end {
        match journal.preloaded(i) {
            Some(Ok(v)) => chunk.values.push(v),
            Some(Err(_)) => chunk.panicked.push(i),
            None => {
                let stop = (i + 1..end)
                    .find(|&j| journal.preloaded(j).is_some())
                    .unwrap_or(end);
                eval_fresh(f, i, stop, &mut chunk);
                fresh = true;
                i = stop;
                continue;
            }
        }
        i += 1;
    }
    (chunk, fresh)
}

/// Evaluates fresh items `start..end` in one call, appending them to
/// `chunk`. A call that panics or returns the wrong number of values
/// cannot say which item is at fault, so the range is re-run one index at
/// a time and each failing index lands in `chunk.panicked`.
fn eval_fresh<T, F>(f: &F, start: usize, end: usize, chunk: &mut Mapped<T>)
where
    F: Fn(usize, usize) -> Vec<T>,
{
    // Each item is a pure function of its index over read-only inputs, so
    // no broken invariant can leak across the unwind boundary:
    // AssertUnwindSafe is sound here.
    let call = |s: usize, e: usize| {
        catch_unwind(AssertUnwindSafe(|| f(s, e)))
            .ok()
            .filter(|values| values.len() == e - s)
    };
    match call(start, end) {
        Some(values) if chunk.values.is_empty() => chunk.values = values,
        Some(values) => chunk.values.extend(values),
        None if end - start == 1 => chunk.panicked.push(start),
        None => {
            for i in start..end {
                match call(i, i + 1) {
                    Some(value) => chunk.values.extend(value),
                    None => chunk.panicked.push(i),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// How a test run's journal starts out.
    #[derive(Clone, Copy, Debug)]
    enum Leg {
        /// No journal: the run goes through [`par_map_chunks`].
        Unjournaled,
        /// A journal created empty for the run.
        Fresh,
        /// A resumed journal already holding every other block of 7 items,
        /// so chunks mix replayed and freshly computed items.
        Resumed,
    }

    const JOBS: [usize; 3] = [1, 2, 8];
    const LEGS: [Leg; 3] = [Leg::Unjournaled, Leg::Fresh, Leg::Resumed];

    /// A collision-free scratch path for one test leg.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppatc-eval-{}-{name}.txt", std::process::id()))
    }

    /// Opens `leg`'s journal at `path` for an `n`-item run; the resumed
    /// leg's prefilled items come from `item` (a panic is journaled as
    /// one).
    fn open_leg(leg: Leg, path: &Path, n: usize, item: impl Fn(usize) -> f64) -> Option<Journal> {
        let spec = JournalSpec::for_run::<f64>("evaltest", n, &[]);
        let journal = match leg {
            Leg::Unjournaled => return None,
            Leg::Fresh | Leg::Resumed => Journal::try_create(path, &spec).expect("create journal"),
        };
        if matches!(leg, Leg::Fresh) {
            return Some(journal);
        }
        for start in (0..n).step_by(14) {
            let items: Vec<Option<f64>> = (start..(start + 7).min(n))
                .map(|i| catch_unwind(AssertUnwindSafe(|| item(i))).ok())
                .collect();
            journal
                .append_chunk(start, items.iter().map(Option::as_ref))
                .expect("prefill the journal");
        }
        drop(journal);
        Some(Journal::try_resume(path, &spec).expect("resume journal"))
    }

    /// Runs `f` over `0..n` through the map function `journal` calls for.
    fn run<F>(
        n: usize,
        jobs: usize,
        budget: &RunBudget,
        journal: Option<&Journal>,
        f: F,
    ) -> Result<Mapped<f64>, PpatcError>
    where
        F: Fn(usize, usize) -> Vec<f64> + Sync,
    {
        match journal {
            None => par_map_chunks(n, jobs, budget, f),
            Some(_) => par_map_chunks_journaled(n, jobs, budget, journal, f),
        }
    }

    /// `item` lifted to the chunk shape.
    fn chunked(item: impl Fn(usize) -> f64 + Sync) -> impl Fn(usize, usize) -> Vec<f64> + Sync {
        move |s, e| (s..e).map(&item).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every (jobs, journal leg) pair with a scratch path for it; the
    /// journal file is removed after `body` returns.
    fn for_each_leg(name: &str, mut body: impl FnMut(usize, Leg, &Path)) {
        for jobs in JOBS {
            for leg in LEGS {
                let path = scratch(&format!("{name}-{jobs}-{leg:?}"));
                body(jobs, leg, &path);
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn results_arrive_in_index_order_bit_identical_to_a_serial_map() {
        let item = |i: usize| (i as f64).sqrt().sin() / (i as f64 + 0.5);
        let n = 3000;
        let serial: Vec<u64> = (0..n).map(|i| item(i).to_bits()).collect();
        for_each_leg("order", |jobs, leg, path| {
            let journal = open_leg(leg, path, n, item);
            let mapped = run(
                n,
                jobs,
                &RunBudget::unlimited(),
                journal.as_ref(),
                chunked(item),
            )
            .expect("an unlimited budget never interrupts");
            assert!(mapped.panicked.is_empty(), "jobs = {jobs}, {leg:?}");
            assert_eq!(bits(&mapped.values), serial, "jobs = {jobs}, {leg:?}");
        });
    }

    #[test]
    fn small_inputs_and_edge_counts() {
        let ids = |n: usize, jobs: usize| {
            par_map_chunks(n, jobs, &RunBudget::unlimited(), |s, e| {
                (s..e).collect::<Vec<usize>>()
            })
            .expect("an unlimited budget never interrupts")
            .values
        };
        assert_eq!(ids(0, 4), Vec::<usize>::new());
        assert_eq!(ids(1, 4), vec![0]);
        assert_eq!(ids(3, 100), vec![0, 1, 2]);
        assert_eq!(ids(5, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn a_panicking_item_is_pinned_to_its_index_and_isolated() {
        // Item 130 falls in a prefilled block of the resumed leg (it
        // replays as a journaled panic), item 137 in a fresh one.
        let item = |i: usize| {
            assert!(i != 130 && i != 137, "deterministic injected panic");
            i as f64 * 2.0
        };
        let n = 300;
        let want: Vec<f64> = (0..n)
            .filter(|&i| i != 130 && i != 137)
            .map(|i| i as f64 * 2.0)
            .collect();
        for_each_leg("panic", |jobs, leg, path| {
            let journal = open_leg(leg, path, n, item);
            let mapped = run(
                n,
                jobs,
                &RunBudget::unlimited(),
                journal.as_ref(),
                chunked(item),
            )
            .expect("a panicking item does not interrupt the run");
            assert_eq!(mapped.panicked, vec![130, 137], "jobs = {jobs}, {leg:?}");
            assert_eq!(mapped.values, want, "siblings are unaffected");
            assert_eq!(
                mapped.try_complete(),
                Err(PpatcError::WorkerPanic { index: 130 })
            );
        });
    }

    #[test]
    fn a_wrong_size_chunk_is_reported_at_its_index_and_shifts_nothing() {
        // Every call whose range holds item 37 comes back one value short.
        let item = |i: usize| i as f64 + 0.25;
        let f =
            |s: usize, e: usize| -> Vec<f64> { (s..e).filter(|&i| i != 37).map(item).collect() };
        let want: Vec<f64> = (0..100).filter(|&i| i != 37).map(item).collect();
        for_each_leg("wrong-size", |jobs, leg, path| {
            let journal = open_leg(leg, path, 100, item);
            let mapped = run(100, jobs, &RunBudget::unlimited(), journal.as_ref(), f)
                .expect("a short chunk does not interrupt the run");
            assert_eq!(mapped.panicked, vec![37], "jobs = {jobs}, {leg:?}");
            assert_eq!(mapped.values, want, "later items keep their own values");
        });
    }

    #[test]
    fn a_pre_cancelled_token_stops_before_any_work() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let budget = RunBudget::unlimited().with_cancel(&token);
        for_each_leg("pre-cancel", |jobs, leg, path| {
            let journal = open_leg(leg, path, 1000, |i| i as f64);
            let calls = AtomicUsize::new(0);
            let err = run(1000, jobs, &budget, journal.as_ref(), |s, e| {
                calls.fetch_add(e - s, Ordering::Relaxed);
                (s..e).map(|i| i as f64).collect()
            })
            .expect_err("cancelled before the first chunk");
            match err {
                PpatcError::Interrupted {
                    reason,
                    completed,
                    total,
                } => {
                    assert_eq!(reason, InterruptReason::Cancelled);
                    assert!(completed.is_empty(), "{completed:?}");
                    assert_eq!(total, 1000);
                }
                other => panic!("expected Interrupted, got {other}"),
            }
            assert_eq!(calls.load(Ordering::Relaxed), 0, "no item was evaluated");
        });
    }

    #[test]
    fn an_expired_deadline_interrupts_with_a_typed_reason() {
        let budget = RunBudget::unlimited().with_deadline(Instant::now());
        for_each_leg("deadline", |jobs, leg, path| {
            let journal = open_leg(leg, path, 100, |i| i as f64);
            let err = run(100, jobs, &budget, journal.as_ref(), chunked(|i| i as f64))
                .expect_err("an already-expired deadline stops the run");
            assert!(
                matches!(
                    err,
                    PpatcError::Interrupted {
                        reason: InterruptReason::DeadlineExpired,
                        ..
                    }
                ),
                "{err}"
            );
        });
    }

    #[test]
    fn mid_run_cancellation_keeps_partial_work() {
        // The closure trips the token on its 96th fresh item. Cancellation
        // is observed at the next chunk boundary, so in-flight chunks
        // still complete.
        for_each_leg("mid-cancel", |jobs, leg, path| {
            let journal = open_leg(leg, path, 1000, |i| i as f64);
            let token = CancelToken::new();
            let budget = RunBudget::unlimited().with_cancel(&token);
            let calls = AtomicUsize::new(0);
            let err = run(1000, jobs, &budget, journal.as_ref(), |s, e| {
                (s..e)
                    .map(|i| {
                        if calls.fetch_add(1, Ordering::Relaxed) + 1 == 96 {
                            token.cancel();
                        }
                        i as f64
                    })
                    .collect()
            })
            .expect_err("cancelled mid-run");
            match err {
                PpatcError::Interrupted {
                    reason, completed, ..
                } => {
                    assert_eq!(reason, InterruptReason::Cancelled);
                    let done: usize = completed.iter().map(|&(s, e)| e - s).sum();
                    assert!(
                        (96..1000).contains(&done),
                        "jobs = {jobs}, {leg:?}: partial work kept: {done}"
                    );
                }
                other => panic!("expected Interrupted, got {other}"),
            }
        });
    }

    #[test]
    fn a_journal_for_another_item_count_is_rejected() {
        for_each_leg("mismatch", |jobs, leg, path| {
            let Some(journal) = open_leg(leg, path, 10, |i| i as f64) else {
                return;
            };
            let err = par_map_chunks_journaled(
                11,
                jobs,
                &RunBudget::unlimited(),
                Some(&journal),
                chunked(|i| i as f64),
            )
            .expect_err("item count differs from the spec");
            assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        });
    }

    #[test]
    fn a_fully_journaled_run_replays_without_recomputing() {
        let path = scratch("replay");
        let n = 500;
        let spec = JournalSpec::for_run::<f64>("evaltest", n, &[7]);
        let item = |i: usize| (i as f64) * 1.5;
        let first = {
            let journal = Journal::try_create(&path, &spec).expect("create journal");
            par_map_chunks_journaled(n, 4, &RunBudget::unlimited(), Some(&journal), chunked(item))
                .expect("journaled run completes")
                .values
        };
        let journal = Journal::try_resume(&path, &spec).expect("resume journal");
        assert_eq!(journal.completed_items(), n);
        for jobs in JOBS {
            // A closure that would panic if any item were recomputed: every
            // value must come from the journal.
            let replayed = par_map_chunks_journaled(
                n,
                jobs,
                &RunBudget::unlimited(),
                Some(&journal),
                |s, _e| -> Vec<f64> { panic!("chunk at {s} must be replayed, not recomputed") },
            )
            .expect("replay completes");
            assert!(replayed.panicked.is_empty());
            assert_eq!(bits(&replayed.values), bits(&first), "jobs = {jobs}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupt_then_resume_is_identical_to_uninterrupted() {
        let n = 800;
        let spec = JournalSpec::for_run::<f64>("evaltest", n, &[11]);
        let item = |i: usize| (i as f64).cos() * 3.0;
        let reference: Vec<u64> = (0..n).map(|i| item(i).to_bits()).collect();
        for jobs in JOBS {
            let path = scratch(&format!("resume-{jobs}"));
            // Interrupted first leg: cancel after about a third of the items.
            let token = CancelToken::new();
            let budget = RunBudget::unlimited().with_cancel(&token);
            let calls = AtomicUsize::new(0);
            {
                let journal = Journal::try_create(&path, &spec).expect("create journal");
                let err = par_map_chunks_journaled(n, jobs, &budget, Some(&journal), |s, e| {
                    (s..e)
                        .map(|i| {
                            if calls.fetch_add(1, Ordering::Relaxed) + 1 == n / 3 {
                                token.cancel();
                            }
                            item(i)
                        })
                        .collect()
                })
                .expect_err("first leg is cancelled");
                match err {
                    PpatcError::Interrupted { completed, .. } => {
                        let done: usize = completed.iter().map(|&(s, e)| e - s).sum();
                        assert!(done > 0 && done < n, "partial first leg: {done}");
                    }
                    other => panic!("expected Interrupted, got {other}"),
                }
            }
            // Resumed second leg: unlimited budget, journaled items replayed.
            let journal = Journal::try_resume(&path, &spec).expect("resume journal");
            assert!(
                journal.completed_items() > 0,
                "the first leg journaled its chunks"
            );
            let resumed = par_map_chunks_journaled(
                n,
                jobs,
                &RunBudget::unlimited(),
                Some(&journal),
                chunked(item),
            )
            .expect("second leg completes");
            assert_eq!(bits(&resumed.values), reference, "jobs = {jobs}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn completed_spans_coalesce_the_merged_prefix_and_pending_chunks() {
        let chunk = || Mapped::<u8> {
            values: Vec::new(),
            panicked: Vec::new(),
        };
        let mut merge = Merge {
            out: chunk(),
            merged: 0,
            pending: BTreeMap::new(),
            interrupt: None,
            fault: None,
        };
        assert_eq!(merge.completed(), Vec::<(usize, usize)>::new());
        merge.push(2, 3, chunk());
        merge.push(5, 7, chunk());
        merge.push(3, 4, chunk());
        assert_eq!(merge.completed(), vec![(2, 4), (5, 7)]);
        merge.push(0, 2, chunk());
        assert_eq!(merge.completed(), vec![(0, 4), (5, 7)]);
        assert_eq!(merge.merged, 4);
    }

    #[test]
    fn run_budget_reports_reasons_in_priority_order() {
        assert!(RunBudget::unlimited().is_unlimited());
        assert_eq!(RunBudget::unlimited().check(), Ok(()));
        let token = CancelToken::new();
        let both = RunBudget::unlimited()
            .with_cancel(&token)
            .with_deadline_in(Duration::ZERO);
        assert!(!both.is_unlimited());
        // Deadline already expired, token not yet cancelled.
        assert_eq!(both.check(), Err(InterruptReason::DeadlineExpired));
        token.cancel();
        // Cancellation is checked first.
        assert_eq!(both.check(), Err(InterruptReason::Cancelled));
        // The derived solver budget shares the deadline.
        assert!(both.solver_budget().exhausted(0));
        assert!(RunBudget::unlimited().solver_budget().is_unlimited());
        // A timeout past the clock's range is no bound, not a panic.
        assert!(RunBudget::unlimited()
            .with_deadline_in(Duration::MAX)
            .is_unlimited());
    }
}
