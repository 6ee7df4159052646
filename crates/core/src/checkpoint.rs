//! Crash-safe, line-oriented journals.
//!
//! Two journals persist work across crashes: a [`Journal`] records the
//! completed items of one supervised parallel run (see
//! [`crate::eval::par_map_chunks_journaled`]), and the serve crate's
//! response cache records every insert. Both are the same kind of file,
//! owned by [`LineJournal`]: a fingerprinted header line naming what the
//! file belongs to, then one plain-text body line per record, each
//! appended and flushed whole. One tear policy covers both:
//!
//! - an append-and-flush writer can only tear the *final* line, so a final
//!   line that fails to parse is dropped on recovery, at the cost of that
//!   one record;
//! - a malformed line *before* the final one cannot come from a tear, so
//!   it is [`PpatcError::Checkpoint`] corruption and recovery refuses;
//! - recovery rewrites the file as the header plus the kept lines before
//!   anything is appended, so a new line is never glued onto a torn
//!   fragment.
//!
//! # Determinism
//!
//! Every journaled run maps an index space `0..n` through a pure function
//! of the index (Monte-Carlo samples are pure in `(seed, i)`, raster cells
//! in their grid coordinates), and the engine merges results back into
//! index order. Replaying journaled items therefore yields *byte-identical*
//! results to recomputing them: the journal stores exact `f64` bit
//! patterns, and which items came from the journal cannot be observed in
//! the output. A [`JournalSpec`] fingerprint of the run parameters guards
//! against resuming with a different configuration.

use crate::error::PpatcError;
use ppatc_units::rng::SplitMix64;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Tag word marking a journaled item that evaluated successfully.
const TAG_OK: u64 = 0;
/// Tag word marking a journaled item whose closure panicked (the panic is
/// deterministic, so it is journaled and replayed as
/// [`PpatcError::WorkerPanic`] instead of re-unwinding on resume).
const TAG_PANICKED: u64 = 1;

/// Seed for header fingerprints (the SplitMix64 golden-gamma constant;
/// any fixed odd value works).
const FINGERPRINT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Wraps an I/O failure on a journal file as a [`PpatcError::Checkpoint`].
fn io_error(noun: &str, path: &Path, action: &str, e: &std::io::Error) -> PpatcError {
    PpatcError::Checkpoint {
        detail: format!("could not {action} {noun} {}: {e}", path.display()),
    }
}

/// The append-only line file behind every crash-safe journal in the
/// workspace: run checkpoints ([`Journal`]) and the serve response cache.
///
/// Read an existing file back with [`LineJournal::try_read`], then start
/// writing with [`LineJournal::try_rewrite`] (header plus the lines to
/// keep) and [`LineJournal::append`] (one flushed line per record). The
/// module docs give the tear policy both steps implement.
#[derive(Debug)]
pub struct LineJournal {
    path: PathBuf,
    /// How errors name the file, e.g. `"journal"` or `"cache journal"`.
    noun: &'static str,
    writer: Mutex<BufWriter<File>>,
}

impl LineJournal {
    /// Folds `label`'s bytes, then `words`, through SplitMix64: the
    /// fingerprint a header prints so that a file written for other
    /// parameters is refused instead of replayed.
    pub fn fingerprint(label: &str, words: impl IntoIterator<Item = u64>) -> u64 {
        label
            .bytes()
            .map(u64::from)
            .chain(words)
            .fold(FINGERPRINT_SEED, |acc, word| {
                SplitMix64::new(acc ^ word).next_u64()
            })
    }

    /// Reads back the body of the file at `path`, whose first line must be
    /// exactly `header`, parsing each body line with `parse` (`None` means
    /// malformed). Returns the records in file order; a missing file has
    /// none. A malformed final line is a torn append and is dropped.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] on I/O failure, on a different header
    /// (the file belongs to a different `owner`, such as another run), and
    /// on a malformed line before the final one.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_read<R>(
        path: &Path,
        noun: &str,
        owner: &str,
        header: &str,
        mut parse: impl FnMut(&str) -> Option<R>,
    ) -> Result<Vec<R>, PpatcError> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_error(noun, path, "open", &e)),
        };
        let mut lines = BufReader::new(file).lines();
        let found = match lines.next() {
            Some(line) => line.map_err(|e| io_error(noun, path, "read the header of", &e))?,
            None => String::new(),
        };
        if found != header {
            return Err(PpatcError::Checkpoint {
                detail: format!(
                    "{noun} {} belongs to a different {owner}: found header '{found}', \
                     expected '{header}'",
                    path.display()
                ),
            });
        }
        let mut records = Vec::new();
        let mut malformed: Option<usize> = None;
        for (number, line) in lines.enumerate() {
            let line = line.map_err(|e| io_error(noun, path, "read", &e))?;
            if let Some(bad) = malformed {
                // Append-and-flush tears only the last line.
                return Err(PpatcError::Checkpoint {
                    detail: format!(
                        "{noun} {} is corrupt: body line {bad} is malformed but is not the \
                         final line — refusing to recover from a spliced or damaged journal",
                        path.display()
                    ),
                });
            }
            match parse(&line) {
                Some(record) => records.push(record),
                None => malformed = Some(number + 1),
            }
        }
        Ok(records)
    }

    /// Replaces the file at `path` with `header` plus `lines` and returns
    /// it open for appending. The content goes to a sibling `.tmp` file,
    /// synced and then renamed over `path`, so a crash mid-rewrite leaves
    /// the old file whole.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be written or renamed.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_rewrite(
        path: PathBuf,
        noun: &'static str,
        header: &str,
        lines: &[String],
    ) -> Result<Self, PpatcError> {
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp).map_err(|e| io_error(noun, &tmp, "create", &e))?;
        let mut writer = BufWriter::new(file);
        std::iter::once(header)
            .chain(lines.iter().map(String::as_str))
            .try_for_each(|line| {
                writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
            })
            .and_then(|()| writer.flush())
            .and_then(|()| writer.get_ref().sync_all())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| io_error(noun, &path, "write", &e))?;
        Ok(Self {
            path,
            noun,
            writer: Mutex::new(writer),
        })
    }

    /// Appends `line` (without its newline) as one flushed line, so a
    /// crash can tear at most this line.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] when the write or flush fails.
    #[must_use = "this returns a Result that must be handled"]
    pub fn append(&self, mut line: String) -> Result<(), PpatcError> {
        line.push('\n');
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| io_error(self.noun, &self.path, "append to", &e))
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A value that can be journaled as a fixed number of `u64` words.
///
/// `encode` must push exactly [`Checkpointable::WIDTH`] words and `decode`
/// must invert it bit-exactly; floating-point values round-trip through
/// `to_bits`/`from_bits` so NaN payloads and signed zeros survive.
pub trait Checkpointable: Sized {
    /// Number of `u64` words one value occupies in the journal.
    const WIDTH: usize;
    /// Appends exactly [`Checkpointable::WIDTH`] words to `out`.
    fn encode(&self, out: &mut Vec<u64>);
    /// Rebuilds a value from [`Checkpointable::WIDTH`] words; `None` if the
    /// words are malformed (wrong count or unrepresentable payload).
    fn decode(words: &[u64]) -> Option<Self>;
}

impl Checkpointable for f64 {
    const WIDTH: usize = 1;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] => Some(f64::from_bits(*w)),
            _ => None,
        }
    }
}

impl Checkpointable for (f64, f64, f64) {
    const WIDTH: usize = 3;

    fn encode(&self, out: &mut Vec<u64>) {
        out.extend([self.0.to_bits(), self.1.to_bits(), self.2.to_bits()]);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [a, b, c] => Some((f64::from_bits(*a), f64::from_bits(*b), f64::from_bits(*c))),
            _ => None,
        }
    }
}

/// Identity of one journaled run: what kind of run it is, how many items
/// it spans, how wide each item is, and a fingerprint of every parameter
/// that influences item values.
///
/// Two runs with the same spec are guaranteed to produce identical items
/// (each item is a pure function of its index and the fingerprinted
/// parameters), which is what makes replaying a journal sound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalSpec {
    /// Short run-kind label, e.g. `"montecarlo"` or `"raster"`.
    pub kind: &'static str,
    /// Number of items in the run's index space.
    pub items: usize,
    /// `u64` words per item (the item type's [`Checkpointable::WIDTH`]).
    pub item_width: usize,
    /// Fold of `kind`, `items`, `item_width`, and the caller's parameter
    /// words; a resumed journal must match it exactly.
    pub fingerprint: u64,
}

impl JournalSpec {
    /// Builds the spec for a run of `items` values of type `T`, folding
    /// `params` (every seed, bound, and knob that influences item values,
    /// as raw `u64`/bit-pattern words) into the fingerprint.
    pub fn for_run<T: Checkpointable>(kind: &'static str, items: usize, params: &[u64]) -> Self {
        let words = [items as u64, T::WIDTH as u64].into_iter();
        Self {
            kind,
            items,
            item_width: T::WIDTH,
            fingerprint: LineJournal::fingerprint(kind, words.chain(params.iter().copied())),
        }
    }

    /// The exact header line this spec writes and expects.
    fn header_line(&self) -> String {
        format!(
            "ppatc-journal v1 kind={} items={} width={} fingerprint={:016x}",
            self.kind, self.items, self.item_width, self.fingerprint
        )
    }
}

/// How the run-checkpoint [`LineJournal`] names itself in errors.
const NOUN: &str = "journal";

/// An append-only checkpoint journal bound to one run spec.
///
/// Create with [`Journal::try_create`] (fresh run) or
/// [`Journal::try_resume`] (reload completed items, then keep appending),
/// then pass to [`crate::eval::par_map_chunks_journaled`]. Each chunk is
/// one flushed line, so a crash loses at most the in-flight chunk.
pub struct Journal {
    file: LineJournal,
    spec: JournalSpec,
    /// Items reloaded by [`Journal::try_resume`], keyed by index; each
    /// value is the `[tag, payload...]` word run from the file.
    preloaded: HashMap<usize, Vec<u64>>,
}

impl core::fmt::Debug for Journal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path())
            .field("spec", &self.spec)
            .field("preloaded", &self.preloaded.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates a fresh journal at `path` (replacing any existing file) and
    /// writes its header.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be created or written.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_create(path: impl Into<PathBuf>, spec: &JournalSpec) -> Result<Self, PpatcError> {
        Ok(Self {
            file: LineJournal::try_rewrite(path.into(), NOUN, &spec.header_line(), &[])?,
            spec: spec.clone(),
            preloaded: HashMap::new(),
        })
    }

    /// Reopens the journal at `path` under the [`LineJournal`] tear
    /// policy: reloads every chunk line, drops a torn final line, and
    /// rewrites the file before appending. A missing file starts fresh.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be read or rewritten,
    /// if its header does not match `spec` (resuming a different run would
    /// silently splice unrelated results), if a line before the final one
    /// is malformed, or if a *complete* chunk line indexes past the end of
    /// the run — that cannot result from a torn write, so the journal
    /// belongs to some other run.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_resume(path: impl Into<PathBuf>, spec: &JournalSpec) -> Result<Self, PpatcError> {
        let path = path.into();
        let header = spec.header_line();
        let chunks = LineJournal::try_read(&path, NOUN, "run", &header, |line| {
            parse_chunk_line(line, spec).map(|chunk| (chunk, line.to_owned()))
        })?;
        let mut preloaded = HashMap::new();
        let mut kept = Vec::with_capacity(chunks.len());
        for ((start, items), line) in chunks {
            // A torn write cannot produce a *complete* line that overruns
            // the run: the journal belongs to another run (hand-edited,
            // spliced, or a fingerprint collision), so refuse it.
            if start
                .checked_add(items.len())
                .is_none_or(|end| end > spec.items)
            {
                return Err(PpatcError::Checkpoint {
                    detail: format!(
                        "journal {} is corrupt: a complete chunk line claims items \
                         {start}..{} but the run spans only {} items — refusing to \
                         resume from a journal that does not belong to this run",
                        path.display(),
                        start.saturating_add(items.len()),
                        spec.items
                    ),
                });
            }
            for (offset, words) in items.into_iter().enumerate() {
                preloaded.insert(start + offset, words);
            }
            kept.push(line);
        }
        Ok(Self {
            file: LineJournal::try_rewrite(path, NOUN, &header, &kept)?,
            spec: spec.clone(),
            preloaded,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// The spec this journal was opened with.
    pub fn spec(&self) -> &JournalSpec {
        &self.spec
    }

    /// Number of distinct items reloaded from disk by
    /// [`Journal::try_resume`] (zero for a fresh journal).
    pub fn completed_items(&self) -> usize {
        self.preloaded.len()
    }

    /// The reloaded value of item `index`, if present: `Ok` with the
    /// decoded value, or `Err(WorkerPanic)` for an item journaled as a
    /// deterministic panic. `None` (recompute) if absent or undecodable.
    pub(crate) fn preloaded_item<T: Checkpointable>(
        &self,
        index: usize,
    ) -> Option<Result<T, PpatcError>> {
        let words = self.preloaded.get(&index)?;
        let (tag, payload) = words.split_first()?;
        if *tag == TAG_PANICKED {
            return Some(Err(PpatcError::WorkerPanic { index }));
        }
        T::decode(payload).map(Ok)
    }

    /// Appends items `start..start + items.len()` as one flushed chunk
    /// line; `None` marks an item that panicked.
    pub(crate) fn append_chunk<'a, T: Checkpointable + 'a>(
        &self,
        start: usize,
        items: impl ExactSizeIterator<Item = Option<&'a T>>,
    ) -> Result<(), PpatcError> {
        use std::fmt::Write as _;
        let mut line = format!("c {start} {}", items.len());
        let mut words: Vec<u64> = Vec::with_capacity(T::WIDTH);
        for item in items {
            words.clear();
            let tag = match item {
                Some(v) => {
                    v.encode(&mut words);
                    TAG_OK
                }
                None => {
                    words.resize(T::WIDTH, 0);
                    TAG_PANICKED
                }
            };
            debug_assert_eq!(
                words.len(),
                T::WIDTH,
                "encode must push exactly WIDTH words"
            );
            // Writing into a String cannot fail.
            let _ = write!(line, " {tag:016x}");
            for w in &words {
                let _ = write!(line, " {w:016x}");
            }
        }
        self.file.append(line)
    }

    /// Guards against using a journal for a run of another length or item
    /// width than it was opened for.
    pub(crate) fn require_run<T: Checkpointable>(&self, items: usize) -> Result<(), PpatcError> {
        if (self.spec.items, self.spec.item_width) == (items, T::WIDTH) {
            return Ok(());
        }
        Err(PpatcError::Checkpoint {
            detail: format!(
                "journal {} spans {} items of width {}, but the run has {items} of width {}",
                self.path().display(),
                self.spec.items,
                self.spec.item_width,
                T::WIDTH
            ),
        })
    }
}

/// Parses one complete `c <start> <count> <words...>` chunk line into its
/// start and each item's `[tag, payload...]` words; `None` for a torn or
/// garbage line (truncated words, bad hex, a tag word other than 0 or 1,
/// trailing junk).
fn parse_chunk_line(line: &str, spec: &JournalSpec) -> Option<(usize, Vec<Vec<u64>>)> {
    let mut toks = line.split_ascii_whitespace();
    if toks.next() != Some("c") {
        return None;
    }
    let start = toks.next()?.parse::<usize>().ok()?;
    let count = toks.next()?.parse::<usize>().ok()?;
    if count == 0 {
        return None;
    }
    let stride = spec.item_width.checked_add(1)?;
    let mut items = Vec::with_capacity(count.min(spec.items));
    for _ in 0..count {
        let words = (0..stride)
            .map(|_| u64::from_str_radix(toks.next()?, 16).ok())
            .collect::<Option<Vec<u64>>>()?;
        if words.first().is_none_or(|&tag| tag > TAG_PANICKED) {
            return None;
        }
        items.push(words);
    }
    toks.next().is_none().then_some((start, items))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collision-free scratch path for one test.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppatc-journal-{}-{name}.txt", std::process::id()))
    }

    /// Appends raw text to the journal file, as a crash or a splice would.
    fn append_raw(path: &Path, text: &str) {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .expect("reopen");
        f.write_all(text.as_bytes()).expect("raw write");
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        for v in [0.0_f64, -0.0, 1.5, f64::NAN, f64::NEG_INFINITY, 1e-300] {
            let mut words = Vec::new();
            v.encode(&mut words);
            let back = f64::decode(&words).expect("width matches");
            assert_eq!(v.to_bits(), back.to_bits());
        }
        type Triple = (f64, f64, f64);
        let cell: Triple = (1.0_f64, f64::NAN, -3.25_f64);
        let mut words = Vec::new();
        cell.encode(&mut words);
        let back = Triple::decode(&words).expect("width matches");
        assert_eq!(cell.0.to_bits(), back.0.to_bits());
        assert_eq!(cell.1.to_bits(), back.1.to_bits());
        assert_eq!(cell.2.to_bits(), back.2.to_bits());
        assert_eq!(f64::decode(&[]), None);
        assert_eq!(Triple::decode(&[0, 0]), None);
    }

    #[test]
    fn create_append_resume_reloads_every_item() {
        let path = scratch("roundtrip");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[42]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            j.append_chunk(0, [Some(&1.5), Some(&f64::NAN)].into_iter())
                .expect("append");
            j.append_chunk(5, [Some(&-0.0), None].into_iter())
                .expect("append");
        }
        let j = Journal::try_resume(&path, &spec).expect("resume");
        assert_eq!(j.completed_items(), 4);
        assert_eq!(j.preloaded_item::<f64>(0), Some(Ok(1.5)));
        match j.preloaded_item::<f64>(1) {
            Some(Ok(v)) => assert!(v.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
        assert_eq!(
            j.preloaded_item::<f64>(5).map(|r| r.map(f64::to_bits)),
            Some(Ok((-0.0_f64).to_bits()))
        );
        assert_eq!(
            j.preloaded_item::<f64>(6),
            Some(Err(PpatcError::WorkerPanic { index: 6 }))
        );
        assert_eq!(j.preloaded_item::<f64>(2), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_file_creates_a_fresh_journal() {
        let path = scratch("fresh");
        let _ = std::fs::remove_file(&path);
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        let j = Journal::try_resume(&path, &spec).expect("fresh resume");
        assert_eq!(j.completed_items(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_spec_is_rejected_on_resume() {
        let path = scratch("mismatch");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[1]);
        drop(Journal::try_create(&path, &spec).expect("create"));
        let other = JournalSpec::for_run::<f64>("test", 10, &[2]);
        let err = Journal::try_resume(&path, &other).expect_err("fingerprint differs");
        assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("different run"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = scratch("torn");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            j.append_chunk(0, [Some(&2.0)].into_iter()).expect("append");
        }
        // Simulate a crash mid-append: a truncated chunk line.
        append_raw(&path, "c 3 2 00000000000");
        let j = Journal::try_resume(&path, &spec).expect("resume survives the tear");
        assert_eq!(j.completed_items(), 1);
        assert_eq!(j.preloaded_item::<f64>(0), Some(Ok(2.0)));
        assert_eq!(j.preloaded_item::<f64>(3), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resuming_twice_after_a_torn_tail_keeps_every_item_apart() {
        let path = scratch("double-resume");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        drop(Journal::try_create(&path, &spec).expect("create"));
        // A crash tore the first chunk line mid-word, with no newline.
        append_raw(&path, "c 0 3 0000000000000000 3ff");
        {
            let j = Journal::try_resume(&path, &spec).expect("first resume");
            assert_eq!(j.completed_items(), 0, "the torn chunk is dropped");
            j.append_chunk(5, [Some(&2.0)].into_iter())
                .expect("append chunk 5");
        }
        // The chunk-5 line must not have been glued onto the fragment.
        let j = Journal::try_resume(&path, &spec).expect("second resume");
        assert_eq!(j.completed_items(), 1);
        for i in 0..3 {
            assert_eq!(
                j.preloaded_item::<f64>(i),
                None,
                "item {i} was never computed"
            );
        }
        assert_eq!(j.preloaded_item::<f64>(5), Some(Ok(2.0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_malformed_line_before_the_tail_is_corruption() {
        let path = scratch("midfile");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        drop(Journal::try_create(&path, &spec).expect("create"));
        append_raw(
            &path,
            "c 0 2 0000000000000000 3ff\nc 1 1 0000000000000000 4000000000000000\n",
        );
        let err = Journal::try_resume(&path, &spec).expect_err("mid-file damage is fatal");
        assert!(
            matches!(err, PpatcError::Checkpoint { ref detail } if detail.contains("corrupt")),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_text_in_the_v1_format_resumes_and_rewrites_unchanged() {
        // Written by a 4-item run whose item 1 panicked, one item per
        // chunk; the literal pins both the header fingerprint and the
        // body encoding.
        let text = "ppatc-journal v1 kind=test items=4 width=1 fingerprint=44ba85e7d4b3e80e\n\
                    c 0 1 0000000000000000 0000000000000000\n\
                    c 1 1 0000000000000001 0000000000000000\n\
                    c 2 1 0000000000000000 4008000000000000\n\
                    c 3 1 0000000000000000 4012000000000000\n";
        let path = scratch("v1");
        std::fs::write(&path, text).expect("write literal journal");
        let spec = JournalSpec::for_run::<f64>("test", 4, &[7]);
        let j = Journal::try_resume(&path, &spec).expect("literal journal resumes");
        assert_eq!(j.completed_items(), 4);
        assert_eq!(j.preloaded_item::<f64>(0), Some(Ok(0.0)));
        assert_eq!(
            j.preloaded_item::<f64>(1),
            Some(Err(PpatcError::WorkerPanic { index: 1 }))
        );
        assert_eq!(j.preloaded_item::<f64>(2), Some(Ok(3.0)));
        assert_eq!(j.preloaded_item::<f64>(3), Some(Ok(4.5)));
        drop(j);
        let back = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            back, text,
            "recovery rewrites a clean journal byte for byte"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_and_torn_lines_are_malformed() {
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        assert_eq!(parse_chunk_line("", &spec), None);
        assert_eq!(
            parse_chunk_line("x 0 1 0000000000000000 0000000000000000", &spec),
            None
        );
        // Trailing garbage.
        assert_eq!(
            parse_chunk_line("c 0 1 0000000000000000 0000000000000000 junk", &spec),
            None
        );
        // A tag word other than 0 (value) or 1 (panic), as a chunk line
        // glued onto a torn fragment produces.
        assert_eq!(
            parse_chunk_line("c 0 1 0000000000000005 0000000000000000", &spec),
            None
        );
        // A *complete* line parses even when it indexes past the end of
        // the run (resume refuses it as corruption, see below) ...
        assert_eq!(
            parse_chunk_line(
                "c 3 2 0000000000000000 0000000000000000 0000000000000000 0000000000000000",
                &spec
            ),
            Some((3, vec![vec![0, 0], vec![0, 0]]))
        );
        // ... but the same range *truncated* is an ordinary torn line.
        assert_eq!(
            parse_chunk_line("c 3 2 0000000000000000 0000000000000000 00000000", &spec),
            None
        );
        // A well-formed line parses.
        assert_eq!(
            parse_chunk_line("c 1 1 0000000000000000 3ff8000000000000", &spec),
            Some((1, vec![vec![0, 1.5_f64.to_bits()]]))
        );
    }

    #[test]
    fn resume_refuses_a_journal_with_out_of_range_chunks() {
        let path = scratch("out-of-range");
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            j.append_chunk(0, [Some(&2.0)].into_iter()).expect("append");
        }
        // Splice in a complete chunk line from a longer run: same header
        // shape, indices past the end of this run's 4-item space.
        append_raw(
            &path,
            "c 6 2 0000000000000000 3ff0000000000000 0000000000000000 4000000000000000\n",
        );
        let err = Journal::try_resume(&path, &spec).expect_err("corruption is fatal");
        assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "{msg}");
        assert!(
            msg.contains("6..8") && msg.contains("only 4 items"),
            "the error names the offending counts: {msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_distinguishes_kind_items_and_params() {
        let a = JournalSpec::for_run::<f64>("montecarlo", 100, &[1, 2]);
        let b = JournalSpec::for_run::<f64>("raster", 100, &[1, 2]);
        let c = JournalSpec::for_run::<f64>("montecarlo", 101, &[1, 2]);
        let d = JournalSpec::for_run::<f64>("montecarlo", 100, &[1, 3]);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_ne!(a.fingerprint, d.fingerprint);
        assert_eq!(
            a,
            JournalSpec::for_run::<f64>("montecarlo", 100, &[1, 2]),
            "specs are deterministic"
        );
    }
}
