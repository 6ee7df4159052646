//! A sharded, bounded response cache, with an optional crash-safe journal.
//!
//! Generalizes the eDRAM characterization memo cache (one global mutex
//! around a `HashMap`) to the server's concurrency profile: the key space
//! is hashed across independently locked shards so request threads rarely
//! contend, and every shard is bounded with FIFO eviction so a hostile
//! client cycling through distinct queries cannot grow the process without
//! bound. Hits are byte-identical stored responses, which is what makes
//! repeated queries byte-identical at any concurrency *for free* — the
//! first evaluation's rendering is the only rendering.
//!
//! # Crash-safe warm-cache recovery
//!
//! The cache can persist every insert through a [`LineJournal`], the
//! append-only file behind run checkpoints too: a fingerprinted header
//! naming the cache geometry, then one hex bit-exact `(key, response)`
//! entry line per insert, flushed whole. The journal's tear policy
//! applies: a torn final line (what a `kill -9` mid-append leaves) costs
//! that one entry, and a malformed line *before* the tail is typed
//! corruption, so recovery refuses rather than silently serving a spliced
//! cache. On recovery the journal is compacted: entries are replayed
//! through the same FIFO eviction the live cache uses, then the file is
//! rewritten with only the survivors. That is the only compaction: between
//! restarts the journal grows by one line per fresh answer, whatever the
//! cache has evicted since, and only the next start-up brings it back to
//! the cache bound. Bounding it while the server runs is open work
//! (ROADMAP.md, item 10). A restarted server answers previously cached
//! queries from the recovered warm path byte-identically — the journal
//! stores the exact response bytes the first evaluation rendered.

use crate::admission::lock_unpoisoned;
use crate::health::ServerHealth;
use ppatc::checkpoint::LineJournal;
use ppatc::PpatcError;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic FNV-1a hash — stable across runs and platforms, unlike
/// `std`'s randomized `DefaultHasher`, so shard assignment (and therefore
/// eviction order) is reproducible under replay.
fn fnv1a(key: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One shard: an insertion-ordered bounded map.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, String>,
    order: VecDeque<String>,
}

/// The sharded cache. Keys are canonical query strings (see
/// [`crate::query::canonical_key`]); values are complete response
/// payloads.
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Write-through journal, attached once after recovery (or never, for
    /// a memory-only cache).
    journal: OnceLock<LineJournal>,
}

impl ResponseCache {
    /// A cache with `shards` independently locked shards of
    /// `per_shard_capacity` entries each. Both are clamped to at least 1.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            journal: OnceLock::new(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let idx = (fnv1a(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Looks up `key`, recording the hit or miss in `health`.
    pub fn get(&self, key: &str, health: &ServerHealth) -> Option<String> {
        let found = lock_unpoisoned(self.shard(key)).map.get(key).cloned();
        if found.is_some() {
            health.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            health.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores `response` under `key`, evicting the shard's oldest entry
    /// when full. Re-inserting an existing key overwrites in place (the
    /// value is identical by construction — evaluation is deterministic).
    ///
    /// Returns `false` when an attached journal failed to persist
    /// the entry — the cache itself is still updated and serving, the
    /// entry just will not survive a restart; callers surface the failure
    /// in [`ServerHealth::cache_journal_failures`].
    pub fn insert(&self, key: &str, response: &str) -> bool {
        let fresh = self.insert_in_memory(key, response);
        if !fresh {
            return true; // already present: journaled by its first insert
        }
        match self.journal.get() {
            Some(journal) => journal.append(entry_line(key, response)).is_ok(),
            None => true,
        }
    }

    /// The in-memory half of [`ResponseCache::insert`]: updates the shard
    /// and its FIFO order, returning whether `key` was new.
    fn insert_in_memory(&self, key: &str, response: &str) -> bool {
        let mut shard = lock_unpoisoned(self.shard(key));
        if shard
            .map
            .insert(key.to_string(), response.to_string())
            .is_none()
        {
            shard.order.push_back(key.to_string());
            while shard.order.len() > self.per_shard_capacity {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.map.remove(&oldest);
                }
            }
            true
        } else {
            false
        }
    }

    /// Every live entry in deterministic order: shards in index order,
    /// entries in insertion (FIFO) order within each shard. This is the
    /// compaction order of the journal, so a compacted journal is a pure
    /// function of the cache contents.
    pub fn entries_in_order(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock_unpoisoned(shard);
            for key in &shard.order {
                if let Some(value) = shard.map.get(key) {
                    out.push((key.clone(), value.clone()));
                }
            }
        }
        out
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Crash-safe cache journal
// ---------------------------------------------------------------------------

/// Upper bound on a journaled key or response, bytes. Responses are bounded
/// by the frame size on the wire, so anything larger in a journal line is
/// corruption, not data.
const MAX_ENTRY_BYTES: usize = crate::protocol::MAX_FRAME_BYTES;

/// How the cache's [`LineJournal`] names itself in errors.
const NOUN: &str = "cache journal";

/// The exact header line a journal with this geometry writes and expects.
/// The fingerprint covers the geometry because a journal written by a
/// cache with a different shard count or capacity replays into a different
/// eviction state, so recovery refuses it.
fn header_line(shards: usize, per_shard_capacity: usize) -> String {
    format!(
        "ppatc-cache-journal v1 shards={shards} capacity={per_shard_capacity} fingerprint={:016x}",
        LineJournal::fingerprint("ppatc-cache", [shards as u64, per_shard_capacity as u64])
    )
}

/// Lowercase hex of `bytes` (two digits per byte).
fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let digits = hex.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// The `e <klen> <vlen> <hexkey> <hexval>` journal line of one entry.
fn entry_line(key: &str, response: &str) -> String {
    format!(
        "e {} {} {} {}",
        key.len(),
        response.len(),
        hex_encode(key.as_bytes()),
        hex_encode(response.as_bytes())
    )
}

/// Parses one entry line; `None` when malformed. Both length words are
/// byte counts and must match their hex runs exactly — a tear at any point
/// (including exactly between tokens) leaves a line that fails this parse.
fn parse_entry_line(line: &str) -> Option<(String, String)> {
    let mut toks = line.split_ascii_whitespace();
    if toks.next() != Some("e") {
        return None;
    }
    let klen = toks.next()?.parse::<usize>().ok()?;
    let vlen = toks.next()?.parse::<usize>().ok()?;
    if klen > MAX_ENTRY_BYTES || vlen > MAX_ENTRY_BYTES {
        return None;
    }
    let (hexkey, hexval) = (toks.next()?, toks.next()?);
    if toks.next().is_some() || hexkey.len() != klen * 2 || hexval.len() != vlen * 2 {
        return None;
    }
    let key = String::from_utf8(hex_decode(hexkey)?).ok()?;
    let value = String::from_utf8(hex_decode(hexval)?).ok()?;
    Some((key, value))
}

/// Builds a [`ResponseCache`] backed by the journal at `path`: recovers
/// every entry a previous server persisted (skipping a torn tail), replays
/// them through FIFO eviction, compacts the journal to the survivors, and
/// attaches it for write-through. Returns the cache and how many entries
/// were recovered from disk (before eviction). A missing file starts an
/// empty journal.
///
/// # Errors
///
/// [`PpatcError::Checkpoint`] on I/O failure, a header from a different
/// cache geometry, or a malformed line before the tail (both mean the
/// journal does not belong to this server and silently dropping it would
/// hide corruption).
pub fn try_recover_cache(
    path: impl Into<PathBuf>,
    shards: usize,
    per_shard_capacity: usize,
) -> Result<(ResponseCache, usize), PpatcError> {
    let path = path.into();
    let shards = shards.max(1);
    let per_shard_capacity = per_shard_capacity.max(1);
    let cache = ResponseCache::new(shards, per_shard_capacity);
    let header = header_line(shards, per_shard_capacity);
    let entries = LineJournal::try_read(&path, NOUN, "cache geometry", &header, parse_entry_line)?;
    for (key, value) in &entries {
        cache.insert_in_memory(key, value);
    }
    let survivors: Vec<String> = cache
        .entries_in_order()
        .iter()
        .map(|(key, value)| entry_line(key, value))
        .collect();
    let journal = LineJournal::try_rewrite(path, NOUN, &header, &survivors)?;
    // A freshly constructed cache has an empty OnceLock; this cannot fail.
    let _ = cache.journal.set(journal);
    Ok((cache, entries.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_return_the_stored_bytes_and_count() {
        let cache = ResponseCache::new(4, 8);
        let health = ServerHealth::new();
        assert_eq!(cache.get("eval a", &health), None);
        cache.insert("eval a", "ok\nanswer");
        assert_eq!(cache.get("eval a", &health).as_deref(), Some("ok\nanswer"));
        let snap = health.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
    }

    #[test]
    fn eviction_is_fifo_and_bounded_per_shard() {
        // One shard makes eviction order fully observable.
        let cache = ResponseCache::new(1, 2);
        let health = ServerHealth::new();
        cache.insert("a", "1");
        cache.insert("b", "2");
        cache.insert("c", "3");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a", &health), None, "oldest entry evicted");
        assert_eq!(cache.get("b", &health).as_deref(), Some("2"));
        assert_eq!(cache.get("c", &health).as_deref(), Some("3"));
    }

    #[test]
    fn reinsert_does_not_duplicate_order_entries() {
        let cache = ResponseCache::new(1, 2);
        let health = ServerHealth::new();
        cache.insert("a", "1");
        cache.insert("a", "1");
        cache.insert("b", "2");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a", &health).as_deref(), Some("1"));
    }

    #[test]
    fn zero_shards_or_capacity_clamp_to_one() {
        let cache = ResponseCache::new(0, 0);
        let health = ServerHealth::new();
        cache.insert("a", "1");
        cache.insert("b", "2");
        assert_eq!(cache.len(), 1, "capacity clamps to 1");
        assert!(cache.get("b", &health).is_some());
        assert!(!cache.is_empty());
    }

    #[test]
    fn hex_encode_equals_two_digit_formatting_for_every_byte() {
        for b in 0..=u8::MAX {
            assert_eq!(hex_encode(&[b]), format!("{b:02x}"), "byte {b}");
        }
        let all: Vec<u8> = (0..=u8::MAX).collect();
        assert_eq!(hex_decode(&hex_encode(&all)), Some(all));
    }

    #[test]
    fn shard_hash_is_deterministic() {
        assert_eq!(fnv1a("eval f=500"), fnv1a("eval f=500"));
        assert_ne!(fnv1a("eval f=500"), fnv1a("eval f=501"));
    }

    #[test]
    fn concurrent_mixed_use_stays_coherent() {
        let cache = std::sync::Arc::new(ResponseCache::new(8, 64));
        let health = std::sync::Arc::new(ServerHealth::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let health = std::sync::Arc::clone(&health);
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("q{}", (t * 31 + i) % 50);
                        let value = format!("v{}", (t * 31 + i) % 50);
                        cache.insert(&key, &value);
                        if let Some(got) = cache.get(&key, &health) {
                            assert_eq!(got, value, "a key never maps to foreign bytes");
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 50);
    }

    // -- journal ------------------------------------------------------------

    fn journal_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ppatc-cache-journal-{}-{name}.txt",
            std::process::id()
        ))
    }

    #[test]
    fn recovery_round_trips_byte_identically() {
        let path = journal_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (cache, recovered) = try_recover_cache(&path, 4, 8).expect("fresh journal");
        assert_eq!(recovered, 0, "no prior journal to recover from");
        cache.insert("eval capacity_kb=16", "ok\nresult line\twith tabs");
        cache.insert("mc samples=100", "ok\nmean=1.0 p99=2.0");
        drop(cache);

        let (warm, recovered) = try_recover_cache(&path, 4, 8).expect("recover");
        assert_eq!(recovered, 2);
        let health = ServerHealth::new();
        assert_eq!(
            warm.get("eval capacity_kb=16", &health).as_deref(),
            Some("ok\nresult line\twith tabs"),
            "recovered response is byte-identical"
        );
        assert_eq!(
            warm.get("mc samples=100", &health).as_deref(),
            Some("ok\nmean=1.0 p99=2.0")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped_and_compacted_away() {
        let path = journal_path("torn");
        let _ = std::fs::remove_file(&path);
        let (cache, _) = try_recover_cache(&path, 2, 4).expect("fresh journal");
        cache.insert("a", "1");
        cache.insert("b", "2");
        drop(cache);
        // Simulate a crash mid-append: half an entry line at the tail.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            write!(f, "e 5 7 68656c").expect("torn tail");
        }
        let (warm, recovered) = try_recover_cache(&path, 2, 4).expect("torn tail tolerated");
        assert_eq!(recovered, 2, "complete entries survive, the tear does not");
        let health = ServerHealth::new();
        assert_eq!(warm.get("a", &health).as_deref(), Some("1"));
        assert_eq!(warm.get("b", &health).as_deref(), Some("2"));
        // Compaction rewrote the file: recovering again sees no tear.
        drop(warm);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(!text.contains("68656c"), "compaction dropped the torn tail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_line_before_the_tail_is_typed_corruption() {
        let path = journal_path("midfile");
        let _ = std::fs::remove_file(&path);
        let (cache, _) = try_recover_cache(&path, 2, 4).expect("fresh journal");
        cache.insert("a", "1");
        drop(cache);
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            // A malformed line FOLLOWED by a well-formed one cannot be a
            // torn tail: refuse.
            writeln!(f, "e 3 bogus").expect("splice");
            writeln!(f, "e 1 1 62 32").expect("valid entry after splice");
        }
        let err = try_recover_cache(&path, 2, 4).expect_err("mid-file corruption refused");
        assert!(
            matches!(err, PpatcError::Checkpoint { ref detail } if detail.contains("corrupt")),
            "unexpected error: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn geometry_mismatch_is_refused() {
        let path = journal_path("geometry");
        let _ = std::fs::remove_file(&path);
        let (cache, _) = try_recover_cache(&path, 4, 8).expect("fresh journal");
        cache.insert("a", "1");
        drop(cache);
        let err = try_recover_cache(&path, 2, 8).expect_err("different shard count refused");
        assert!(
            matches!(err, PpatcError::Checkpoint { ref detail } if detail.contains("geometry")),
            "unexpected error: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversize_length_words_are_malformed_not_allocated() {
        // A length word beyond MAX_FRAME_BYTES must not drive a huge
        // allocation; as a non-final line it is corruption.
        let line = format!("e {} 1 00 31", u32::MAX);
        assert_eq!(parse_entry_line(&line), None);
    }

    #[test]
    fn journal_text_in_the_v1_format_recovers_and_rewrites_unchanged() {
        // The literal pins the geometry fingerprint and the entry encoding.
        let text = "ppatc-cache-journal v1 shards=1 capacity=4 fingerprint=0d37da8998d91cdf\n\
                    e 1 1 61 31\n\
                    e 8 11 6576616c20783d31 6f6b0a6c696e652074776f\n";
        let path = journal_path("v1");
        std::fs::write(&path, text).expect("write literal journal");
        let (warm, recovered) = try_recover_cache(&path, 1, 4).expect("literal journal recovers");
        assert_eq!(recovered, 2);
        let health = ServerHealth::new();
        assert_eq!(warm.get("a", &health).as_deref(), Some("1"));
        assert_eq!(
            warm.get("eval x=1", &health).as_deref(),
            Some("ok\nline two")
        );
        drop(warm);
        let back = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            back, text,
            "recovery rewrites a clean journal byte for byte"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_replays_eviction_and_bounds_the_file() {
        let path = journal_path("compaction");
        let _ = std::fs::remove_file(&path);
        // One shard, capacity 2: inserting 5 keys keeps only the last 2.
        let (cache, _) = try_recover_cache(&path, 1, 2).expect("fresh journal");
        for i in 0..5 {
            cache.insert(&format!("k{i}"), &format!("v{i}"));
        }
        drop(cache);
        let (warm, recovered) = try_recover_cache(&path, 1, 2).expect("recover");
        // All 5 appends are on disk; replay re-applies FIFO eviction.
        assert_eq!(recovered, 5);
        assert_eq!(warm.len(), 2);
        let health = ServerHealth::new();
        assert_eq!(warm.get("k3", &health).as_deref(), Some("v3"));
        assert_eq!(warm.get("k4", &health).as_deref(), Some("v4"));
        drop(warm);
        // The compacted file holds exactly the survivors: header + 2 lines.
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 3, "header plus two surviving entries");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn whitespace_and_newlines_in_entries_survive_hex_round_trip() {
        let path = journal_path("bytes");
        let _ = std::fs::remove_file(&path);
        let (cache, _) = try_recover_cache(&path, 1, 4).expect("fresh journal");
        let gnarly = "ok\nline one\nline two with  spaces\te 9 9 deadbeef\n";
        cache.insert("eval x=1", gnarly);
        drop(cache);
        let (warm, _) = try_recover_cache(&path, 1, 4).expect("recover");
        let health = ServerHealth::new();
        assert_eq!(warm.get("eval x=1", &health).as_deref(), Some(gnarly));
        let _ = std::fs::remove_file(&path);
    }
}
