//! The closed loop every workload runs: one caller, op kinds interleaved in
//! seeded order, each op timed by the family that knows what it covers.

use crate::sys::Usage;
use crate::trace::Tracer;
use ppatc_units::rng::SplitMix64;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every op kind the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// A fresh `paper table2` process.
    Table2,
    /// A fresh `paper all` process.
    All,
    /// A 10k-sample in-process Monte-Carlo sweep.
    Mc,
    /// A 512×512 in-process tCDP raster.
    Raster,
    /// An in-process Pareto front over the paper design space.
    Pareto,
    /// An in-process case study at a not yet characterized eDRAM size.
    Capacity,
    /// A served query from the hot set.
    Repeat,
    /// A served query at a design point not asked before.
    Fresh,
    /// A served Monte-Carlo query.
    ServeMc,
    /// A hot-set query on a brand-new connection.
    Connect,
}

impl Kind {
    /// Short name used in the informational lines.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table2 => "table2",
            Kind::All => "all",
            Kind::Mc => "mc",
            Kind::Raster => "raster",
            Kind::Pareto => "pareto",
            Kind::Capacity => "capacity",
            Kind::Repeat => "repeat",
            Kind::Fresh => "fresh",
            Kind::ServeMc => "serve-mc",
            Kind::Connect => "connect",
        }
    }
}

/// One family of ops sharing a set-up: the exhibit processes, the
/// in-process library, or a server.
pub trait Family {
    /// Op kinds and counts of one block; each block is shuffled by the seed.
    fn block(&self) -> &'static [(Kind, usize)];
    /// Snapshots whatever the phase's usage and counts are deltas of.
    fn begin_phase(&mut self) -> Result<(), String>;
    /// Runs one op and returns its wall time, ms, after checking its
    /// output (cheap checks now, costly ones deferred to `verify`).
    fn run_op(&mut self, kind: Kind, tracer: &mut Tracer) -> Result<f64, String>;
    /// Usage of the process doing the work over the phase (CPU delta, peak
    /// RSS); adds the phase's layer counts to `tracer`.
    fn end_phase(&mut self, tracer: &mut Tracer) -> Result<Usage, String>;
    /// Runs the deferred output checks; returns one message per failed op.
    fn verify(&mut self) -> Vec<String>;
    /// One more cold set-up, taken while the loop pauses, without touching
    /// the state the loop's ops use or the phase's usage; returns its wall
    /// time, s.
    fn setup_sample(&mut self, tracer: &mut Tracer) -> Result<f64, String>;
}

/// When a loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much wall time (checked before each main op).
    After(Duration),
    /// After this many whole main blocks.
    Blocks(u64),
}

/// A family whose ops are interleaved with the main loop in chunks.
pub struct Side<'a> {
    /// The borrowed family.
    pub family: &'a mut dyn Family,
    /// Blocks of this family per chunk.
    pub blocks_per_chunk: u64,
}

/// What one family's ops measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per-kind op wall times, ms.
    pub samples: BTreeMap<Kind, Vec<f64>>,
    /// Ops started.
    pub attempted: u64,
    /// Ops whose run or check failed.
    pub failed: u64,
    /// Sum of op wall times, ms (the caller's busy time).
    pub busy_ms: f64,
    /// Usage of the working process over the loop.
    pub usage: Usage,
    /// Wall times of the cold set-ups taken during the loop, s.
    pub setups: Vec<f64>,
    /// Failure messages.
    pub errors: Vec<String>,
}

/// Salt separating the op-order streams from a family's parameter stream.
const ORDER_SALT: u64 = 0x6f72_6465_725f_7374;

/// The kinds of block `b` in seeded order.
pub fn block_order(block: &[(Kind, usize)], seed: u64, b: u64) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = block
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    let mut rng = SplitMix64::stream(seed ^ ORDER_SALT, b);
    for i in (1..kinds.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        kinds.swap(i, j);
    }
    kinds
}

/// One family's progress through its seeded block sequence.
struct Cursor {
    blocks: u64,
    stats: LoopStats,
}

impl Cursor {
    fn new() -> Self {
        Self {
            blocks: 0,
            stats: LoopStats::default(),
        }
    }

    /// Runs the family's next block; `deadline` (main loop only) stops it
    /// before any op that would start late. Returns `false` when it did.
    fn run_block(
        &mut self,
        family: &mut dyn Family,
        seed: u64,
        deadline: Option<Instant>,
        op: &mut u64,
        tracer: &mut Tracer,
    ) -> bool {
        let kinds = block_order(family.block(), seed, self.blocks);
        self.blocks += 1;
        for kind in kinds {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            tracer.set_op(*op);
            self.stats.attempted += 1;
            match family.run_op(kind, tracer) {
                Ok(ms) => {
                    self.stats.busy_ms += ms;
                    self.stats.samples.entry(kind).or_default().push(ms);
                }
                Err(e) => {
                    self.stats.failed += 1;
                    self.stats
                        .errors
                        .push(format!("{} op {op}: {e}", kind.name()));
                }
            }
            *op += 1;
        }
        true
    }

    fn finish(mut self, family: &mut dyn Family, tracer: &mut Tracer) -> Result<LoopStats, String> {
        tracer.set_op(crate::trace::SETUP_OP);
        self.stats.usage = family.end_phase(tracer)?;
        let deferred = family.verify();
        self.stats.failed += deferred.len() as u64;
        self.stats.errors.extend(deferred);
        Ok(self.stats)
    }
}

/// Runs `main` in a closed loop until `stop`; before every `every`-th main
/// block (the first included) each side family runs one chunk. A timed
/// loop also takes `setup_samples` cold set-ups of `main`, evenly spread
/// through it, so that `setup_s` sees the same drift in host speed as the
/// ops do. Returns the main family's stats and each side's, after their
/// deferred checks.
pub fn drive(
    main: &mut dyn Family,
    sides: &mut [Side<'_>],
    every: u64,
    seed: u64,
    stop: Stop,
    setup_samples: u32,
    tracer: &mut Tracer,
) -> Result<(LoopStats, Vec<LoopStats>), String> {
    main.begin_phase()?;
    for side in sides.iter_mut() {
        side.family.begin_phase()?;
    }
    let start = Instant::now();
    let (deadline, setup_at) = match stop {
        Stop::After(d) => {
            let at = (1..=setup_samples)
                .map(|k| start + d * k / (setup_samples + 1))
                .collect();
            (Some(start + d), at)
        }
        Stop::Blocks(_) => (None, Vec::new()),
    };
    let mut setups = Vec::new();
    let mut op = 0u64;
    let mut cursor = Cursor::new();
    let mut side_cursors: Vec<Cursor> = sides.iter().map(|_| Cursor::new()).collect();
    for b in 0.. {
        if matches!(stop, Stop::Blocks(n) if b >= n)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            break;
        }
        if setup_at
            .get(setups.len())
            .is_some_and(|&at| Instant::now() >= at)
        {
            setups.push(main.setup_sample(tracer)?);
        }
        if b % every.max(1) == 0 {
            for (side, c) in sides.iter_mut().zip(&mut side_cursors) {
                for _ in 0..side.blocks_per_chunk {
                    c.run_block(side.family, seed, None, &mut op, tracer);
                }
            }
        }
        if !cursor.run_block(main, seed, deadline, &mut op, tracer) {
            break;
        }
    }
    let mut main_stats = cursor.finish(main, tracer)?;
    main_stats.setups = setups;
    let mut side_stats = Vec::new();
    for (side, c) in sides.iter_mut().zip(side_cursors) {
        side_stats.push(c.finish(side.family, tracer)?);
    }
    Ok((main_stats, side_stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_order_is_a_seeded_permutation() {
        let block = [(Kind::Repeat, 3), (Kind::Fresh, 2), (Kind::Connect, 1)];
        let a = block_order(&block, 7, 4);
        assert_eq!(a, block_order(&block, 7, 4));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            [
                Kind::Repeat,
                Kind::Repeat,
                Kind::Repeat,
                Kind::Fresh,
                Kind::Fresh,
                Kind::Connect
            ]
        );
        assert!((0..16).any(|b| block_order(&block, 8, b) != block_order(&block, 7, b)));
    }
}
