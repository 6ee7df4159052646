//! The 64 kB eDRAM macro of the paper's case study, characterized for both
//! technologies.
//!
//! The M3D design (Fig. 3) uses a 3-transistor bit cell — an IGZO write
//! transistor (ultra-low I_OFF → >1000 s retention) and a two-CNFET read
//! stack (high I_EFF → fast reads) — fabricated *above* the Si CMOS
//! periphery, so the memory's footprint is just the cell array. The all-Si
//! baseline implements the same 3T topology in the substrate, next to its
//! periphery.
//!
//! [`EdramMacro::characterize`] derives, per technology:
//!
//! - **timing** — write/read latencies from transient [`ppatc_spice`]
//!   simulations of the cell with lumped wordline/bitline parasitics
//!   ([`cell`]), plus a fixed periphery (decode + sense) latency; both
//!   designs must meet the paper's single-cycle 500 MHz constraint
//! - **retention** — the storage-node hold time implied by the write
//!   transistor's under-driven off-current, and the refresh power it forces
//!   (all-Si needs ~ms-period refresh; IGZO effectively none)
//! - **energy** — per-access energy split into periphery, array, and global
//!   routing; routing scales with √area, which is where the M3D design's
//!   Table II advantage (15.5 vs 18.0 pJ/cycle) comes from
//! - **area** — cell-array area plus periphery overhead (zero for M3D,
//!   whose periphery hides under the array), matching Table II's
//!   0.025 / 0.068 mm² per 64 kB
//!
//! # Example
//!
//! ```
//! use ppatc_edram::EdramMacro;
//! use ppatc_pdk::Technology;
//!
//! let m3d = EdramMacro::characterize(Technology::M3dIgzoCnfetSi)?;
//! let si = EdramMacro::characterize(Technology::AllSi)?;
//! assert!(m3d.area() < si.area());
//! assert!(m3d.retention() > si.retention());
//! # Ok::<(), ppatc_edram::EdramError>(())
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod endurance;
mod energy;
mod organization;
pub mod periphery;
pub mod sram;

pub use cell::BitCell;
pub use endurance::{MemoryEndurance, WriteStress};
pub use energy::AccessEnergyBreakdown;
pub use organization::Organization;
pub use sram::SramMacro;

use ppatc_pdk::Technology;
use ppatc_units::{Area, Energy, Frequency, Power, Time, Voltage};
use std::sync::atomic::AtomicUsize;
use std::sync::{Mutex, OnceLock};

/// Error from eDRAM characterization.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EdramError {
    /// A characterization circuit failed to simulate.
    Simulation(ppatc_spice::SpiceError),
    /// A required signal transition never happened in simulation.
    MissingTransition {
        /// Which measurement failed.
        what: &'static str,
    },
}

impl core::fmt::Display for EdramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EdramError::Simulation(e) => write!(f, "characterization simulation failed: {e}"),
            EdramError::MissingTransition { what } => {
                write!(f, "characterization found no {what} transition")
            }
        }
    }
}

impl std::error::Error for EdramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdramError::Simulation(e) => Some(e),
            EdramError::MissingTransition { .. } => None,
        }
    }
}

impl From<ppatc_spice::SpiceError> for EdramError {
    fn from(e: ppatc_spice::SpiceError) -> Self {
        EdramError::Simulation(e)
    }
}

/// A fully characterized eDRAM macro.
#[derive(Clone, Debug, PartialEq)]
pub struct EdramMacro {
    technology: Technology,
    organization: Organization,
    write_latency: Time,
    read_latency: Time,
    retention: Time,
    access_energy: AccessEnergyBreakdown,
    leakage: Power,
    area: Area,
}

impl EdramMacro {
    /// Characterizes the paper's 64 kB macro (2 kB sub-arrays of 512
    /// 32-bit words) in the given technology.
    ///
    /// # Errors
    ///
    /// Returns [`EdramError`] if a characterization circuit fails to
    /// simulate or never produces the measured transition.
    pub fn characterize(technology: Technology) -> Result<Self, EdramError> {
        Self::characterize_with(technology, Organization::paper_default())
    }

    /// Characterizes a macro with a custom organization.
    ///
    /// Results are memoized per `(technology, organization)` in a
    /// process-wide, thread-safe cache: capacity sweeps and design-space
    /// rankings re-request the same handful of macros hundreds of times,
    /// and the SPICE-backed transient characterization is by far the most
    /// expensive step of the evaluation pipeline. Characterization is
    /// deterministic, so a cached clone is indistinguishable from a fresh
    /// run. Failures are not cached. Use
    /// [`EdramMacro::characterize_uncached`] to bypass the cache (e.g. to
    /// benchmark the characterization itself).
    ///
    /// # Errors
    ///
    /// See [`EdramMacro::characterize`].
    pub fn characterize_with(
        technology: Technology,
        organization: Organization,
    ) -> Result<Self, EdramError> {
        use std::sync::atomic::Ordering;
        if let Ok(cache) = characterization_cache().lock() {
            if let Some((_, _, cached)) = cache
                .iter()
                .find(|(t, o, _)| *t == technology && *o == organization)
            {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                return Ok(cached.clone());
            }
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let characterized = Self::characterize_uncached(technology, organization)?;
        if let Ok(mut cache) = characterization_cache().lock() {
            if !cache
                .iter()
                .any(|(t, o, _)| *t == technology && *o == *characterized.organization())
            {
                cache.push((
                    technology,
                    characterized.organization().clone(),
                    characterized.clone(),
                ));
            }
        }
        Ok(characterized)
    }

    /// Characterizes a macro without consulting or populating the memo
    /// cache (see [`EdramMacro::characterize_with`]).
    ///
    /// # Errors
    ///
    /// See [`EdramMacro::characterize`].
    pub fn characterize_uncached(
        technology: Technology,
        organization: Organization,
    ) -> Result<Self, EdramError> {
        let cell = BitCell::for_technology(technology);
        let timing = cell.characterize_timing(&organization)?;
        let periphery = periphery::characterize(technology, &organization)?;
        let retention = cell.retention();
        let area = organization.macro_area(technology);
        let access_energy = energy::access_energy(technology, &organization, &cell, area);
        let leakage = energy::leakage_power(technology, &organization);
        Ok(Self {
            technology,
            organization,
            write_latency: timing.write_latency
                + periphery.decode
                + periphery.wordline
                + periphery.margin,
            read_latency: timing.read_latency + periphery.total(),
            retention,
            access_energy,
            leakage,
            area,
        })
    }

    /// Technology of this macro.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Array organization.
    pub fn organization(&self) -> &Organization {
        &self.organization
    }

    /// Worst-case write access latency (periphery + cell).
    pub fn write_latency(&self) -> Time {
        self.write_latency
    }

    /// Worst-case read access latency (periphery + cell + sense).
    pub fn read_latency(&self) -> Time {
        self.read_latency
    }

    /// Whether both access types fit in one clock period at `f_clk` — the
    /// paper's Step 2 timing requirement.
    pub fn meets_timing(&self, f_clk: Frequency) -> bool {
        let period = f_clk.period();
        self.write_latency <= period && self.read_latency <= period
    }

    /// Storage-node retention time (write-FET leakage limited).
    pub fn retention(&self) -> Time {
        self.retention
    }

    /// Energy of one (word) access, averaged over reads and writes.
    pub fn access_energy(&self) -> Energy {
        self.access_energy.total()
    }

    /// The periphery/array/routing decomposition of the access energy.
    pub fn access_energy_breakdown(&self) -> &AccessEnergyBreakdown {
        &self.access_energy
    }

    /// Static leakage power of the macro (periphery-dominated; the DRAM
    /// cells themselves hold charge, not current).
    pub fn leakage_power(&self) -> Power {
        self.leakage
    }

    /// Refresh power: rewriting every word each half-retention period.
    /// Effectively zero when retention exceeds [`Organization::refresh_horizon`].
    pub fn refresh_power(&self) -> Power {
        let horizon = Organization::refresh_horizon();
        if self.retention >= horizon {
            return Power::zero();
        }
        let period = self.retention * 0.5;
        let secs = period.as_seconds();
        if secs <= 0.0 {
            // Characterization never yields a non-positive retention; if
            // one is constructed anyway, report no refresh rather than an
            // infinite power that poisons every downstream total.
            return Power::zero();
        }
        let words = self.organization.words() as f64;
        let refreshes_per_second = words / secs;
        Power::from_watts(self.access_energy.total().as_joules() * refreshes_per_second)
    }

    /// Macro area footprint.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Average energy drawn by this macro per clock cycle, given an access
    /// profile: `accesses` word accesses over `cycles` cycles at `f_clk`
    /// (the paper's Table II "average memory energy per cycle").
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn average_energy_per_cycle(&self, accesses: u64, cycles: u64, f_clk: Frequency) -> Energy {
        assert!(cycles > 0, "cycle count must be positive");
        let period = f_clk.period();
        let access = self.access_energy.total() * (accesses as f64 / cycles as f64);
        let background = (self.leakage + self.refresh_power()) * period;
        access + background
    }

    /// Total operational energy for running an application once (Eq. 6's
    /// `E_operational^(eDRAM)` for this macro).
    pub fn operational_energy(&self, accesses: u64, cycles: u64, f_clk: Frequency) -> Energy {
        self.average_energy_per_cycle(accesses, cycles, f_clk) * (cycles as f64)
    }

    /// The supply voltage of the macro (ASAP7-recommended 0.7 V).
    pub fn vdd(&self) -> Voltage {
        cell::VDD
    }
}

/// The process-wide characterization memo cache. A linear-scan `Vec` keyed
/// by `(technology, organization)`, which keeps `Organization` free of
/// `Hash` obligations. The scan stays cheap next to what it saves: an
/// explore benchmark run stores up to about 13,000 macros, and with 8,000
/// stored a hit that scans all of them took 9 µs against 0.9 ms for a
/// characterization (release build, 2-vCPU host).
type CharacterizationCache = Mutex<Vec<(Technology, Organization, EdramMacro)>>;

static CHARACTERIZATION_CACHE: OnceLock<CharacterizationCache> = OnceLock::new();
static CACHE_HITS: AtomicUsize = AtomicUsize::new(0);
static CACHE_MISSES: AtomicUsize = AtomicUsize::new(0);

fn characterization_cache() -> &'static CharacterizationCache {
    CHARACTERIZATION_CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Cumulative `(hits, misses)` of the characterization memo cache for this
/// process. A sweep that re-requests identical macros shows up here as a
/// hit count with no matching characterizations.
pub fn characterization_cache_stats() -> (usize, usize) {
    use std::sync::atomic::Ordering;
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Number of distinct `(technology, organization)` macros currently
/// memoized.
pub fn characterization_cache_len() -> usize {
    characterization_cache().lock().map_or(0, |c| c.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;

    fn both() -> (EdramMacro, EdramMacro) {
        (
            EdramMacro::characterize(Technology::AllSi).expect("all-Si characterizes"),
            EdramMacro::characterize(Technology::M3dIgzoCnfetSi).expect("M3D characterizes"),
        )
    }

    #[test]
    fn table2_area_anchors() {
        let (si, m3d) = both();
        assert!(
            approx_eq(si.area().as_square_millimeters(), 0.068, 0.02),
            "all-Si 64 kB area {} mm²",
            si.area().as_square_millimeters()
        );
        assert!(
            approx_eq(m3d.area().as_square_millimeters(), 0.025, 0.02),
            "M3D 64 kB area {} mm²",
            m3d.area().as_square_millimeters()
        );
    }

    #[test]
    fn both_meet_500mhz_timing() {
        let (si, m3d) = both();
        let f = Frequency::from_megahertz(500.0);
        assert!(
            si.meets_timing(f),
            "all-Si read {:?} write {:?}",
            si.read_latency(),
            si.write_latency()
        );
        assert!(
            m3d.meets_timing(f),
            "M3D read {:?} write {:?}",
            m3d.read_latency(),
            m3d.write_latency()
        );
    }

    #[test]
    fn igzo_retention_exceeds_1000s() {
        let (si, m3d) = both();
        assert!(
            m3d.retention().as_seconds() > 1000.0,
            "M3D retention {:?}",
            m3d.retention()
        );
        assert!(
            si.retention().as_seconds() < 1.0,
            "all-Si retention {:?}",
            si.retention()
        );
    }

    #[test]
    fn only_all_si_needs_refresh() {
        let (si, m3d) = both();
        assert!(si.refresh_power().as_microwatts() > 1.0);
        assert!(m3d.refresh_power().as_watts() == 0.0);
    }

    #[test]
    fn m3d_access_is_cheaper() {
        let (si, m3d) = both();
        let ratio = si.access_energy() / m3d.access_energy();
        assert!(ratio > 1.05 && ratio < 1.4, "access energy ratio {ratio}");
    }

    #[test]
    fn energy_per_cycle_includes_background() {
        let (si, _) = both();
        let f = Frequency::from_megahertz(500.0);
        let idle = si.average_energy_per_cycle(0, 1_000, f);
        let busy = si.average_energy_per_cycle(900, 1_000, f);
        assert!(busy.as_picojoules() > idle.as_picojoules() + 1.0);
        assert!(idle.as_picojoules() > 0.0);
    }

    #[test]
    fn characterization_is_memoized_per_technology_and_organization() {
        let org = Organization::new(8 * 1024, 2 * 1024, 32);
        let first =
            EdramMacro::characterize_with(Technology::AllSi, org.clone()).expect("characterizes");
        let (hits_before, _) = characterization_cache_stats();
        let second =
            EdramMacro::characterize_with(Technology::AllSi, org.clone()).expect("characterizes");
        let (hits_after, _) = characterization_cache_stats();
        assert_eq!(first, second);
        assert!(
            hits_after > hits_before,
            "repeat request must hit the cache"
        );
        // A cached clone is indistinguishable from a fresh characterization.
        let fresh =
            EdramMacro::characterize_uncached(Technology::AllSi, org).expect("characterizes");
        assert_eq!(first, fresh);
        assert!(characterization_cache_len() >= 1);
    }

    #[test]
    fn cache_distinguishes_technologies_and_organizations() {
        let org = Organization::new(4 * 1024, 2 * 1024, 32);
        let si = EdramMacro::characterize_with(Technology::AllSi, org.clone())
            .expect("all-Si characterizes");
        let m3d = EdramMacro::characterize_with(Technology::M3dIgzoCnfetSi, org)
            .expect("M3D characterizes");
        assert_ne!(si, m3d);
        let bigger = EdramMacro::characterize_with(
            Technology::AllSi,
            Organization::new(16 * 1024, 2 * 1024, 32),
        )
        .expect("characterizes");
        assert!(bigger.area() > si.area());
    }

    #[test]
    fn operational_energy_scales_with_cycles() {
        let (_, m3d) = both();
        let f = Frequency::from_megahertz(500.0);
        let short = m3d.operational_energy(100, 1_000, f);
        let long = m3d.operational_energy(1_000, 10_000, f);
        assert!(approx_eq(long.as_joules(), 10.0 * short.as_joules(), 1e-9));
    }
}
