//! Workload parameterization.

use misp_mem::AccessPattern;
use serde::{Deserialize, Serialize};

/// The benchmark suite a workload belongs to (the grouping used by Table 1 and
/// Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// Recognition-Mining-Synthesis kernels and the RayTracer application.
    Rms,
    /// SPEComp applications run through the OpenMP runtime.
    SpecOmp,
}

impl Suite {
    /// Human-readable suite name as used in the paper's tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Suite::Rms => "RMS",
            Suite::SpecOmp => "SPEComp",
        }
    }
}

/// How a worker shred revisits memory inside its parallel loop — the knob
/// that makes the cache hierarchy (`misp-cache`) distinguishable.
///
/// The first touch of every working-set page is governed by
/// [`AccessPattern`]; `LocalityProfile` governs the *steady-state* accesses
/// each loop iteration performs afterwards.  With the cache model disabled
/// (the default) the profiles differ only in their TLB/page behaviour; with
/// it enabled they separate into distinct miss regimes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocalityProfile {
    /// The original calibration behaviour: revisit one already-resident page
    /// per iteration.  This is the default and is what every paper workload
    /// uses, keeping their committed goldens byte-identical.
    #[default]
    Revisit,
    /// Stream through the worker's whole working set, `pages_per_chunk`
    /// pages per iteration, never reusing a line before the set wraps —
    /// the cache-hostile regime.
    Streaming {
        /// Pages touched per loop iteration.
        pages_per_chunk: u64,
    },
    /// Revisit a small block of `block_pages` pages `touches_per_chunk`
    /// times per iteration — the cache-friendly blocked/tiled regime.
    Blocked {
        /// Size of the reused block, in pages.
        block_pages: u64,
        /// Accesses per loop iteration.
        touches_per_chunk: u64,
    },
    /// All workers read *and write* a shared hot set of `pages` pages every
    /// iteration — the coherence-bound regime (invalidations, coherence
    /// misses).  Every fourth access is a store.
    SharedHotSet {
        /// Size of the shared hot set, in pages.
        pages: u64,
        /// Accesses per loop iteration.
        touches_per_chunk: u64,
    },
}

/// The calibration parameters of one synthetic workload.
///
/// All quantities are already scaled down from the original benchmarks (by
/// roughly two orders of magnitude in run time) so that a full Figure 4 sweep
/// simulates in seconds; the *ratios* between parameters — serial fraction,
/// faults per unit of compute, syscall rate — are what carry over from the
/// paper's Table 1 event profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Total compute work in cycles (serial + parallel portions together).
    pub total_work: u64,
    /// Fraction of `total_work` executed serially by the main shred before the
    /// parallel region (this is what bounds scalability, Amdahl-style).
    pub serial_fraction: f64,
    /// Pages the main shred touches during the serial region (these become
    /// OMS-local page faults).
    pub main_pages: u64,
    /// Pages each worker shred touches first (these become AMS page faults —
    /// proxy executions — when the worker runs on an AMS).
    pub worker_pages: u64,
    /// Number of loop iterations each worker's work is divided into.
    pub chunks_per_worker: u64,
    /// System calls issued by the main shred (OMS syscalls in Table 1).
    pub main_syscalls: u64,
    /// System calls issued by each worker shred (AMS syscalls in Table 1; zero
    /// for every paper workload except art).
    pub worker_syscalls: u64,
    /// The order in which working-set pages are first touched.
    pub access_pattern: AccessPattern,
    /// Whether workers contend on a shared mutex-protected accumulator each
    /// iteration (models reduction-style kernels).
    pub lock_contention: bool,
    /// The steady-state memory-locality regime of the parallel loop.
    pub locality: LocalityProfile,
}

impl WorkloadParams {
    /// Compute cycles executed serially by the main shred.
    #[must_use]
    pub fn serial_work(&self) -> u64 {
        (self.total_work as f64 * self.serial_fraction) as u64
    }

    /// Compute cycles available to the parallel region (split across workers).
    #[must_use]
    pub fn parallel_work(&self) -> u64 {
        self.total_work - self.serial_work()
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            total_work: 20_000_000,
            serial_fraction: 0.05,
            main_pages: 16,
            worker_pages: 8,
            chunks_per_worker: 20,
            main_syscalls: 0,
            worker_syscalls: 0,
            access_pattern: AccessPattern::Sequential,
            lock_contention: false,
            locality: LocalityProfile::Revisit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::Rms.label(), "RMS");
        assert_eq!(Suite::SpecOmp.label(), "SPEComp");
    }

    #[test]
    fn work_split_is_consistent() {
        let p = WorkloadParams {
            total_work: 1_000_000,
            serial_fraction: 0.25,
            ..WorkloadParams::default()
        };
        assert_eq!(p.serial_work(), 250_000);
        assert_eq!(p.parallel_work(), 750_000);
        assert_eq!(p.serial_work() + p.parallel_work(), p.total_work);
    }
}
