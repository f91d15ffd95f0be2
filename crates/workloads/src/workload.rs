//! Workload definitions and shred-program generation.

use crate::{LocalityProfile, Suite, WorkloadParams};
use misp_isa::{Op, ProgramBuilder, ProgramLibrary, SyscallKind};
use misp_mem::WorkingSet;
use misp_types::{Cycles, LockId, VirtAddr, PAGE_SIZE};
use shredlib::{compat::LegacyApi, GangScheduler};

/// Base virtual address of the main shred's (serial-region) working set.
const MAIN_BASE: u64 = 0x1000_0000;
/// Base virtual address of the first worker's working set; workers are laid
/// out contiguously above this.
const WORKER_BASE: u64 = 0x4000_0000;
/// Base virtual address of the hot set shared by every worker of a
/// [`LocalityProfile::SharedHotSet`] workload.
const SHARED_BASE: u64 = 0x8000_0000;
/// The barrier every shred (workers + main) waits at to end the run.
const FINISH_BARRIER: LockId = LockId::new(0);
/// The mutex used by workloads with a contended shared accumulator.
const REDUCTION_MUTEX: LockId = LockId::new(1);

/// One synthetic benchmark: a named, calibrated fork/join workload.
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    suite: Suite,
    params: WorkloadParams,
}

impl Workload {
    /// Creates a workload from its calibration parameters.
    #[must_use]
    pub fn new(name: &'static str, suite: Suite, params: WorkloadParams) -> Self {
        Workload {
            name,
            suite,
            params,
        }
    }

    /// The benchmark name as used in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The suite the benchmark belongs to.
    #[must_use]
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The calibration parameters.
    #[must_use]
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Builds the workload's shred programs into `library` and returns the
    /// gang scheduler configured to run them with `workers` worker shreds.
    ///
    /// The structure follows the paper's OpenMP-style execution model: the
    /// main shred registers the proxy handler, touches its serial working
    /// set, performs the serial computation, creates the worker shreds and
    /// finally joins them at a barrier.  Each worker touches its own partition
    /// of the parallel working set (first touches become compulsory page
    /// faults), executes its share of the parallel work in
    /// `chunks_per_worker` iterations, issues its system calls, and arrives at
    /// the barrier.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn build(&self, library: &mut ProgramLibrary, workers: usize) -> GangScheduler {
        self.build_inner(library, workers, false)
    }

    /// Like [`Workload::build`], but the main shred pre-touches every worker
    /// page during the serial region — the optimization suggested in
    /// Section 5.3 of the paper, which converts would-be proxy executions into
    /// ordinary OMS-local faults before parallel execution starts.
    #[must_use]
    pub fn build_with_pretouch(
        &self,
        library: &mut ProgramLibrary,
        workers: usize,
    ) -> GangScheduler {
        self.build_inner(library, workers, true)
    }

    fn worker_set(&self, index: usize) -> Option<WorkingSet> {
        if self.params.worker_pages == 0 {
            return None;
        }
        let base = WORKER_BASE + index as u64 * self.params.worker_pages * PAGE_SIZE;
        Some(WorkingSet::new(
            format!("{}-worker{}", self.name, index),
            VirtAddr::new(base),
            self.params.worker_pages,
        ))
    }

    /// Emits the steady-state accesses of loop iteration `chunk` for the
    /// given locality profile.
    fn chunk_accesses(
        mut b: ProgramBuilder,
        locality: LocalityProfile,
        set: Option<&WorkingSet>,
        chunk: u64,
    ) -> ProgramBuilder {
        match locality {
            LocalityProfile::Revisit => {
                if let Some(set) = set {
                    b = b.load(set.page_addr(chunk % set.pages()));
                }
            }
            LocalityProfile::Streaming { pages_per_chunk } => {
                if let Some(set) = set {
                    let pages = set.pages();
                    for i in 0..pages_per_chunk {
                        b = b.load(set.page_addr((chunk * pages_per_chunk + i) % pages));
                    }
                }
            }
            LocalityProfile::Blocked {
                block_pages,
                touches_per_chunk,
            } => {
                if let Some(set) = set {
                    let block = block_pages.clamp(1, set.pages());
                    for i in 0..touches_per_chunk {
                        b = b.load(set.page_addr(i % block));
                    }
                }
            }
            LocalityProfile::SharedHotSet {
                pages,
                touches_per_chunk,
            } => {
                let pages = pages.max(1);
                for i in 0..touches_per_chunk {
                    let addr = VirtAddr::new(SHARED_BASE + ((chunk + i) % pages) * PAGE_SIZE);
                    b = if i % 4 == 0 {
                        b.store(addr)
                    } else {
                        b.load(addr)
                    };
                }
            }
        }
        b
    }

    fn build_inner(
        &self,
        library: &mut ProgramLibrary,
        workers: usize,
        pretouch: bool,
    ) -> GangScheduler {
        assert!(workers > 0, "a workload needs at least one worker");
        let p = &self.params;
        let per_worker_work = p.parallel_work() / workers as u64;
        let chunks = p.chunks_per_worker.max(1);
        let chunk_cycles = (per_worker_work / chunks).max(1);

        // --- worker programs -------------------------------------------------
        let mut worker_refs = Vec::with_capacity(workers);
        for w in 0..workers {
            let mut b = ProgramBuilder::new(format!("{}-worker{}", self.name, w));
            // Built once per worker: constructing the set formats its name,
            // and the chunk loop below consults it every iteration.
            let set = self.worker_set(w);
            if let Some(set) = set.as_ref() {
                // First-touch the worker's partition in the configured order.
                for addr in p.access_pattern.addresses(set) {
                    b = b.op(Op::load(addr));
                }
            }
            let syscall_period = chunks
                .checked_div(p.worker_syscalls)
                .map_or(0, |period| period.max(1));
            let mut issued_syscalls = 0;
            for c in 0..chunks {
                b = b.compute(Cycles::new(chunk_cycles));
                if p.lock_contention {
                    b = b
                        .mutex_lock(REDUCTION_MUTEX)
                        .compute(Cycles::new(200))
                        .mutex_unlock(REDUCTION_MUTEX);
                }
                // Steady-state accesses of this iteration, per the locality
                // profile (the default revisits one already-resident page:
                // TLB traffic, no new faults).
                b = Self::chunk_accesses(b, p.locality, set.as_ref(), c);
                if syscall_period > 0
                    && issued_syscalls < p.worker_syscalls
                    && (c + 1) % syscall_period == 0
                {
                    b = b.syscall(SyscallKind::Io);
                    issued_syscalls += 1;
                }
            }
            b = b.barrier_wait(FINISH_BARRIER);
            worker_refs.push(library.insert(b.build()));
        }

        // --- main program -----------------------------------------------------
        let mut main = ProgramBuilder::new(format!("{}-main", self.name)).op(Op::RegisterHandler);
        // Serial-region working set (OMS-local compulsory faults).
        if p.main_pages > 0 {
            main = main.touch_pages(VirtAddr::new(MAIN_BASE), p.main_pages);
        }
        if pretouch {
            for w in 0..workers {
                if let Some(set) = self.worker_set(w) {
                    main = main.touch_pages(set.base(), set.pages());
                }
            }
        }
        // Main-shred system calls (allocation, I/O setup) interleaved with the
        // serial compute in two halves.
        let serial = p.serial_work();
        let half_serial = serial / 2;
        main = main.compute(Cycles::new(half_serial.max(1)));
        for i in 0..p.main_syscalls {
            let kind = if i % 4 == 0 {
                SyscallKind::Memory
            } else {
                SyscallKind::Io
            };
            main = main.syscall(kind);
        }
        main = main.compute(Cycles::new((serial - half_serial).max(1)));
        for &w in &worker_refs {
            main = main.shred_create(w);
        }
        main = main.barrier_wait(FINISH_BARRIER);
        let main_ref = library.insert(main.build());

        GangScheduler::builder()
            .main_program(main_ref)
            .barrier(FINISH_BARRIER, workers + 1)
            .build()
    }
}

/// A legacy application from Table 2 of the paper, described by the threading
/// API surface it uses.  The Table 2 experiment reports how much of that
/// surface ShredLib's thread-to-shred mapping covers mechanically.
#[derive(Debug, Clone)]
pub struct PortedApplication {
    /// Application name as listed in Table 2.
    pub name: &'static str,
    /// The paper's one-line description.
    pub description: &'static str,
    /// The threading API family the application is written against.
    pub api: LegacyApi,
    /// The threading API functions the application uses.
    pub functions: Vec<&'static str>,
    /// The porting effort, in days, reported by the paper (for reference
    /// only — human effort cannot be re-measured in simulation).
    pub paper_days: f64,
    /// Whether the paper reports that the port required structural changes.
    pub structural_changes: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_isa::RuntimeOp;

    fn sample() -> Workload {
        Workload::new(
            "sample",
            Suite::Rms,
            WorkloadParams {
                total_work: 8_000_000,
                serial_fraction: 0.1,
                main_pages: 4,
                worker_pages: 3,
                chunks_per_worker: 5,
                main_syscalls: 2,
                worker_syscalls: 1,
                ..WorkloadParams::default()
            },
        )
    }

    #[test]
    fn build_populates_library_with_workers_plus_main() {
        let mut lib = ProgramLibrary::new();
        let w = sample();
        let _sched = w.build(&mut lib, 4);
        assert_eq!(lib.len(), 5, "4 workers + 1 main");
        let names: Vec<&str> = lib.iter().map(|(_, p)| p.name()).collect();
        assert!(names.contains(&"sample-main"));
        assert!(names.contains(&"sample-worker3"));
    }

    #[test]
    fn main_program_creates_every_worker_and_registers_handler() {
        let mut lib = ProgramLibrary::new();
        let w = sample();
        let _ = w.build(&mut lib, 3);
        let main = lib
            .iter()
            .find(|(_, p)| p.name().ends_with("main"))
            .unwrap()
            .1;
        let ops: Vec<Op> = main.iter_flat().collect();
        assert_eq!(ops[0], Op::RegisterHandler);
        let creates = ops
            .iter()
            .filter(|o| matches!(o, Op::Runtime(RuntimeOp::ShredCreate { .. })))
            .count();
        assert_eq!(creates, 3);
        let faults = ops.iter().filter(|o| matches!(o, Op::Touch { .. })).count();
        assert_eq!(faults, 4, "main touches exactly its serial working set");
        let syscalls = ops.iter().filter(|o| matches!(o, Op::Syscall(_))).count();
        assert_eq!(syscalls, 2);
    }

    #[test]
    fn worker_program_touches_disjoint_pages_and_syscalls() {
        let mut lib = ProgramLibrary::new();
        let w = sample();
        let _ = w.build(&mut lib, 2);
        let pages_of = |name: &str| -> Vec<u64> {
            lib.iter()
                .find(|(_, p)| p.name() == name)
                .unwrap()
                .1
                .iter_flat()
                .filter_map(|o| match o {
                    Op::Touch { addr, .. } => Some(addr.page().number()),
                    _ => None,
                })
                .collect()
        };
        let w0: std::collections::BTreeSet<u64> = pages_of("sample-worker0").into_iter().collect();
        let w1: std::collections::BTreeSet<u64> = pages_of("sample-worker1").into_iter().collect();
        assert!(w0.is_disjoint(&w1), "worker working sets must not overlap");
        assert_eq!(w0.len(), 3);
    }

    #[test]
    fn pretouch_adds_worker_pages_to_main() {
        let mut lib = ProgramLibrary::new();
        let w = sample();
        let _ = w.build_with_pretouch(&mut lib, 2);
        let main = lib
            .iter()
            .find(|(_, p)| p.name().ends_with("main"))
            .unwrap()
            .1;
        let touches = main
            .iter_flat()
            .filter(|o| matches!(o, Op::Touch { .. }))
            .count();
        // 4 main pages + 2 workers x 3 pages each.
        assert_eq!(touches, 4 + 6);
    }

    #[test]
    fn zero_worker_pages_produces_no_touches() {
        let mut lib = ProgramLibrary::new();
        let w = Workload::new(
            "nopages",
            Suite::Rms,
            WorkloadParams {
                worker_pages: 0,
                main_pages: 0,
                ..WorkloadParams::default()
            },
        );
        let _ = w.build(&mut lib, 2);
        for (_, p) in lib.iter() {
            let touches = p
                .iter_flat()
                .filter(|o| matches!(o, Op::Touch { .. }))
                .count();
            assert_eq!(touches, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let mut lib = ProgramLibrary::new();
        let _ = sample().build(&mut lib, 0);
    }

    #[test]
    fn accessors() {
        let w = sample();
        assert_eq!(w.name(), "sample");
        assert_eq!(w.suite(), Suite::Rms);
        assert!(w.params().serial_fraction > 0.0);
    }
}
