//! A convenience wrapper that assembles a complete MISP machine.

use crate::{MispPlatform, MispTopology};
use misp_isa::ProgramLibrary;
use misp_sim::{Machine, Runtime, SimConfig, SimReport};
use misp_types::{OsThreadId, ProcessId, Result};

/// A fully-assembled MISP machine: topology, engine, OS processes and
/// runtimes.
///
/// `MispMachine` wraps a [`Machine<MispPlatform>`] with the bookkeeping every
/// experiment needs: spawning processes and threads, registering address
/// spaces, attaching runtimes and placing threads on MISP processors.
///
/// # Examples
///
/// ```
/// use misp_core::{MispMachine, MispTopology};
/// use misp_isa::{ProgramBuilder, ProgramLibrary, ProgramRef};
/// use misp_sim::{SimConfig, SingleShredRuntime};
/// use misp_types::Cycles;
///
/// let mut library = ProgramLibrary::new();
/// let main = library.insert(ProgramBuilder::new("main").compute(Cycles::new(5_000)).build());
///
/// let topology = MispTopology::uniprocessor(3).unwrap();
/// let mut machine = MispMachine::new(topology, SimConfig::default(), library);
/// machine.add_process("demo", Box::new(SingleShredRuntime::new(main)), Some(0));
/// let report = machine.run().unwrap();
/// assert!(report.total_cycles >= Cycles::new(5_000));
/// ```
#[derive(Debug)]
pub struct MispMachine {
    engine: Machine<MispPlatform>,
}

impl MispMachine {
    /// Creates a machine with the given topology, configuration and program
    /// library.
    #[must_use]
    pub fn new(topology: MispTopology, config: SimConfig, library: ProgramLibrary) -> Self {
        let sequencers = topology.total_sequencers();
        let platform = MispPlatform::new(topology);
        MispMachine {
            engine: Machine::new(config, sequencers, library, platform),
        }
    }

    /// Adds a process with one OS thread and the given user-level runtime.
    ///
    /// The thread is pinned to MISP processor `processor` if given, otherwise
    /// placed on the least-loaded processor.  Threads are placed in call
    /// order, so pin threads before adding any that are placed
    /// automatically.  Returns the new process id.
    pub fn add_process(
        &mut self,
        name: &str,
        runtime: Box<dyn Runtime>,
        processor: Option<usize>,
    ) -> ProcessId {
        let pid = self.engine.core_mut().kernel_mut().spawn_process(name);
        self.engine.core_mut().memory_mut().register_process(pid);
        self.engine.add_runtime(pid, runtime);
        let tid = self.engine.core_mut().kernel_mut().spawn_thread(pid);
        self.place(tid, processor);
        pid
    }

    /// Adds an additional OS thread to an existing process (e.g. one thread
    /// per MISP processor for a multi-shredded application spanning an MP
    /// system).  Returns the new thread id.
    pub fn add_thread(&mut self, process: ProcessId, processor: Option<usize>) -> OsThreadId {
        let tid = self.engine.core_mut().kernel_mut().spawn_thread(process);
        self.place(tid, processor);
        tid
    }

    fn place(&mut self, thread: OsThreadId, processor: Option<usize>) {
        match processor {
            Some(p) => self.engine.platform_mut().pin_thread(thread, p),
            None => self.engine.platform_mut().place_thread(thread),
        }
    }

    /// Restricts the completion criterion to the given processes (see
    /// [`Machine::set_measured`]).
    pub fn set_measured(&mut self, processes: Vec<ProcessId>) {
        self.engine.set_measured(processes);
    }

    /// The underlying simulated machine.
    #[must_use]
    pub fn engine(&self) -> &Machine<MispPlatform> {
        &self.engine
    }

    /// Mutable access to the underlying simulated machine.
    pub fn engine_mut(&mut self) -> &mut Machine<MispPlatform> {
        &mut self.engine
    }

    /// Surrenders the assembled machine so it can join a
    /// [`misp_sim::FleetEngine`].
    #[must_use]
    pub fn into_sim_machine(self) -> Machine<MispPlatform> {
        self.engine
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Machine::run`] (cycle-budget exhaustion,
    /// deadlock, missing runtime).
    pub fn run(&mut self) -> Result<SimReport> {
        self.engine.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_isa::{ProgramBuilder, ProgramRef, SyscallKind};
    use misp_os::TimerConfig;
    use misp_sim::SingleShredRuntime;
    use misp_types::{Cycles, VirtAddr};

    fn quiet_config() -> SimConfig {
        SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        }
    }

    fn one_program_library(program: misp_isa::ShredProgram) -> (ProgramLibrary, ProgramRef) {
        let mut lib = ProgramLibrary::new();
        let r = lib.insert(program);
        (lib, r)
    }

    #[test]
    fn compute_only_process_completes_on_oms() {
        let (lib, main) = one_program_library(
            ProgramBuilder::new("main")
                .compute(Cycles::new(100_000))
                .build(),
        );
        let topo = MispTopology::uniprocessor(3).unwrap();
        let mut machine = MispMachine::new(topo, quiet_config(), lib);
        machine.add_process("app", Box::new(SingleShredRuntime::new(main)), Some(0));
        let report = machine.run().unwrap();
        assert!(report.total_cycles >= Cycles::new(100_000));
        assert!(report.total_cycles < Cycles::new(110_000));
    }

    #[test]
    fn oms_syscall_serializes_but_completes() {
        let (lib, main) = one_program_library(
            ProgramBuilder::new("main")
                .compute(Cycles::new(1_000))
                .syscall(SyscallKind::Io)
                .compute(Cycles::new(1_000))
                .build(),
        );
        let topo = MispTopology::uniprocessor(7).unwrap();
        let mut machine = MispMachine::new(topo, quiet_config(), lib);
        machine.add_process("app", Box::new(SingleShredRuntime::new(main)), Some(0));
        let report = machine.run().unwrap();
        assert_eq!(report.stats.oms_events.syscalls, 1);
        assert_eq!(report.stats.serializations, 1);
        assert_eq!(report.stats.ams_events.total(), 0);
    }

    #[test]
    fn page_faults_on_oms_are_local_events() {
        let (lib, main) = one_program_library(
            ProgramBuilder::new("main")
                .touch_pages(VirtAddr::new(0x100_0000), 10)
                .build(),
        );
        let topo = MispTopology::uniprocessor(1).unwrap();
        let mut machine = MispMachine::new(topo, quiet_config(), lib);
        machine.add_process("app", Box::new(SingleShredRuntime::new(main)), Some(0));
        let report = machine.run().unwrap();
        assert_eq!(report.stats.oms_events.page_faults, 10);
        assert_eq!(report.stats.proxy_executions, 0);
    }

    #[test]
    fn two_processes_on_different_processors_run_concurrently() {
        let mut lib = ProgramLibrary::new();
        let p = lib.insert(
            ProgramBuilder::new("w")
                .compute(Cycles::new(200_000))
                .build(),
        );
        let topo = MispTopology::uniform(2, 1).unwrap();
        let mut machine = MispMachine::new(topo, quiet_config(), lib);
        machine.add_process("a", Box::new(SingleShredRuntime::new(p)), Some(0));
        machine.add_process("b", Box::new(SingleShredRuntime::new(p)), Some(1));
        let report = machine.run().unwrap();
        // Both processes complete in roughly the single-process time because
        // they run on separate MISP processors.
        assert!(report.total_cycles < Cycles::new(250_000));
    }

    #[test]
    fn two_processes_sharing_one_oms_timeshare() {
        let mut lib = ProgramLibrary::new();
        let p = lib.insert(
            ProgramBuilder::new("w")
                .compute(Cycles::new(30_000_000))
                .build(),
        );
        let topo = MispTopology::uniprocessor(0).unwrap();
        // Timer enabled so the scheduler can alternate the two threads.
        let config = SimConfig::default();
        let mut machine = MispMachine::new(topo, config, lib);
        let a = machine.add_process("a", Box::new(SingleShredRuntime::new(p)), Some(0));
        let _b = machine.add_process("b", Box::new(SingleShredRuntime::new(p)), Some(0));
        machine.set_measured(vec![a]);
        let report = machine.run().unwrap();
        // Process `a` should take noticeably longer than its solo 30M cycles
        // because it shares the OMS with `b` under round-robin scheduling.
        assert!(
            report.total_cycles > Cycles::new(45_000_000),
            "expected time-sharing to slow the measured process, got {}",
            report.total_cycles
        );
        assert!(report.stats.context_switches > 0);
    }
}
