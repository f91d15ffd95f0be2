//! A convenience wrapper that assembles a complete SMP machine.

use crate::SmpPlatform;
use misp_isa::ProgramLibrary;
use misp_sim::{Machine, Runtime, SimConfig, SimReport};
use misp_types::{OsThreadId, ProcessId, Result};

/// A fully-assembled SMP machine: cores, engine, OS processes and runtimes.
///
/// The shape mirrors [`misp_core::MispMachine`](https://docs.rs) so that the
/// experiment harnesses can run the same workload on both machines and compare
/// them, exactly as the paper does in Figures 4, 5 and 7.
#[derive(Debug)]
pub struct SmpMachine {
    engine: Machine<SmpPlatform>,
}

impl SmpMachine {
    /// Creates an SMP machine with `cores` cores.
    #[must_use]
    pub fn new(cores: usize, config: SimConfig, library: ProgramLibrary) -> Self {
        let platform = SmpPlatform::new(cores);
        SmpMachine {
            engine: Machine::new(config, cores, library, platform),
        }
    }

    /// Adds a process with one OS thread and the given user-level runtime,
    /// pinned to `core` if given (otherwise placed on the least-loaded core).
    pub fn add_process(
        &mut self,
        name: &str,
        runtime: Box<dyn Runtime>,
        core: Option<usize>,
    ) -> ProcessId {
        let pid = self.engine.core_mut().kernel_mut().spawn_process(name);
        self.engine.core_mut().memory_mut().register_process(pid);
        self.engine.add_runtime(pid, runtime);
        let tid = self.engine.core_mut().kernel_mut().spawn_thread(pid);
        self.place(tid, core);
        pid
    }

    /// Adds an additional OS thread to an existing process (an SMP
    /// multithreaded application has one thread per core it wants to use).
    pub fn add_thread(&mut self, process: ProcessId, core: Option<usize>) -> OsThreadId {
        let tid = self.engine.core_mut().kernel_mut().spawn_thread(process);
        self.place(tid, core);
        tid
    }

    fn place(&mut self, thread: OsThreadId, core: Option<usize>) {
        match core {
            Some(c) => self.engine.platform_mut().pin_thread(thread, c),
            None => self.engine.platform_mut().place_thread(thread),
        }
    }

    /// Restricts the completion criterion to the given processes.
    pub fn set_measured(&mut self, processes: Vec<ProcessId>) {
        self.engine.set_measured(processes);
    }

    /// The underlying simulated machine.
    #[must_use]
    pub fn engine(&self) -> &Machine<SmpPlatform> {
        &self.engine
    }

    /// Mutable access to the underlying simulated machine.
    pub fn engine_mut(&mut self) -> &mut Machine<SmpPlatform> {
        &mut self.engine
    }

    /// Surrenders the assembled machine so it can join a
    /// [`misp_sim::FleetEngine`].
    #[must_use]
    pub fn into_sim_machine(self) -> Machine<SmpPlatform> {
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
    use misp_isa::{ProgramBuilder, SyscallKind};
    use misp_os::TimerConfig;
    use misp_sim::SingleShredRuntime;
    use misp_types::{Cycles, VirtAddr};

    fn quiet_config() -> SimConfig {
        SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn two_threads_on_two_cores_run_concurrently() {
        let mut lib = ProgramLibrary::new();
        let w = lib.insert(
            ProgramBuilder::new("w")
                .compute(Cycles::new(100_000))
                .build(),
        );
        let mut machine = SmpMachine::new(2, quiet_config(), lib);
        let pid = machine.add_process("app", Box::new(SingleShredRuntime::new(w)), Some(0));
        machine.add_thread(pid, Some(1));
        let report = machine.run().unwrap();
        assert!(report.total_cycles < Cycles::new(130_000));
        assert!(report.stats.per_sequencer[1].busy >= Cycles::new(100_000));
    }

    #[test]
    fn faults_on_one_core_do_not_stall_the_other() {
        let mut lib = ProgramLibrary::new();
        let faulty = lib.insert(
            ProgramBuilder::new("faulty")
                .touch_pages(VirtAddr::new(0x100_0000), 50)
                .syscall(SyscallKind::Io)
                .build(),
        );
        let clean = lib.insert(
            ProgramBuilder::new("clean")
                .compute(Cycles::new(400_000))
                .build(),
        );
        let mut machine = SmpMachine::new(2, quiet_config(), lib);
        machine.add_process("faulty", Box::new(SingleShredRuntime::new(faulty)), Some(0));
        machine.add_process("clean", Box::new(SingleShredRuntime::new(clean)), Some(1));
        let report = machine.run().unwrap();
        assert_eq!(report.stats.oms_events.page_faults, 50);
        assert_eq!(
            report.stats.per_sequencer[1].stalled,
            Cycles::ZERO,
            "SMP cores never stall each other"
        );
        assert_eq!(report.stats.serializations, 0);
        assert_eq!(report.stats.proxy_executions, 0);
    }

    #[test]
    fn timesharing_on_one_core_slows_the_measured_process() {
        let mut lib = ProgramLibrary::new();
        let w = lib.insert(
            ProgramBuilder::new("w")
                .compute(Cycles::new(30_000_000))
                .build(),
        );
        let mut machine = SmpMachine::new(1, SimConfig::default(), lib);
        let a = machine.add_process("a", Box::new(SingleShredRuntime::new(w)), Some(0));
        machine.add_process("b", Box::new(SingleShredRuntime::new(w)), Some(0));
        machine.set_measured(vec![a]);
        let report = machine.run().unwrap();
        assert!(report.total_cycles > Cycles::new(45_000_000));
        assert!(report.stats.context_switches > 0);
    }
}
