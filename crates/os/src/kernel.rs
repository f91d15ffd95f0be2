//! The kernel model: process/thread bookkeeping and privileged service times.

use crate::{OsEventKind, OsThread, Process};
use misp_types::{Arena, CostModel, Cycles, OsThreadId, ProcessId};

/// The simulated OS kernel.
///
/// The kernel owns the process and thread tables and knows how long each
/// privileged service takes (from the [`CostModel`]).  The per-category event
/// counts that feed Table 1 live in the engine's `SimStats`.
///
/// The kernel deliberately does *not* drive time itself: the machine models in
/// `misp-core` and `misp-smp` decide *when* ring transitions happen and ask
/// the kernel only for *how long* the OS stays in Ring 0 and which thread
/// should run next (via the schedulers in [`crate::SystemScheduler`]).
#[derive(Debug, Clone)]
pub struct Kernel {
    costs: CostModel,
    /// Process table — the arena hands out sequential [`ProcessId`]s, so the
    /// engine's per-step thread→process resolution stays at array-index cost.
    processes: Arena<ProcessId, Process>,
    /// Thread table, indexed by [`OsThreadId`].
    threads: Arena<OsThreadId, OsThread>,
}

impl Kernel {
    /// Creates a kernel with the given cost model and empty process table.
    #[must_use]
    pub fn new(costs: CostModel) -> Self {
        Kernel {
            costs,
            processes: Arena::new(),
            threads: Arena::new(),
        }
    }

    /// The cost model in effect.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Creates a new process and returns its identifier.
    pub fn spawn_process(&mut self, name: impl Into<String>) -> ProcessId {
        let pid = self.processes.next_id();
        self.processes.alloc(Process::new(pid, name))
    }

    /// Creates a new thread belonging to `pid` and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not name a spawned process; creating a thread in a
    /// non-existent process is a programming error in the workload setup.
    pub fn spawn_thread(&mut self, pid: ProcessId) -> OsThreadId {
        let tid = self.threads.next_id();
        let process = self
            .processes
            .get_mut(pid)
            .expect("cannot spawn a thread in an unknown process");
        process.add_thread(tid);
        self.threads.alloc(OsThread::new(tid, pid))
    }

    /// Looks up a process.
    #[must_use]
    pub fn process(&self, pid: ProcessId) -> Option<&Process> {
        self.processes.get(pid)
    }

    /// Looks up a thread.
    #[must_use]
    pub fn thread(&self, tid: OsThreadId) -> Option<&OsThread> {
        self.threads.get(tid)
    }

    /// Kernel (Ring 0) service time for one event of the given kind,
    /// excluding the context-switch cost (which is charged separately when a
    /// timer tick actually preempts the running thread).
    #[must_use]
    pub fn service_cost(&self, kind: OsEventKind) -> Cycles {
        match kind {
            OsEventKind::Syscall => self.costs.syscall_service,
            OsEventKind::PageFault => self.costs.page_fault_service,
            OsEventKind::Timer => self.costs.timer_service,
            OsEventKind::OtherInterrupt => self.costs.interrupt_service,
        }
    }

    /// Cost of an OS thread context switch when `ams_count` application-managed
    /// sequencer contexts must be saved and restored along with the thread
    /// (Section 2.2: the aggregate AMS save area).  The AMS states are assumed
    /// to be saved concurrently (the paper's assumption in Section 5.1), so
    /// the AMS term does not scale with the number of AMSs.
    #[must_use]
    pub fn context_switch_cost(&self, ams_count: usize) -> Cycles {
        if ams_count == 0 {
            self.costs.context_switch
        } else {
            self.costs.context_switch + self.costs.ams_state_save
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_process_and_threads() {
        let mut k = Kernel::new(CostModel::default());
        let p0 = k.spawn_process("a");
        let p1 = k.spawn_process("b");
        assert_ne!(p0, p1);
        let t0 = k.spawn_thread(p0);
        let t1 = k.spawn_thread(p0);
        let t2 = k.spawn_thread(p1);
        assert_eq!(k.process(p0).unwrap().threads(), &[t0, t1]);
        assert_eq!(k.process(p1).unwrap().threads(), &[t2]);
        assert_eq!(k.thread(t2).unwrap().process(), p1);
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn spawn_thread_in_unknown_process_panics() {
        let mut k = Kernel::new(CostModel::default());
        let _ = k.spawn_thread(ProcessId::new(99));
    }

    #[test]
    fn service_costs_come_from_cost_model() {
        let costs = CostModel::builder()
            .syscall_service(Cycles::new(11))
            .page_fault_service(Cycles::new(22))
            .timer_service(Cycles::new(33))
            .interrupt_service(Cycles::new(44))
            .build();
        let k = Kernel::new(costs);
        assert_eq!(k.service_cost(OsEventKind::Syscall), Cycles::new(11));
        assert_eq!(k.service_cost(OsEventKind::PageFault), Cycles::new(22));
        assert_eq!(k.service_cost(OsEventKind::Timer), Cycles::new(33));
        assert_eq!(k.service_cost(OsEventKind::OtherInterrupt), Cycles::new(44));
        assert_eq!(k.costs().syscall_service, Cycles::new(11));
    }

    #[test]
    fn context_switch_cost_includes_ams_save_once() {
        let costs = CostModel::builder()
            .context_switch(Cycles::new(100))
            .ams_state_save(Cycles::new(10))
            .build();
        let k = Kernel::new(costs);
        assert_eq!(k.context_switch_cost(0), Cycles::new(100));
        assert_eq!(k.context_switch_cost(1), Cycles::new(110));
        // Concurrent save: does not scale with AMS count.
        assert_eq!(k.context_switch_cost(7), Cycles::new(110));
    }
}
