//! Per-CPU round-robin scheduling.

use misp_types::OsThreadId;
use std::collections::VecDeque;

/// The run queue of a single OS-visible CPU, scheduled round-robin with a
/// one-tick quantum.
///
/// The currently-running thread is *not* stored in the queue; it is returned
/// to the back of the queue when it is preempted.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CpuScheduler {
    ready: VecDeque<OsThreadId>,
    running: Option<OsThreadId>,
}

impl CpuScheduler {
    /// Creates an idle scheduler with an empty ready queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a thread to the back of the ready queue.
    pub fn enqueue(&mut self, tid: OsThreadId) {
        self.ready.push_back(tid);
    }

    /// The currently running thread, if any.
    #[must_use]
    pub fn running(&self) -> Option<OsThreadId> {
        self.running
    }

    /// Total threads assigned to this CPU (running + ready).
    #[must_use]
    pub fn load(&self) -> usize {
        self.ready.len() + usize::from(self.running.is_some())
    }

    /// If no thread is running, dispatches the next ready thread.  Returns the
    /// newly dispatched thread, or `None` if the CPU stays idle or a thread
    /// was already running.
    pub fn dispatch(&mut self) -> Option<OsThreadId> {
        if self.running.is_some() {
            return None;
        }
        self.running = self.ready.pop_front();
        self.running
    }

    /// Handles a timer tick.  The quantum is one tick, so whenever another
    /// thread is ready the running thread is preempted (moved to the back of
    /// the ready queue) and the next thread is dispatched.
    ///
    /// Returns `Some((previous, next))` when a context switch happened.
    pub fn on_tick(&mut self) -> Option<(OsThreadId, OsThreadId)> {
        let running = self.running?;
        let next = self.ready.pop_front()?;
        self.ready.push_back(running);
        self.running = Some(next);
        Some((running, next))
    }
}

/// Scheduling state for a whole machine: one [`CpuScheduler`] per OS-visible
/// CPU.  Threads are placed in call order, either on an explicit CPU or on
/// the least-loaded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemScheduler {
    cpus: Vec<CpuScheduler>,
}

impl SystemScheduler {
    /// Creates a scheduler for `cpu_count` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_count` is zero.
    #[must_use]
    pub fn new(cpu_count: usize) -> Self {
        assert!(cpu_count > 0, "a machine needs at least one OS-visible CPU");
        SystemScheduler {
            cpus: vec![CpuScheduler::new(); cpu_count],
        }
    }

    /// Access the scheduler of CPU `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn cpu(&self, cpu: usize) -> &CpuScheduler {
        &self.cpus[cpu]
    }

    /// Mutable access to the scheduler of CPU `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu_mut(&mut self, cpu: usize) -> &mut CpuScheduler {
        &mut self.cpus[cpu]
    }

    /// Places a thread on the CPU with the fewest threads (ties broken by
    /// lowest CPU index) and enqueues it.  Returns the chosen CPU index.
    pub fn place(&mut self, tid: OsThreadId) -> usize {
        let cpu = self
            .cpus
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.load(), *i))
            .map(|(i, _)| i)
            .expect("at least one CPU");
        self.cpus[cpu].enqueue(tid);
        cpu
    }

    /// Places a thread on an explicit CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn place_on(&mut self, tid: OsThreadId, cpu: usize) {
        assert!(cpu < self.cpus.len(), "CPU index out of range");
        self.cpus[cpu].enqueue(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> OsThreadId {
        OsThreadId::new(i)
    }

    #[test]
    fn dispatch_and_round_robin_preemption() {
        let mut s = CpuScheduler::new();
        s.enqueue(t(0));
        s.enqueue(t(1));
        assert_eq!(s.dispatch(), Some(t(0)));
        assert_eq!(s.running(), Some(t(0)));
        assert_eq!(s.dispatch(), None, "dispatch is a no-op while running");
        // One-tick quantum: every tick preempts because another thread is ready.
        assert_eq!(s.on_tick(), Some((t(0), t(1))));
        assert_eq!(s.running(), Some(t(1)));
        assert_eq!(s.on_tick(), Some((t(1), t(0))));
    }

    #[test]
    fn no_preemption_when_alone() {
        let mut s = CpuScheduler::new();
        s.enqueue(t(0));
        s.dispatch();
        for _ in 0..10 {
            assert_eq!(s.on_tick(), None);
        }
        assert_eq!(s.running(), Some(t(0)));
    }

    #[test]
    fn tick_on_idle_cpu_is_noop() {
        let mut s = CpuScheduler::new();
        assert_eq!(s.on_tick(), None);
        assert_eq!(s.dispatch(), None);
    }

    #[test]
    fn least_loaded_placement() {
        let mut sys = SystemScheduler::new(3);
        assert_eq!(sys.place(t(0)), 0);
        assert_eq!(sys.place(t(1)), 1);
        assert_eq!(sys.place(t(2)), 2);
        assert_eq!(sys.place(t(3)), 0, "wraps to least loaded (ties by index)");
        let loads: Vec<usize> = (0..3).map(|cpu| sys.cpu(cpu).load()).collect();
        assert_eq!(loads, [2, 1, 1]);
    }

    #[test]
    fn pinned_placement_explicit() {
        let mut sys = SystemScheduler::new(2);
        sys.place_on(t(0), 1);
        assert_eq!(sys.cpu(1).load(), 1);
        assert_eq!(sys.cpu(0).load(), 0);
        assert_eq!(sys.cpu_mut(1).dispatch(), Some(t(0)));
    }
}
