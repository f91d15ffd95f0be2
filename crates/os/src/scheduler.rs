//! Per-CPU round-robin scheduling.

use misp_types::OsThreadId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How newly-created threads are placed onto CPUs by the
/// [`SystemScheduler`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Assign each new thread to the CPU with the fewest threads (ties broken
    /// by lowest CPU index).  This is the default OS behaviour.
    #[default]
    LeastLoaded,
    /// Assign threads to CPUs round-robin in creation order.
    RoundRobin,
    /// Threads are placed explicitly by the caller; automatic placement
    /// panics.  Used for the "ideal" configurations of Figure 7, where
    /// non-shredded applications are pinned to OMSs that have no AMSs.
    Pinned,
}

/// The run queue of a single OS-visible CPU, scheduled round-robin.
///
/// The currently-running thread is *not* stored in the queue; it is returned
/// to the back of the queue when it is preempted or yields.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuScheduler {
    ready: VecDeque<OsThreadId>,
    running: Option<OsThreadId>,
    /// Number of timer ticks the running thread has held the CPU.
    ticks_on_cpu: u64,
    /// Number of ticks in one scheduling quantum.
    quantum_ticks: u64,
    context_switches: u64,
}

impl CpuScheduler {
    /// Creates a scheduler with the given quantum, in timer ticks.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_ticks` is zero.
    #[must_use]
    pub fn new(quantum_ticks: u64) -> Self {
        assert!(
            quantum_ticks > 0,
            "scheduling quantum must be at least one tick"
        );
        CpuScheduler {
            ready: VecDeque::new(),
            running: None,
            ticks_on_cpu: 0,
            quantum_ticks,
            context_switches: 0,
        }
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

    /// Number of involuntary context switches performed so far.
    #[must_use]
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// If no thread is running, dispatches the next ready thread.  Returns the
    /// newly dispatched thread, or `None` if the CPU stays idle or a thread
    /// was already running.
    pub fn dispatch(&mut self) -> Option<OsThreadId> {
        if self.running.is_some() {
            return None;
        }
        self.running = self.ready.pop_front();
        self.ticks_on_cpu = 0;
        self.running
    }

    /// Handles a timer tick.  If the running thread has exhausted its quantum
    /// and another thread is ready, the running thread is preempted (moved to
    /// the back of the ready queue) and the next thread is dispatched.
    ///
    /// Returns `Some((previous, next))` when a context switch happened.
    pub fn on_tick(&mut self) -> Option<(OsThreadId, OsThreadId)> {
        let running = self.running?;
        self.ticks_on_cpu += 1;
        if self.ticks_on_cpu >= self.quantum_ticks && !self.ready.is_empty() {
            let next = self.ready.pop_front().expect("checked non-empty");
            self.ready.push_back(running);
            self.running = Some(next);
            self.ticks_on_cpu = 0;
            self.context_switches += 1;
            Some((running, next))
        } else {
            None
        }
    }
}

/// Scheduling state for a whole machine: one [`CpuScheduler`] per OS-visible
/// CPU plus a thread-placement policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemScheduler {
    cpus: Vec<CpuScheduler>,
    policy: PlacementPolicy,
    next_round_robin: usize,
}

impl SystemScheduler {
    /// Creates a scheduler for `cpu_count` CPUs with the given quantum and
    /// placement policy.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_count` is zero.
    #[must_use]
    pub fn new(cpu_count: usize, quantum_ticks: u64, policy: PlacementPolicy) -> Self {
        assert!(cpu_count > 0, "a machine needs at least one OS-visible CPU");
        SystemScheduler {
            cpus: (0..cpu_count)
                .map(|_| CpuScheduler::new(quantum_ticks))
                .collect(),
            policy,
            next_round_robin: 0,
        }
    }

    /// The placement policy in effect.
    #[must_use]
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
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

    /// Places a new thread on a CPU according to the placement policy and
    /// enqueues it.  Returns the chosen CPU index.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`PlacementPolicy::Pinned`]; pinned threads
    /// must be placed with [`SystemScheduler::place_on`].
    pub fn place(&mut self, tid: OsThreadId) -> usize {
        let cpu = match self.policy {
            PlacementPolicy::LeastLoaded => self
                .cpus
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (c.load(), *i))
                .map(|(i, _)| i)
                .expect("at least one CPU"),
            PlacementPolicy::RoundRobin => {
                let cpu = self.next_round_robin % self.cpus.len();
                self.next_round_robin += 1;
                cpu
            }
            PlacementPolicy::Pinned => {
                panic!("automatic placement is disabled under the pinned policy")
            }
        };
        self.cpus[cpu].enqueue(tid);
        cpu
    }

    /// Places a thread on an explicit CPU, regardless of policy.
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
    #[should_panic(expected = "quantum must be at least one tick")]
    fn zero_quantum_panics() {
        let _ = CpuScheduler::new(0);
    }

    #[test]
    fn dispatch_and_round_robin_preemption() {
        let mut s = CpuScheduler::new(1);
        s.enqueue(t(0));
        s.enqueue(t(1));
        assert_eq!(s.dispatch(), Some(t(0)));
        assert_eq!(s.running(), Some(t(0)));
        assert_eq!(s.dispatch(), None, "dispatch is a no-op while running");
        // Quantum of 1: first tick preempts because another thread is ready.
        assert_eq!(s.on_tick(), Some((t(0), t(1))));
        assert_eq!(s.running(), Some(t(1)));
        assert_eq!(s.on_tick(), Some((t(1), t(0))));
        assert_eq!(s.context_switches(), 2);
    }

    #[test]
    fn no_preemption_when_alone() {
        let mut s = CpuScheduler::new(1);
        s.enqueue(t(0));
        s.dispatch();
        for _ in 0..10 {
            assert_eq!(s.on_tick(), None);
        }
        assert_eq!(s.context_switches(), 0);
    }

    #[test]
    fn quantum_longer_than_one_tick() {
        let mut s = CpuScheduler::new(3);
        s.enqueue(t(0));
        s.enqueue(t(1));
        s.dispatch();
        assert_eq!(s.on_tick(), None);
        assert_eq!(s.on_tick(), None);
        assert_eq!(
            s.on_tick(),
            Some((t(0), t(1))),
            "third tick expires the quantum"
        );
    }

    #[test]
    fn tick_on_idle_cpu_is_noop() {
        let mut s = CpuScheduler::new(1);
        assert_eq!(s.on_tick(), None);
        assert_eq!(s.dispatch(), None);
    }

    #[test]
    fn least_loaded_placement() {
        let mut sys = SystemScheduler::new(3, 1, PlacementPolicy::LeastLoaded);
        assert_eq!(sys.place(t(0)), 0);
        assert_eq!(sys.place(t(1)), 1);
        assert_eq!(sys.place(t(2)), 2);
        assert_eq!(sys.place(t(3)), 0, "wraps to least loaded (ties by index)");
        let loads: Vec<usize> = (0..3).map(|cpu| sys.cpu(cpu).load()).collect();
        assert_eq!(loads, [2, 1, 1]);
    }

    #[test]
    fn round_robin_placement() {
        let mut sys = SystemScheduler::new(2, 1, PlacementPolicy::RoundRobin);
        assert_eq!(sys.place(t(0)), 0);
        assert_eq!(sys.place(t(1)), 1);
        assert_eq!(sys.place(t(2)), 0);
        assert_eq!(sys.policy(), PlacementPolicy::RoundRobin);
    }

    #[test]
    #[should_panic(expected = "pinned policy")]
    fn pinned_policy_rejects_auto_placement() {
        let mut sys = SystemScheduler::new(2, 1, PlacementPolicy::Pinned);
        let _ = sys.place(t(0));
    }

    #[test]
    fn pinned_placement_explicit() {
        let mut sys = SystemScheduler::new(2, 1, PlacementPolicy::Pinned);
        sys.place_on(t(0), 1);
        assert_eq!(sys.cpu(1).load(), 1);
        assert_eq!(sys.cpu(0).load(), 0);
        assert_eq!(sys.cpu_mut(1).dispatch(), Some(t(0)));
    }
}
