//! The architectural cost model.
//!
//! Section 5.1 of the paper models MISP's synchrony overhead in terms of one
//! key parameter, `signal`, the latency of inter-sequencer communication, plus
//! the time spent in privileged OS code (`priv`).  Section 5.2 states the
//! prototype assumes a conservative `signal` of 5000 cycles and Section 5.3
//! sweeps 0 (ideal), 500 and 1000 cycles.  [`CostModel`] collects that
//! parameter and every other service cost the simulator charges.

use crate::Cycles;

/// The cost of one inter-sequencer signal, in cycles.
///
/// The paper considers four design points (Figure 5): an ideal zero-cost
/// hardware implementation, aggressive hardware at 500 and 1000 cycles, and a
/// conservative microcode-based implementation at 5000 cycles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalCost {
    /// Ideal hardware: signaling is free (the Figure 5 baseline).
    Ideal,
    /// Aggressive hardware implementation: 500 cycles.
    Aggressive500,
    /// Aggressive hardware implementation: 1000 cycles.
    Aggressive1000,
    /// Conservative microcode-based implementation: 5000 cycles (the default
    /// assumed throughout the paper's evaluation).
    #[default]
    Microcode5000,
    /// An arbitrary signal cost, for sensitivity sweeps beyond the paper's
    /// design points.
    Custom(u64),
}

impl SignalCost {
    /// Returns the signal latency in cycles.
    #[must_use]
    pub const fn cycles(self) -> Cycles {
        match self {
            SignalCost::Ideal => Cycles::new(0),
            SignalCost::Aggressive500 => Cycles::new(500),
            SignalCost::Aggressive1000 => Cycles::new(1000),
            SignalCost::Microcode5000 => Cycles::new(5000),
            SignalCost::Custom(c) => Cycles::new(c),
        }
    }

    /// The design points evaluated by Figure 5 of the paper, in the order the
    /// figure presents them (500, 1000, 5000), excluding the ideal baseline.
    #[must_use]
    pub const fn figure5_points() -> [SignalCost; 3] {
        [
            SignalCost::Aggressive500,
            SignalCost::Aggressive1000,
            SignalCost::Microcode5000,
        ]
    }
}

/// Cycle latencies charged by the cache hierarchy (`misp-cache`) for each
/// level a memory access resolves at, plus the cost of a coherence
/// invalidation round.
///
/// The paper's evaluation charges a flat cost per memory touch; the cache
/// model refines that into per-level latencies so memory-bound workloads can
/// distinguish locality regimes.  The defaults approximate a 3 GHz IA-32
/// server of the paper's era: a 2-cycle L1, a mid-teens-cycle shared L2 and a
/// DRAM access north of 200 cycles.
///
/// # Examples
///
/// ```
/// use misp_types::{CacheCostModel, Cycles};
///
/// let costs = CacheCostModel::default();
/// assert!(costs.l1_hit < costs.l2_hit);
/// assert!(costs.l2_hit < costs.memory);
/// assert_eq!(CacheCostModel::default(), costs);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheCostModel {
    /// Latency of an access that hits the sequencer's private L1.
    pub l1_hit: Cycles,
    /// Latency of an L1 miss that hits the processor's shared L2.
    pub l2_hit: Cycles,
    /// Latency of an access that misses the whole hierarchy (DRAM).
    pub memory: Cycles,
    /// Additional latency charged to a store that must invalidate the line in
    /// remote caches before completing.
    pub invalidation: Cycles,
}

impl Default for CacheCostModel {
    fn default() -> Self {
        CacheCostModel {
            l1_hit: Cycles::new(2),
            l2_hit: Cycles::new(14),
            memory: Cycles::new(220),
            invalidation: Cycles::new(40),
        }
    }
}

/// Cycle costs charged by the simulator for every architectural and OS-level
/// service the paper's evaluation depends on.
///
/// Construct with [`CostModel::default`] for the paper's assumed parameters or
/// with [`CostModel::builder`] to override individual costs.
///
/// # Examples
///
/// ```
/// use misp_types::{CostModel, SignalCost, Cycles};
///
/// let costs = CostModel::builder()
///     .signal(SignalCost::Aggressive500)
///     .syscall_service(Cycles::new(2_000))
///     .build();
/// assert_eq!(costs.signal.cycles(), Cycles::new(500));
/// assert_eq!(costs.syscall_service, Cycles::new(2_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Latency of one inter-sequencer signal (the `signal` term of Eqs. 1–3).
    pub signal: SignalCost,
    /// Kernel time to service a system call (part of the `priv` term).
    pub syscall_service: Cycles,
    /// Kernel time to service a page fault (populate the PTE, possibly zero
    /// the page).  Compulsory faults dominate Table 1.
    pub page_fault_service: Cycles,
    /// Kernel time to service a timer interrupt (scheduler tick).
    pub timer_service: Cycles,
    /// Kernel time to service an uncategorized device interrupt.
    pub interrupt_service: Cycles,
    /// Cost of an OS thread context switch, excluding AMS state save/restore.
    pub context_switch: Cycles,
    /// Additional cost to save or restore the aggregate state of one AMS on a
    /// context switch (Section 2.2: the cumulative AMS save area).
    pub ams_state_save: Cycles,
    /// Hardware page-walk latency on a TLB miss (no OS involvement,
    /// Section 2.3).
    pub tlb_walk: Cycles,
    /// Cost of the fly-weight asynchronous control transfer performed by the
    /// YIELD-CONDITIONAL mechanism (save next EIP, jump to handler).
    pub yield_transfer: Cycles,
    /// User-level cost of a light-weight shred context switch performed by the
    /// ShredLib gang scheduler (Figure 3).
    pub shred_context_switch: Cycles,
    /// User-level cost of one acquire/release pair on the work-queue mutex.
    pub queue_lock: Cycles,
    /// Interval between timer interrupts on an OS-visible CPU.
    pub timer_interval: Cycles,
}

impl CostModel {
    /// Returns a builder initialized with the default (paper) parameters.
    #[must_use]
    pub fn builder() -> CostModelBuilder {
        CostModelBuilder {
            model: CostModel::default(),
        }
    }

    /// The signal latency in cycles (shorthand for `self.signal.cycles()`).
    #[must_use]
    pub fn signal_cycles(&self) -> Cycles {
        self.signal.cycles()
    }
}

impl Default for CostModel {
    /// The default parameters assumed by the paper's evaluation: a 5000-cycle
    /// microcode signal, with OS service costs chosen to be representative of
    /// a 3.0 GHz IA-32 server running Windows Server 2003.
    fn default() -> Self {
        CostModel {
            signal: SignalCost::Microcode5000,
            syscall_service: Cycles::new(3_000),
            page_fault_service: Cycles::new(8_000),
            timer_service: Cycles::new(6_000),
            interrupt_service: Cycles::new(4_000),
            context_switch: Cycles::new(10_000),
            ams_state_save: Cycles::new(1_500),
            tlb_walk: Cycles::new(60),
            yield_transfer: Cycles::new(200),
            shred_context_switch: Cycles::new(300),
            queue_lock: Cycles::new(120),
            // 3 GHz * 1 ms Windows timer tick would be 3M cycles; the
            // simulator runs scaled-down workloads, so the default tick is
            // scaled correspondingly (see EXPERIMENTS.md).
            timer_interval: Cycles::new(3_000_000),
        }
    }
}

/// Builder for [`CostModel`].
#[derive(Debug, Clone)]
pub struct CostModelBuilder {
    model: CostModel,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $field:ident: Cycles) => {
        $(#[$doc])*
        #[must_use]
        pub fn $field(mut self, value: Cycles) -> Self {
            self.model.$field = value;
            self
        }
    };
}

impl CostModelBuilder {
    /// Sets the inter-sequencer signal cost.
    #[must_use]
    pub fn signal(mut self, value: SignalCost) -> Self {
        self.model.signal = value;
        self
    }

    builder_setter!(
        /// Sets the system-call service cost.
        syscall_service: Cycles
    );
    builder_setter!(
        /// Sets the page-fault service cost.
        page_fault_service: Cycles
    );
    builder_setter!(
        /// Sets the timer-interrupt service cost.
        timer_service: Cycles
    );
    builder_setter!(
        /// Sets the uncategorized-interrupt service cost.
        interrupt_service: Cycles
    );
    builder_setter!(
        /// Sets the OS context-switch cost.
        context_switch: Cycles
    );
    builder_setter!(
        /// Sets the per-AMS state save/restore cost.
        ams_state_save: Cycles
    );
    builder_setter!(
        /// Sets the hardware TLB page-walk cost.
        tlb_walk: Cycles
    );
    builder_setter!(
        /// Sets the YIELD-CONDITIONAL control-transfer cost.
        yield_transfer: Cycles
    );
    builder_setter!(
        /// Sets the ShredLib light-weight shred context-switch cost.
        shred_context_switch: Cycles
    );
    builder_setter!(
        /// Sets the work-queue lock acquire/release cost.
        queue_lock: Cycles
    );
    builder_setter!(
        /// Sets the interval between timer interrupts.
        timer_interval: Cycles
    );

    /// Finishes the builder, producing the cost model.
    #[must_use]
    pub fn build(self) -> CostModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_cost_points() {
        assert_eq!(SignalCost::Ideal.cycles(), Cycles::ZERO);
        assert_eq!(SignalCost::Aggressive500.cycles(), Cycles::new(500));
        assert_eq!(SignalCost::Aggressive1000.cycles(), Cycles::new(1000));
        assert_eq!(SignalCost::Microcode5000.cycles(), Cycles::new(5000));
        assert_eq!(SignalCost::Custom(123).cycles(), Cycles::new(123));
        assert_eq!(SignalCost::default(), SignalCost::Microcode5000);
        assert_eq!(
            SignalCost::figure5_points(),
            [
                SignalCost::Aggressive500,
                SignalCost::Aggressive1000,
                SignalCost::Microcode5000
            ]
        );
    }

    #[test]
    fn default_model_matches_paper_assumptions() {
        let m = CostModel::default();
        assert_eq!(m.signal_cycles(), Cycles::new(5000));
    }

    #[test]
    fn builder_overrides() {
        let m = CostModel::builder()
            .signal(SignalCost::Ideal)
            .syscall_service(Cycles::new(1))
            .page_fault_service(Cycles::new(2))
            .timer_service(Cycles::new(3))
            .interrupt_service(Cycles::new(4))
            .context_switch(Cycles::new(5))
            .ams_state_save(Cycles::new(6))
            .tlb_walk(Cycles::new(7))
            .yield_transfer(Cycles::new(8))
            .shred_context_switch(Cycles::new(9))
            .queue_lock(Cycles::new(10))
            .timer_interval(Cycles::new(11))
            .build();
        assert_eq!(m.signal, SignalCost::Ideal);
        assert_eq!(m.syscall_service, Cycles::new(1));
        assert_eq!(m.page_fault_service, Cycles::new(2));
        assert_eq!(m.timer_service, Cycles::new(3));
        assert_eq!(m.interrupt_service, Cycles::new(4));
        assert_eq!(m.context_switch, Cycles::new(5));
        assert_eq!(m.ams_state_save, Cycles::new(6));
        assert_eq!(m.tlb_walk, Cycles::new(7));
        assert_eq!(m.yield_transfer, Cycles::new(8));
        assert_eq!(m.shred_context_switch, Cycles::new(9));
        assert_eq!(m.queue_lock, Cycles::new(10));
        assert_eq!(m.timer_interval, Cycles::new(11));
        assert_eq!(m.signal_cycles(), Cycles::ZERO);
    }
}
