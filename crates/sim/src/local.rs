//! A minimal "local servicing" platform.
//!
//! [`LocalPlatform`] services every privileged event on the sequencer that
//! raised it, with no cross-sequencer effects.  It models an idealized SMP
//! node without multi-programming and is used by unit tests, examples and as a
//! baseline inside the full SMP machine in `misp-smp`.

use crate::{EngineCore, Platform, TraceKind};
use misp_os::OsEventKind;
use misp_types::{Cycles, OsThreadId, SequencerId};

/// A platform where every sequencer is an independent, OS-visible CPU and all
/// privileged events are serviced locally.
#[derive(Debug)]
pub struct LocalPlatform {
    sequencer_count: usize,
    /// Explicit thread→sequencer pinning established before `init`.
    pinned: Vec<(OsThreadId, usize)>,
    timer_enabled: bool,
}

impl LocalPlatform {
    /// Creates a platform for `sequencer_count` sequencers with timer
    /// interrupts enabled.
    #[must_use]
    pub fn new(sequencer_count: usize) -> Self {
        LocalPlatform {
            sequencer_count,
            pinned: Vec::new(),
            timer_enabled: true,
        }
    }

    /// Disables timer interrupts (useful for tests that want only
    /// program-driven events).
    pub fn disable_timer(&mut self) {
        self.timer_enabled = false;
    }

    /// Pins `thread` to the sequencer with index `seq_index`.  Each sequencer
    /// should receive at most one thread; `LocalPlatform` does not time-share.
    ///
    /// # Panics
    ///
    /// Panics if `seq_index` is out of range.
    pub fn pin_thread(&mut self, thread: OsThreadId, seq_index: usize) {
        assert!(
            seq_index < self.sequencer_count,
            "sequencer index out of range"
        );
        self.pinned.push((thread, seq_index));
    }
}

impl Platform for LocalPlatform {
    fn init(&mut self, core: &mut EngineCore) {
        // Every sequencer is an independent CPU with its own L2, exactly as
        // in the full SMP machine.  (configure_caches is a no-op for a
        // disabled cache config.)
        let cache_config = core.config().cache;
        let clusters: Vec<usize> = (0..core.sequencer_count()).collect();
        core.memory_mut().configure_caches(cache_config, &clusters);

        for &(thread, seq_index) in &self.pinned {
            let seq = SequencerId::new(seq_index as u32);
            let pid = core
                .kernel()
                .thread(thread)
                .expect("pinned thread must be spawned before init")
                .process();
            core.memory_mut().register_process(pid);
            core.memory_mut()
                .bind_sequencer(seq, pid)
                .expect("binding a registered process cannot fail");
            core.sequencers_mut().set_bound_thread(seq, Some(thread));
            if self.timer_enabled {
                let first = core.config().timer.next_tick_after(Cycles::ZERO);
                core.schedule_timer(seq, first, 1);
            }
        }
    }

    fn on_priv_event(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        kind: OsEventKind,
        now: Cycles,
    ) -> Cycles {
        core.stats_mut().record_event(seq, kind, true);
        core.kernel_mut().record_event(kind);
        core.log_event(seq, TraceKind::RingEnter);
        let service = core.kernel().service_cost(kind);
        core.log_event(seq, TraceKind::RingExit);
        now + service
    }

    fn on_timer_tick(&mut self, core: &mut EngineCore, cpu: SequencerId, tick: u64, now: Cycles) {
        core.log_event(cpu, TraceKind::TimerTick);
        core.stats_mut().record_event(cpu, OsEventKind::Timer, true);
        core.kernel_mut().record_event(OsEventKind::Timer);
        let mut service = core.kernel().service_cost(OsEventKind::Timer);
        if core.config().timer.is_other_interrupt_tick(tick) {
            core.stats_mut()
                .record_event(cpu, OsEventKind::OtherInterrupt, true);
            core.kernel_mut().record_event(OsEventKind::OtherInterrupt);
            service += core.kernel().service_cost(OsEventKind::OtherInterrupt);
        }
        // The interrupted CPU loses the service time.
        core.stall(cpu, now, now + service);
        let next = core.config().timer.next_tick_after(now);
        if next != Cycles::MAX {
            core.schedule_timer(cpu, next, tick + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, SimConfig, SingleShredRuntime};
    use misp_isa::{ProgramBuilder, ProgramLibrary, SyscallKind};
    use misp_os::TimerConfig;
    use misp_types::{CostModel, VirtAddr};

    fn library_with(programs: Vec<misp_isa::ShredProgram>) -> ProgramLibrary {
        programs.into_iter().collect()
    }

    #[test]
    fn single_compute_program_takes_expected_time() {
        let lib = library_with(vec![ProgramBuilder::new("main")
            .compute(Cycles::new(10_000))
            .build()]);
        let config = SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        };
        let mut engine = Machine::new(config, 1, lib, LocalPlatform::new(1));
        let pid = engine.core_mut().kernel_mut().spawn_process("p");
        let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
        engine.add_runtime(
            pid,
            Box::new(SingleShredRuntime::new(misp_isa::ProgramRef::new(0))),
        );
        engine.platform_mut().pin_thread(tid, 0);
        let report = engine.run().unwrap();
        // 10k compute plus small scheduling overheads.
        assert!(report.total_cycles >= Cycles::new(10_000));
        assert!(report.total_cycles < Cycles::new(12_000));
        assert_eq!(report.stats.per_sequencer[0].ops, 2, "compute + halt");
    }

    #[test]
    fn syscall_and_page_fault_are_counted_and_charged() {
        let costs = CostModel::default();
        let lib = library_with(vec![ProgramBuilder::new("main")
            .compute(Cycles::new(100))
            .syscall(SyscallKind::Io)
            .load(VirtAddr::new(0x10_0000))
            .load(VirtAddr::new(0x10_0000))
            .build()]);
        let config = SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        };
        let mut engine = Machine::new(config, 1, lib, LocalPlatform::new(1));
        let pid = engine.core_mut().kernel_mut().spawn_process("p");
        let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
        engine.add_runtime(
            pid,
            Box::new(SingleShredRuntime::new(misp_isa::ProgramRef::new(0))),
        );
        engine.platform_mut().pin_thread(tid, 0);
        let report = engine.run().unwrap();
        assert_eq!(report.stats.oms_events.syscalls, 1);
        assert_eq!(
            report.stats.oms_events.page_faults, 1,
            "only the first touch faults"
        );
        let min_expected = 100 + costs.syscall_service.as_u64() + costs.page_fault_service.as_u64();
        assert!(report.total_cycles.as_u64() >= min_expected);
    }

    #[test]
    fn timer_ticks_accumulate_on_long_runs() {
        let lib = library_with(vec![ProgramBuilder::new("main")
            .repeat(100, |b| b.compute(Cycles::new(100_000)))
            .build()]);
        let config = SimConfig {
            timer: TimerConfig::new(Cycles::new(1_000_000), 10),
            ..SimConfig::default()
        };
        let mut engine = Machine::new(config, 1, lib, LocalPlatform::new(1));
        let pid = engine.core_mut().kernel_mut().spawn_process("p");
        let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
        engine.add_runtime(
            pid,
            Box::new(SingleShredRuntime::new(misp_isa::ProgramRef::new(0))),
        );
        engine.platform_mut().pin_thread(tid, 0);
        let report = engine.run().unwrap();
        // 10M cycles of compute at one tick per 1M cycles: roughly 10 ticks.
        assert!(report.stats.oms_events.timer >= 9);
        assert!(report.stats.oms_events.other_interrupts >= 1);
    }

    #[test]
    fn two_pinned_threads_run_in_parallel() {
        let lib = library_with(vec![ProgramBuilder::new("worker")
            .compute(Cycles::new(50_000))
            .build()]);
        let config = SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        };
        let mut engine = Machine::new(config, 2, lib, LocalPlatform::new(2));
        let pid = engine.core_mut().kernel_mut().spawn_process("p");
        let t0 = engine.core_mut().kernel_mut().spawn_thread(pid);
        let t1 = engine.core_mut().kernel_mut().spawn_thread(pid);
        engine.add_runtime(
            pid,
            Box::new(SingleShredRuntime::new(misp_isa::ProgramRef::new(0))),
        );
        engine.platform_mut().pin_thread(t0, 0);
        engine.platform_mut().pin_thread(t1, 1);
        let report = engine.run().unwrap();
        // Both threads run the 50k program concurrently: completion well under 2x.
        assert!(report.total_cycles < Cycles::new(80_000));
        assert!(report.stats.per_sequencer[0].busy >= Cycles::new(50_000));
        assert!(report.stats.per_sequencer[1].busy >= Cycles::new(50_000));
    }

    #[test]
    fn determinism_same_config_same_result() {
        let run = || {
            let lib = library_with(vec![ProgramBuilder::new("main")
                .repeat(20, |b| {
                    b.compute(Cycles::new(1_000))
                        .load(VirtAddr::new(0x20_0000))
                        .syscall(SyscallKind::Time)
                })
                .build()]);
            let config = SimConfig::default();
            let mut engine = Machine::new(config, 1, lib, LocalPlatform::new(1));
            let pid = engine.core_mut().kernel_mut().spawn_process("p");
            let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
            engine.add_runtime(
                pid,
                Box::new(SingleShredRuntime::new(misp_isa::ProgramRef::new(0))),
            );
            engine.platform_mut().pin_thread(tid, 0);
            engine.run().unwrap().total_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn missing_runtime_is_an_error() {
        let lib = ProgramLibrary::new();
        let mut engine = Machine::new(SimConfig::default(), 1, lib, LocalPlatform::new(1));
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            misp_types::MispError::InvalidConfiguration(_)
        ));
    }
}
