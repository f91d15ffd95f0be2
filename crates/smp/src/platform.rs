//! The SMP platform implementation.

use misp_os::{OsEventKind, SystemScheduler};
use misp_sim::{EngineCore, Platform, TraceKind};
use misp_types::{Cycles, FxHashMap, OsThreadId, SequencerId};

/// A symmetric multiprocessor: every sequencer is an OS-visible core that
/// services its own privileged events.
///
/// Threads are scheduled per core with round-robin time slicing, exactly like
/// the MISP machine's OMS scheduling, so that multi-programming comparisons
/// (Figure 7) differ only in the architectural mechanism and not in OS policy.
#[derive(Debug)]
pub struct SmpPlatform {
    cores: usize,
    scheduler: SystemScheduler,
    thread_ctx: FxHashMap<OsThreadId, misp_sim::SavedContext>,
}

impl SmpPlatform {
    /// Creates an SMP platform with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "an SMP machine needs at least one core");
        SmpPlatform {
            cores,
            scheduler: SystemScheduler::new(cores),
            thread_ctx: FxHashMap::default(),
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Pins `thread` to core `core_index`.
    ///
    /// # Panics
    ///
    /// Panics if `core_index` is out of range.
    pub fn pin_thread(&mut self, thread: OsThreadId, core_index: usize) {
        assert!(core_index < self.cores, "core index out of range");
        self.scheduler.place_on(thread, core_index);
    }

    /// Places `thread` on the least-loaded core (ties broken by lowest
    /// index).  Threads are placed in call order, so the load counts every
    /// thread pinned or placed before this call, and none after it.
    pub fn place_thread(&mut self, thread: OsThreadId) {
        self.scheduler.place(thread);
    }

    fn install_thread(
        &mut self,
        core: &mut EngineCore,
        core_idx: usize,
        thread: OsThreadId,
        at: Cycles,
    ) {
        let seq = SequencerId::new(core_idx as u32);
        let pid = core
            .kernel()
            .thread(thread)
            .expect("placed thread must be spawned")
            .process();
        core.memory_mut().register_process(pid);
        core.memory_mut()
            .bind_sequencer(seq, pid)
            .expect("process is registered");
        core.sequencers_mut().set_bound_thread(seq, Some(thread));
        let ctx = self.thread_ctx.remove(&thread).unwrap_or_default();
        core.restore_context(seq, ctx, at);
    }
}

impl Platform for SmpPlatform {
    fn init(&mut self, core: &mut EngineCore) {
        // Impose the SMP clustering on the cache hierarchy: every core is its
        // own cluster, so cross-core sharing always crosses the coherence
        // fabric (unlike MISP, where sequencers of one processor share an L2).
        // (configure_caches is a no-op for a disabled cache config.)
        let cache_config = core.config().cache;
        let clusters: Vec<usize> = (0..self.cores).collect();
        core.memory_mut().configure_caches(cache_config, &clusters);

        for core_idx in 0..self.cores {
            let dispatched = self.scheduler.cpu_mut(core_idx).dispatch();
            if let Some(thread) = dispatched {
                self.install_thread(core, core_idx, thread, Cycles::ZERO);
            }
            if self.scheduler.cpu(core_idx).load() > 0 || dispatched.is_some() {
                let first = core.config().timer.next_tick_after(Cycles::ZERO);
                if first != Cycles::MAX {
                    core.schedule_timer(SequencerId::new(core_idx as u32), first, 1);
                }
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
        // Every core handles its own faults; no other core is affected.
        core.stats_mut().record_event(seq, kind, true);
        core.log_event(seq, TraceKind::RingEnter);
        // Privileged code displaces the servicing core's L1, exactly as the
        // MISP platform charges its OMS per privileged service — keeping
        // cache-enabled cross-machine comparisons unbiased.  (No-op while
        // the cache model is disabled.)
        core.memory_mut().flush_cache(seq);
        let service = core.kernel().service_cost(kind);
        core.log_event(seq, TraceKind::RingExit);
        now + service
    }

    fn on_timer_tick(&mut self, core: &mut EngineCore, cpu: SequencerId, tick: u64, now: Cycles) {
        let core_idx = cpu.as_usize();
        core.log_event(cpu, TraceKind::TimerTick);
        core.stats_mut().record_event(cpu, OsEventKind::Timer, true);
        let mut priv_time = core.kernel().service_cost(OsEventKind::Timer);
        if core.config().timer.is_other_interrupt_tick(tick) {
            core.stats_mut()
                .record_event(cpu, OsEventKind::OtherInterrupt, true);
            priv_time += core.kernel().service_cost(OsEventKind::OtherInterrupt);
        }

        let switch = self.scheduler.cpu_mut(core_idx).on_tick();

        if let Some((prev, next)) = switch {
            priv_time += core.kernel().context_switch_cost(0);
            core.log_event(cpu, TraceKind::ContextSwitch);
            let ctx = core.save_context(cpu, now);
            // Cold-cache restart for the incoming thread (no-op while the
            // cache model is disabled).
            core.memory_mut().flush_cache(cpu);
            self.thread_ctx.insert(prev, ctx);
            self.install_thread(core, core_idx, next, now + priv_time);
        } else {
            core.stall(cpu, now, now + priv_time);
        }

        let next_tick = core.config().timer.next_tick_after(now);
        if next_tick != Cycles::MAX {
            core.schedule_timer(cpu, next_tick, tick + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_isa::{ProgramBuilder, ProgramLibrary, SyscallKind};
    use misp_os::TimerConfig;
    use misp_sim::{Machine, SimConfig, SimReport, SingleShredRuntime};
    use misp_types::{CostModel, MispError, ProcessId, VirtAddr};

    fn quiet_config() -> SimConfig {
        SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        }
    }

    /// A one-core machine running `program` as one process whose only thread
    /// is pinned to core 0.
    fn single_program_machine(config: SimConfig, program: ProgramBuilder) -> Machine<SmpPlatform> {
        let mut library = ProgramLibrary::new();
        let main = library.insert(program.build());
        let mut engine = Machine::new(config, 1, library, SmpPlatform::new(1));
        let pid = engine.core_mut().kernel_mut().spawn_process("p");
        let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
        engine.add_runtime(pid, Box::new(SingleShredRuntime::new(main)));
        engine.platform_mut().pin_thread(tid, 0);
        engine
    }

    #[test]
    fn single_compute_program_takes_expected_time() {
        let program = ProgramBuilder::new("main").compute(Cycles::new(10_000));
        let report = single_program_machine(quiet_config(), program)
            .run()
            .unwrap();
        // 10k compute plus small scheduling overheads.
        assert!(report.total_cycles >= Cycles::new(10_000));
        assert!(report.total_cycles < Cycles::new(12_000));
        assert_eq!(report.stats.per_sequencer[0].ops, 2, "compute + halt");
    }

    #[test]
    fn syscall_and_page_fault_are_counted_and_charged() {
        let costs = CostModel::default();
        let program = ProgramBuilder::new("main")
            .compute(Cycles::new(100))
            .syscall(SyscallKind::Io)
            .load(VirtAddr::new(0x10_0000))
            .load(VirtAddr::new(0x10_0000));
        let report = single_program_machine(quiet_config(), program)
            .run()
            .unwrap();
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
        let program = ProgramBuilder::new("main").repeat(100, |b| b.compute(Cycles::new(100_000)));
        let config = SimConfig {
            timer: TimerConfig::new(Cycles::new(1_000_000), 10),
            ..SimConfig::default()
        };
        let report = single_program_machine(config, program).run().unwrap();
        // 10M cycles of compute at one tick per 1M cycles: roughly 10 ticks.
        assert!(report.stats.oms_events.timer >= 9);
        assert!(report.stats.oms_events.other_interrupts >= 1);
    }

    #[test]
    fn determinism_same_config_same_result() {
        let run = || {
            let program = ProgramBuilder::new("main").repeat(20, |b| {
                b.compute(Cycles::new(1_000))
                    .load(VirtAddr::new(0x20_0000))
                    .syscall(SyscallKind::Time)
            });
            single_program_machine(SimConfig::default(), program)
                .run()
                .unwrap()
                .total_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn missing_runtime_is_an_error() {
        let mut engine = Machine::new(
            SimConfig::default(),
            1,
            ProgramLibrary::new(),
            SmpPlatform::new(1),
        );
        let err = engine.run().unwrap_err();
        assert!(matches!(err, MispError::InvalidConfiguration(_)));
    }

    /// Wraps [`SmpPlatform`] and, on the first syscall, opens three
    /// overlapping stall windows on sequencer 1: a short one, a longer one
    /// that extends it, and a superseded shorter one that must change
    /// nothing.  The stale-window regression below pins the resume time.
    #[derive(Debug)]
    struct OverlappingStallPlatform {
        inner: SmpPlatform,
        stalled_once: bool,
    }

    impl Platform for OverlappingStallPlatform {
        fn init(&mut self, core: &mut EngineCore) {
            self.inner.init(core);
        }

        fn on_priv_event(
            &mut self,
            core: &mut EngineCore,
            seq: SequencerId,
            kind: OsEventKind,
            now: Cycles,
        ) -> Cycles {
            if kind == OsEventKind::Syscall && !self.stalled_once {
                self.stalled_once = true;
                let victim = SequencerId::new(1);
                core.stall(victim, now, now + Cycles::new(500));
                // A longer overlapping window extends the stall...
                core.stall(victim, now, now + Cycles::new(2_000));
                // ...and a superseded shorter window must not resume early,
                // no matter how stall-end events are scheduled or batched.
                core.stall(victim, now, now + Cycles::new(1_000));
            }
            self.inner.on_priv_event(core, seq, kind, now)
        }

        fn on_timer_tick(
            &mut self,
            core: &mut EngineCore,
            cpu: SequencerId,
            tick: u64,
            now: Cycles,
        ) {
            self.inner.on_timer_tick(core, cpu, tick, now);
        }
    }

    fn run_overlapping_stall(batch: bool) -> SimReport {
        let config = SimConfig {
            batch,
            ..quiet_config()
        };
        let mut library = ProgramLibrary::new();
        let staller = library.insert(
            ProgramBuilder::new("staller")
                .compute(Cycles::new(100))
                .syscall(SyscallKind::Io)
                .build(),
        );
        let victim = library.insert(
            ProgramBuilder::new("victim")
                .compute(Cycles::new(10_000))
                .build(),
        );
        let platform = OverlappingStallPlatform {
            inner: SmpPlatform::new(2),
            stalled_once: false,
        };
        let mut engine = Machine::new(config, 2, library, platform);
        let p0 = engine.core_mut().kernel_mut().spawn_process("staller");
        let t0 = engine.core_mut().kernel_mut().spawn_thread(p0);
        let p1 = engine.core_mut().kernel_mut().spawn_process("victim");
        let t1 = engine.core_mut().kernel_mut().spawn_thread(p1);
        engine.add_runtime(p0, Box::new(SingleShredRuntime::new(staller)));
        engine.add_runtime(p1, Box::new(SingleShredRuntime::new(victim)));
        engine.platform_mut().inner.pin_thread(t0, 0);
        engine.platform_mut().inner.pin_thread(t1, 1);
        engine.run().unwrap()
    }

    /// Regression test for stale stall-end handling: after a window is
    /// extended, the superseded shorter window's end must not resume the
    /// sequencer early — with the macro-step fast paths on or off, the
    /// victim resumes exactly when the longest window closes.
    #[test]
    fn superseded_stall_window_does_not_resume_early() {
        let switch = SimConfig::default().costs.shred_context_switch;
        // The victim installs (shred_context_switch) and computes 10k cycles;
        // the staller's syscall at `switch + 100` opens windows ending 500,
        // 2000 and (superseded) 1000 cycles later.  The victim's in-flight
        // compute has `switch + 10_000 - (switch + 100) = 9_900` cycles left,
        // so it completes at `switch + 100 + 2_000 + 9_900 = switch+12_000`.
        let expected = switch + Cycles::new(12_000);
        for batch in [true, false] {
            let report = run_overlapping_stall(batch);
            assert_eq!(
                report.stats.completion_of(ProcessId::new(1)),
                Some(expected),
                "victim resume time (batch = {batch})"
            );
            assert_eq!(
                report.stats.per_sequencer[1].stalled,
                Cycles::new(2_000),
                "only the merged window is charged (batch = {batch})"
            );
        }
        // And the two modes agree on everything else, down to the log digest.
        let on = run_overlapping_stall(true);
        let off = run_overlapping_stall(false);
        assert_eq!(on.total_cycles, off.total_cycles);
        assert_eq!(on.stats.process_completion, off.stats.process_completion);
        assert_eq!(on.log_digest, off.log_digest);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SmpPlatform::new(0);
    }

    #[test]
    fn accessors() {
        let mut p = SmpPlatform::new(8);
        assert_eq!(p.cores(), 8);
        p.pin_thread(OsThreadId::new(0), 7);
        p.place_thread(OsThreadId::new(1));
    }

    #[test]
    #[should_panic(expected = "core index out of range")]
    fn pin_out_of_range_panics() {
        let mut p = SmpPlatform::new(2);
        p.pin_thread(OsThreadId::new(0), 2);
    }
}
