//! The MISP machine platform: serialization, proxy execution and MP
//! scheduling semantics plugged into the execution engine.

use crate::MispTopology;
use misp_isa::Continuation;
use misp_os::{OsEventKind, SystemScheduler};
use misp_sim::{EngineCore, Platform, SavedContext, ShredStatus, TraceKind};
use misp_types::{Cycles, FxHashMap, OsThreadId, SequencerId};

/// How the machine treats AMSs while an OMS executes in Ring 0
/// (Section 2.3).
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingPolicy {
    /// The paper's prototype policy: suspend every AMS of the processor when
    /// its OMS enters Ring 0 and resume them after it returns to Ring 3.
    #[default]
    SuspendAll,
    /// The "more aggressive microarchitecture" the paper sketches: AMSs
    /// continue speculatively through the OMS's Ring 0 episode and their work
    /// is retired because the control registers were not modified.  Modeled as
    /// zero AMS stall; used by the ring-transition ablation.
    Speculative,
}

/// Saved execution contexts of one OS thread across a context switch: the OMS
/// context plus one context per AMS of the processor the thread ran on.
#[derive(Debug, Default, Clone)]
struct ThreadCtx {
    oms: SavedContext,
    ams: Vec<SavedContext>,
}

/// The MISP machine platform.
///
/// `MispPlatform` implements [`Platform`] for the `misp-sim` engine, realizing
/// the paper's architectural semantics:
///
/// * an OMS Ring 3→0 transition suspends every AMS of its MISP processor for
///   `2 × signal + priv` cycles (Equation 1);
/// * a fault on an AMS is relayed to the OMS as a proxy-execution request,
///   occupying the OMS for `signal + serialize` cycles (Equation 3) and the
///   faulting shred for `3 × signal + priv` (Equation 2 plus the service the
///   SMP baseline would also pay);
/// * the OS schedules threads onto OMSs only; a context switch saves and
///   restores the aggregate AMS state and rebinds the whole processor to the
///   incoming thread's address space.
#[derive(Debug)]
pub struct MispPlatform {
    topology: MispTopology,
    policy: RingPolicy,
    scheduler: SystemScheduler,
    oms_busy_until: Vec<Cycles>,
    thread_ctx: FxHashMap<OsThreadId, ThreadCtx>,
    /// Reused target buffer for serialization windows, so the per-transition
    /// hot path does not allocate.
    serialize_scratch: Vec<SequencerId>,
    /// Precomputed sequencer → MISP-processor index, replacing a topology
    /// scan on every privileged event and timer tick.
    seq_to_proc: Vec<usize>,
}

impl MispPlatform {
    /// Creates a platform for the given topology with the paper's default
    /// behaviour: the suspend-all ring policy and a one-tick scheduling
    /// quantum.  Every OMS has the proxy handler registered from the start
    /// (ShredLib registers it at start-up, Section 4.2); `SIGNAL` latency and
    /// `Op::RegisterHandler` are costs charged inside the platform.
    #[must_use]
    pub fn new(topology: MispTopology) -> Self {
        let processors = topology.processors().len();
        let mut seq_to_proc = vec![usize::MAX; topology.total_sequencers()];
        for (proc_idx, processor) in topology.processors().iter().enumerate() {
            for seq in processor.sequencers() {
                if let Some(slot) = seq_to_proc.get_mut(seq.as_usize()) {
                    *slot = proc_idx;
                }
            }
        }
        MispPlatform {
            topology,
            policy: RingPolicy::SuspendAll,
            scheduler: SystemScheduler::new(processors),
            oms_busy_until: vec![Cycles::ZERO; processors],
            thread_ctx: FxHashMap::default(),
            serialize_scratch: Vec::new(),
            seq_to_proc,
        }
    }

    /// The machine topology.
    #[must_use]
    pub fn topology(&self) -> &MispTopology {
        &self.topology
    }

    /// Selects the ring-transition policy (used by the ablation study).
    pub fn set_policy(&mut self, policy: RingPolicy) {
        self.policy = policy;
    }

    /// The ring-transition policy in effect.
    #[must_use]
    pub fn policy(&self) -> RingPolicy {
        self.policy
    }

    /// Pins `thread` to the MISP processor with index `processor`.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range.
    pub fn pin_thread(&mut self, thread: OsThreadId, processor: usize) {
        assert!(
            processor < self.topology.processors().len(),
            "processor index out of range"
        );
        self.scheduler.place_on(thread, processor);
    }

    /// Places `thread` on the least-loaded MISP processor (ties broken by
    /// lowest index).  Threads are placed in call order, so the load counts
    /// every thread pinned or placed before this call, and none after it.
    pub fn place_thread(&mut self, thread: OsThreadId) {
        self.scheduler.place(thread);
    }

    fn processor_index(&self, seq: SequencerId) -> usize {
        match self.seq_to_proc.get(seq.as_usize()) {
            Some(&p) if p != usize::MAX => p,
            _ => panic!("sequencer must belong to the topology"),
        }
    }

    /// Suspends the AMSs of processor `proc_idx` (except `skip`) for the
    /// serialization window `2 × signal + priv` starting at `now`.
    fn serialize_processor(
        &mut self,
        core: &mut EngineCore,
        proc_idx: usize,
        skip: Option<SequencerId>,
        now: Cycles,
        priv_time: Cycles,
    ) {
        if self.policy == RingPolicy::Speculative {
            return;
        }
        let window_end = now + core.costs().signal_cycles() * 2 + priv_time;
        let mut targets = std::mem::take(&mut self.serialize_scratch);
        targets.clear();
        targets.extend(
            self.topology.processors()[proc_idx]
                .ams()
                .iter()
                .copied()
                .filter(|a| Some(*a) != skip),
        );
        core.stall_many(&targets, now, window_end);
        self.serialize_scratch = targets;
        core.stats_mut().serializations += 1;
    }

    /// Binds every sequencer of processor `proc_idx` to `thread` (and its
    /// process's address space) and restores the thread's saved execution
    /// contexts, resuming the OMS at `oms_at` and the AMSs at `ams_at`.
    fn install_thread(
        &mut self,
        core: &mut EngineCore,
        proc_idx: usize,
        thread: OsThreadId,
        oms_at: Cycles,
        ams_at: Cycles,
    ) {
        let processor = self.topology.processors()[proc_idx].clone();
        let pid = core
            .kernel()
            .thread(thread)
            .expect("placed thread must be spawned")
            .process();
        core.memory_mut().register_process(pid);
        for seq in processor.sequencers() {
            core.memory_mut()
                .bind_sequencer(seq, pid)
                .expect("process is registered");
            core.sequencers_mut().set_bound_thread(seq, Some(thread));
        }
        let ctx = self.thread_ctx.remove(&thread).unwrap_or_default();
        core.restore_context(processor.oms(), ctx.oms, oms_at);
        for (i, ams) in processor.ams().iter().enumerate() {
            let actx = ctx.ams.get(i).copied().unwrap_or_default();
            core.restore_context(*ams, actx, ams_at);
        }
    }

    /// Saves the execution contexts of `thread` (currently installed on
    /// processor `proc_idx`).
    fn evict_thread(
        &mut self,
        core: &mut EngineCore,
        proc_idx: usize,
        thread: OsThreadId,
        now: Cycles,
    ) {
        let processor = self.topology.processors()[proc_idx].clone();
        let oms_ctx = core.save_context(processor.oms(), now);
        let ams_ctx: Vec<SavedContext> = processor
            .ams()
            .iter()
            .map(|ams| core.save_context(*ams, now))
            .collect();
        // The incoming thread's working set displaces the outgoing one's:
        // model the cold-cache restart by flushing every L1 of the processor.
        // (No-op while the cache model is disabled.)
        for seq in processor.sequencers() {
            core.memory_mut().flush_cache(seq);
        }
        self.thread_ctx.insert(
            thread,
            ThreadCtx {
                oms: oms_ctx,
                ams: ams_ctx,
            },
        );
    }
}

impl Platform for MispPlatform {
    fn init(&mut self, core: &mut EngineCore) {
        // Impose the MISP clustering on the cache hierarchy: every sequencer
        // of one MISP processor (OMS + AMSs) shares that processor's L2.
        // (configure_caches is a no-op for a disabled cache config.)
        let cache_config = core.config().cache;
        let mut clusters = vec![0usize; core.sequencer_count()];
        for (proc_idx, processor) in self.topology.processors().iter().enumerate() {
            for seq in processor.sequencers() {
                clusters[seq.as_usize()] = proc_idx;
            }
        }
        core.memory_mut().configure_caches(cache_config, &clusters);

        for proc_idx in 0..self.topology.processors().len() {
            let dispatched = self.scheduler.cpu_mut(proc_idx).dispatch();
            if let Some(thread) = dispatched {
                self.install_thread(core, proc_idx, thread, Cycles::ZERO, Cycles::ZERO);
            }
            // Timer interrupts only tick on CPUs that have work; an empty CPU
            // contributes no serializing events, matching the paper's
            // accounting which attributes events to the application's run.
            if self.scheduler.cpu(proc_idx).load() > 0 || dispatched.is_some() {
                let oms = self.topology.processors()[proc_idx].oms();
                let first = core.config().timer.next_tick_after(Cycles::ZERO);
                if first != Cycles::MAX {
                    core.schedule_timer(oms, first, 1);
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
        let proc_idx = self.processor_index(seq);
        let oms = self.topology.processors()[proc_idx].oms();
        let costs = *core.costs();
        let signal = costs.signal_cycles();
        let priv_time = core.kernel().service_cost(kind);

        if seq == oms {
            // Local Ring 3 -> Ring 0 transition on the OS-managed sequencer.
            core.stats_mut().record_event(seq, kind, true);
            core.log_event(seq, TraceKind::RingEnter);
            // Privileged code displaces the servicing sequencer's L1 — the
            // same charge the SMP baseline pays for its local services, so
            // cache-enabled cross-machine comparisons stay unbiased.  (No-op
            // while the cache model is disabled.)
            core.memory_mut().flush_cache(oms);
            self.serialize_processor(core, proc_idx, None, now, priv_time);
            let resume = now + priv_time;
            self.oms_busy_until[proc_idx] = self.oms_busy_until[proc_idx].max(resume);
            core.log_event(seq, TraceKind::RingExit);
            resume
        } else {
            // Fault on an application-managed sequencer: proxy execution.  The
            // proxy handler is registered on every OMS from the start, so the
            // request is always serviced.
            core.stats_mut().record_event(seq, kind, false);
            core.log_event(seq, TraceKind::ProxyRequest);
            let start = (now + signal).max(self.oms_busy_until[proc_idx]);
            let oms_done = start + costs.yield_transfer + signal * 2 + priv_time;
            core.log_event(oms, TraceKind::ProxyStart);
            // The proxy episode runs privileged code on the OMS on the AMS's
            // behalf, displacing the OMS's own working set from its L1 —
            // the same per-service charge as a local Ring 0 entry.  (No-op
            // while the cache model is disabled.)
            core.memory_mut().flush_cache(oms);

            // The OMS is occupied from the moment the request is outstanding
            // until it has restored the AMS context (Equation 3).
            core.stall(oms, now, oms_done);
            // The remaining AMSs of the processor observe an ordinary
            // serialization window (Equation 1).
            self.serialize_processor(core, proc_idx, Some(seq), now, priv_time);
            self.oms_busy_until[proc_idx] = oms_done;
            core.log_event(oms, TraceKind::ProxyDone);
            // The faulting shred resumes once its context has been handed back
            // (Equation 2 plus the privileged service time).
            oms_done
        }
    }

    fn on_timer_tick(&mut self, core: &mut EngineCore, cpu: SequencerId, tick: u64, now: Cycles) {
        let proc_idx = self.processor_index(cpu);
        let oms = self.topology.processors()[proc_idx].oms();
        debug_assert_eq!(cpu, oms, "timer ticks are delivered to OMSs only");
        core.log_event(oms, TraceKind::TimerTick);
        core.stats_mut().record_event(oms, OsEventKind::Timer, true);
        let mut priv_time = core.kernel().service_cost(OsEventKind::Timer);
        if core.config().timer.is_other_interrupt_tick(tick) {
            core.stats_mut()
                .record_event(oms, OsEventKind::OtherInterrupt, true);
            priv_time += core.kernel().service_cost(OsEventKind::OtherInterrupt);
        }

        let ams_count = self.topology.processors()[proc_idx].ams().len();
        let switch = self.scheduler.cpu_mut(proc_idx).on_tick();

        if let Some((prev, next)) = switch {
            priv_time += core.kernel().context_switch_cost(ams_count);
            core.log_event(oms, TraceKind::ContextSwitch);
            self.evict_thread(core, proc_idx, prev, now);
            let signal = core.costs().signal_cycles();
            let oms_at = now + priv_time;
            let ams_at = now + signal * 2 + priv_time;
            self.install_thread(core, proc_idx, next, oms_at, ams_at);
            self.oms_busy_until[proc_idx] = oms_at;
        } else {
            // Plain tick: the OMS loses the service time and the AMSs observe
            // a serialization window.
            core.stall(oms, now, now + priv_time);
            self.serialize_processor(core, proc_idx, None, now, priv_time);
            self.oms_busy_until[proc_idx] = self.oms_busy_until[proc_idx].max(now + priv_time);
        }

        let next_tick = core.config().timer.next_tick_after(now);
        if next_tick != Cycles::MAX {
            core.schedule_timer(cpu, next_tick, tick + 1);
        }
    }

    fn on_signal(
        &mut self,
        core: &mut EngineCore,
        from: SequencerId,
        target: SequencerId,
        continuation: &Continuation,
        now: Cycles,
    ) -> Cycles {
        let from_proc = self.processor_index(from);
        let Some(target_proc) = self.topology.processor_index_of(target) else {
            return now;
        };
        if from_proc != target_proc {
            // SIDs are local to the MISP processor (Section 2.4); a
            // cross-processor SIGNAL is ignored, as unknown SIDs would be.
            return now;
        }
        let arrival = now + core.costs().signal_cycles();
        let Some(thread) = core.sequencers().bound_thread(from) else {
            return now;
        };
        let Some(pid) = core.kernel().thread(thread).map(|t| t.process()) else {
            return now;
        };
        let shred = core.create_shred(pid, thread, continuation.program(), now);
        if core.sequencers().is_idle(target) {
            core.sequencers_mut().set_current_shred(target, Some(shred));
            if let Some(mut s) = core.shred_mut(shred) {
                s.set_status(ShredStatus::Running);
            }
            core.schedule_ready(target, arrival);
        }
        // The sender continues at the instruction after SIGNAL immediately.
        now
    }

    fn on_register_handler(
        &mut self,
        core: &mut EngineCore,
        _seq: SequencerId,
        now: Cycles,
    ) -> Cycles {
        // The proxy handler is registered on every OMS from the start, so a
        // registration only costs its YIELD-CONDITIONAL transfer.
        now + core.costs().yield_transfer
    }
}
