//! One simulated machine: its simulation state and its event loop.
//!
//! A [`Machine`] owns the clock and radix-heap event queue, the sequencer
//! table, memory system, kernel and trace ring (all inside [`EngineCore`]),
//! plus the [`Platform`] and the per-process [`Runtime`]s.  [`Machine::run`]
//! is the whole simulation: pop the earliest event, execute it, repeat until
//! every measured process has completed.  It is built from three steps that
//! stay public so callers can time or slice a run:
//!
//! * [`Machine::start`] — validation, platform init, thread startup and the
//!   loop-invariant step parameters.
//! * [`Machine::advance`] — processes queued events strictly *before* an
//!   optional horizon, returning whether the machine finished, paused at the
//!   horizon, or drained its queue.
//! * [`Machine::finish_report`] — folds the statistics into a [`SimReport`].
//!
//! Every machine of a [`crate::FleetEngine`] runs this same loop on its own.

use crate::core::EngineCore;
use crate::{
    Event, Platform, Runtime, RuntimeOutcome, ShredStatus, SimConfig, SimStats, TraceKind,
};
use misp_isa::{Op, ProgramLibrary};
use misp_os::OsEventKind;
use misp_trace::{CounterSnapshot, MetricsRecorder, MetricsReport, QueueProfile, TraceReport};
use misp_types::{ArenaMap, Cycles, MispError, OsThreadId, ProcessId, Result, SequencerId};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The time at which the last measured process completed.
    pub total_cycles: Cycles,
    /// Completion time of each measured process (also available inside
    /// `stats`).
    pub completions: BTreeMap<u32, Cycles>,
    /// Full statistics for the run.
    pub stats: SimStats,
    /// Deterministic digest of the event log (see
    /// [`crate::EventLog::digest`]): two runs of the same configuration must
    /// produce equal digests, which the sweep harness and the determinism
    /// tests rely on.
    pub log_digest: u64,
    /// Structured trace events, present iff `SimConfig::trace.enabled`.  The
    /// trace contents are deterministic for a fixed configuration — the same
    /// events, in the same order, with the same digest, on every execution.
    pub trace: Option<TraceReport>,
    /// Interval metrics samples, present iff
    /// `SimConfig::trace.metrics_interval` is non-zero.  Deterministic like
    /// the trace; note the `queue_len` gauge observes the *simulator's*
    /// queue, so samples differ between the macro-step and
    /// event-per-operation engines even though simulation results are
    /// byte-identical.
    pub metrics: Option<MetricsReport>,
    /// Event-queue self-profiling counters for the run (always collected;
    /// they cost integer adds on paths that already write adjacent fields).
    /// Simulator diagnostics, not simulation results — they differ between
    /// batch modes and are never folded into results JSON.
    pub queue: QueueProfile,
}

impl SimReport {
    /// Completion time of `process`, if it was measured.
    #[must_use]
    pub fn completion_of(&self, process: ProcessId) -> Option<Cycles> {
        self.completions.get(&process.index()).copied()
    }
}

/// Loop-invariant engine parameters passed into every sequencer step, read
/// once per run instead of once per operation.
#[derive(Debug, Clone, Copy)]
struct StepParams {
    access_cost: Cycles,
    budget: Cycles,
    batch: bool,
    shred_context_switch: Cycles,
    tlb_walk: Cycles,
    trace_on: bool,
}

/// What a call to [`Machine::advance`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStatus {
    /// Every measured process completed; the machine will process no further
    /// events.
    Finished,
    /// The next queued event lies at or beyond the advance horizon; the
    /// machine paused with work pending.
    Paused,
    /// The event queue drained while measured work remained: a deadlock,
    /// see [`Machine::deadlock_error`].
    Idle,
}

/// One simulated machine: its engine state plus its platform and runtimes.
#[derive(Debug)]
pub struct Machine<P: Platform> {
    core: EngineCore,
    platform: P,
    /// One runtime per simulated process, keyed by [`ProcessId`]: process
    /// ids are small and dense, so the step path resolves a runtime with an
    /// index instead of a tree walk.
    runtimes: ArenaMap<ProcessId, Box<dyn Runtime>>,
    measured: Vec<ProcessId>,
    /// Interval metrics recorder, present iff
    /// `SimConfig::trace.metrics_interval` is non-zero.  Boxed so the
    /// common metrics-off engine carries one pointer of overhead.
    metrics: Option<Box<MetricsRecorder>>,
    /// Measured processes resolved at [`Machine::start`] (defaults to every
    /// process with a runtime).
    measured_list: Vec<ProcessId>,
    /// Indices of measured processes that have not yet completed.
    remaining: BTreeSet<u32>,
    /// Loop-invariant step parameters, hoisted at [`Machine::start`].
    params: Option<StepParams>,
    finished: bool,
}

impl<P: Platform> Machine<P> {
    /// Creates a machine with `sequencer_count` sequencers.
    #[must_use]
    pub fn new(
        config: SimConfig,
        sequencer_count: usize,
        library: ProgramLibrary,
        platform: P,
    ) -> Self {
        let metrics = (config.trace.metrics_interval > 0)
            .then(|| Box::new(MetricsRecorder::new(config.trace.metrics_interval)));
        Machine {
            core: EngineCore::new(config, sequencer_count, library),
            platform,
            runtimes: ArenaMap::new(),
            measured: Vec::new(),
            metrics,
            measured_list: Vec::new(),
            remaining: BTreeSet::new(),
            params: None,
            finished: false,
        }
    }

    /// The engine core (machine state).
    #[must_use]
    pub fn core(&self) -> &EngineCore {
        &self.core
    }

    /// Mutable access to the engine core, used while assembling a machine
    /// (spawning processes, registering address spaces, …).
    pub fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    /// The platform.
    #[must_use]
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// Mutable access to the platform.
    pub fn platform_mut(&mut self) -> &mut P {
        &mut self.platform
    }

    /// Attaches the user-level runtime serving `process`.
    pub fn add_runtime(&mut self, process: ProcessId, runtime: Box<dyn Runtime>) {
        self.runtimes.insert(process, runtime);
    }

    /// Restricts the completion criterion to the given processes.  By default
    /// every process with a runtime is measured and the run ends when all of
    /// them finish.
    pub fn set_measured(&mut self, processes: Vec<ProcessId>) {
        self.measured = processes;
    }

    /// The deadlock error an [`MachineStatus::Idle`] machine reports: its
    /// queue drained with measured work remaining.
    #[must_use]
    pub fn deadlock_error(&self) -> MispError {
        MispError::Deadlock {
            detail: format!(
                "event queue drained with {} measured process(es) incomplete",
                self.remaining.len()
            ),
        }
    }

    /// Runs the simulation to completion: [`Machine::start`], then
    /// [`Machine::advance`] with no horizon, then [`Machine::finish_report`].
    ///
    /// # Errors
    ///
    /// * [`MispError::CycleBudgetExhausted`] if the configured budget elapses
    ///   before every measured process finishes.
    /// * [`MispError::Deadlock`] if the event queue drains while measured
    ///   work remains.
    /// * [`MispError::InvalidConfiguration`] if no runtime was attached.
    pub fn run(&mut self) -> Result<SimReport> {
        self.start()?;
        if self.advance(None)? != MachineStatus::Finished {
            return Err(self.deadlock_error());
        }
        Ok(self.finish_report())
    }

    /// Prepares the machine to run: validates configuration, initializes the
    /// platform, starts every OS thread and hoists the loop-invariant step
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`MispError::InvalidConfiguration`] if no runtime was attached, or if
    /// the cache model is enabled with a geometry that fails
    /// [`misp_cache::CacheConfig::validate`].
    pub fn start(&mut self) -> Result<()> {
        if self.runtimes.is_empty() {
            return Err(MispError::InvalidConfiguration(
                "no runtime attached to the engine".to_string(),
            ));
        }
        let cache = self.core.config().cache;
        if cache.enabled {
            cache.validate()?;
        }
        self.platform.init(&mut self.core);
        assert_eq!(
            self.core.config().cache.enabled,
            self.core.memory().cache_enabled(),
            "the platform's init() must call MemorySystem::configure_caches \
             with its L2 clustering when the config enables the cache model"
        );

        // Start every OS thread of every process that has a runtime, in
        // process/thread creation order for determinism.
        let mut startups: Vec<(ProcessId, OsThreadId)> = Vec::new();
        for (pid, _) in self.runtimes.iter() {
            if let Some(process) = self.core.kernel().process(pid) {
                for &tid in process.threads() {
                    startups.push((pid, tid));
                }
            }
        }
        for (pid, tid) in startups {
            if let Some(rt) = self.runtimes.get_mut(pid) {
                rt.on_thread_start(&mut self.core, tid, Cycles::ZERO);
            }
        }

        self.measured_list = if self.measured.is_empty() {
            self.runtimes.ids().collect()
        } else {
            self.measured.clone()
        };
        self.remaining = self.measured_list.iter().map(|p| p.index()).collect();

        // A process whose work is already complete at startup (e.g. an empty
        // workload) must not hang the loop.
        let runtimes = &self.runtimes;
        let core = &mut self.core;
        self.remaining.retain(|&pid_idx| {
            let rt = runtimes
                .get(ProcessId::new(pid_idx))
                .expect("measured process has a runtime");
            if rt.is_finished(core) {
                core.stats_mut()
                    .record_completion(ProcessId::new(pid_idx), Cycles::ZERO);
                false
            } else {
                true
            }
        });

        let budget = self.core.config().cycle_budget;
        // Per-step engine parameters, hoisted out of the hot loop (all are
        // invariant once the platform has initialized).
        self.params = Some(StepParams {
            access_cost: self.core.config().access_cost,
            budget,
            batch: self.core.config().batch,
            shred_context_switch: self.core.config().costs.shred_context_switch,
            tlb_walk: self.core.config().costs.tlb_walk,
            trace_on: self.core.log().trace_enabled(),
        });
        // Schedule the first interval sample inside the queue's total order.
        // Firings past the cycle budget are never scheduled: popping an event
        // beyond the budget aborts the run, and the sampler must not turn a
        // run that finishes within budget into a budget error.
        if self.metrics.is_some() {
            let interval = self.core.config().trace.metrics_interval;
            let first = Cycles::new(interval);
            if first <= budget {
                self.core.schedule_sample(first);
            }
        }
        Ok(())
    }

    /// Processes queued events strictly before `horizon` (all of them when
    /// `None`), stopping as soon as every measured process has completed.
    ///
    /// With `Some(h)` no event at or beyond `h` is popped: the machine
    /// returns [`MachineStatus::Paused`] and a later call resumes exactly
    /// where it stopped, so a run sliced at any horizons replays
    /// [`Machine::run`] event for event.
    ///
    /// # Errors
    ///
    /// [`MispError::CycleBudgetExhausted`] if the configured budget elapses
    /// before every measured process finishes.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Machine::start`].
    pub fn advance(&mut self, horizon: Option<Cycles>) -> Result<MachineStatus> {
        let params = self.params.expect("Machine::start must run before advance");
        let budget = params.budget;
        if self.finished {
            return Ok(MachineStatus::Finished);
        }
        loop {
            let Some(next) = self.core.next_event_time() else {
                if self.remaining.is_empty() {
                    self.finished = true;
                    return Ok(MachineStatus::Finished);
                }
                return Ok(MachineStatus::Idle);
            };
            if horizon.is_some_and(|h| next >= h) {
                return Ok(MachineStatus::Paused);
            }
            let ev = self.core.pop_event().expect("peeked event exists");
            if ev.time > budget {
                return Err(MispError::CycleBudgetExhausted {
                    budget: budget.as_u64(),
                });
            }
            self.core.set_now(ev.time);
            let mut check_completion = false;
            match ev.event {
                Event::SeqReady { seq, generation } => {
                    if generation != self.core.sequencers().generation(seq) {
                        continue; // stale event
                    }
                    self.core.sequencers_mut().set_pending(seq, None);
                    if self.core.sequencers().is_suspended(seq) {
                        continue; // will be resumed explicitly by the platform
                    }
                    check_completion = self.step_sequencer(seq, ev.time, &params)?;
                }
                Event::TimerTick { cpu, tick } => {
                    self.platform
                        .on_timer_tick(&mut self.core, cpu, tick, ev.time);
                }
                Event::StallEnd { seq } => {
                    self.core.handle_stall_end(seq, ev.time);
                }
                Event::StallEndGroup { base, mask } => {
                    // Equivalent to consecutive StallEnd events for each set
                    // bit in ascending order (see stall_many).
                    let mut m = mask;
                    while m != 0 {
                        let i = m.trailing_zeros();
                        self.core
                            .handle_stall_end(SequencerId::new(base + i), ev.time);
                        m &= m - 1;
                    }
                }
                Event::Sample => {
                    // Read-only with respect to simulation state: the sample
                    // is recorded and the next firing scheduled, nothing
                    // else — so results and log digests are invariant under
                    // the sampler.  No reschedule once the queue is empty
                    // (the run is ending or deadlocked either way) or past
                    // the budget.
                    self.record_sample(ev.time);
                    if self.core.queue_len() > 0 {
                        let next = ev.time + Cycles::new(self.core.config().trace.metrics_interval);
                        if next <= budget {
                            self.core.schedule_sample(next);
                        }
                    }
                }
            }

            if check_completion && !self.remaining.is_empty() {
                let finished: Vec<u32> = self
                    .remaining
                    .iter()
                    .copied()
                    .filter(|&pid_idx| {
                        self.runtimes
                            .get(ProcessId::new(pid_idx))
                            .is_some_and(|rt| rt.is_finished(&self.core))
                    })
                    .collect();
                for pid_idx in finished {
                    self.core
                        .stats_mut()
                        .record_completion(ProcessId::new(pid_idx), ev.time);
                    self.remaining.remove(&pid_idx);
                }
            }

            if self.remaining.is_empty() {
                self.finished = true;
                return Ok(MachineStatus::Finished);
            }
        }
    }

    /// Records one interval metrics sample at `now`.
    ///
    /// Strictly read-only with respect to simulation state: it snapshots
    /// cumulative machine counters and instantaneous depth gauges.  Nothing
    /// here writes the event log, statistics or any sequencer, which is what
    /// keeps results and log digests invariant under the sampler.
    fn record_sample(&mut self, now: Cycles) {
        let Some(metrics) = self.metrics.as_deref_mut() else {
            return;
        };
        let core = &self.core;
        let mut snapshot = CounterSnapshot::default();
        let cache_on = core.memory().cache_enabled();
        for i in 0..core.sequencer_count() {
            let seq = SequencerId::new(i as u32);
            snapshot.busy += core.sequencers().busy(seq).as_u64();
            snapshot.stalled += core.sequencers().stalled(seq).as_u64();
            snapshot.ops += core.sequencers().ops_executed(seq);
            let tlb = core.memory().tlb_stats(seq).unwrap_or_default();
            snapshot.tlb_hits += tlb.hits;
            snapshot.tlb_misses += tlb.misses;
            if cache_on {
                snapshot.cache_misses += core
                    .memory()
                    .cache_stats(seq)
                    .unwrap_or_default()
                    .total_misses();
            }
        }
        let ready_shreds = core.shreds().ready() as u64;
        let service_outstanding: u64 = self
            .runtimes
            .iter()
            .filter_map(|(_, rt)| rt.service_stats())
            .map(|s| {
                s.admitted
                    .saturating_sub(s.completed)
                    .saturating_sub(s.dropped)
            })
            .sum();
        metrics.record(
            now.as_u64(),
            snapshot,
            core.queue_len() as u64,
            ready_shreds,
            service_outstanding,
        );
    }

    /// Folds the per-sequencer counters and runtime statistics into the
    /// final [`SimReport`].
    pub fn finish_report(&mut self) -> SimReport {
        // Fold per-sequencer counters into the statistics snapshot.
        for i in 0..self.core.sequencer_count() {
            let seq = SequencerId::new(i as u32);
            let util = crate::SeqUtilization {
                busy: self.core.sequencers().busy(seq),
                stalled: self.core.sequencers().stalled(seq),
                ops: self.core.sequencers().ops_executed(seq),
            };
            self.core.stats_mut().per_sequencer[i] = util;
        }
        let tlb: Vec<misp_mem::TlbStats> = (0..self.core.sequencer_count())
            .map(|i| {
                self.core
                    .memory()
                    .tlb_stats(SequencerId::new(i as u32))
                    .unwrap_or_default()
            })
            .collect();
        self.core.stats_mut().fold_tlb(tlb);
        if self.core.memory().cache_enabled() {
            let cache: Vec<misp_cache::CacheStats> = (0..self.core.sequencer_count())
                .map(|i| {
                    self.core
                        .memory()
                        .cache_stats(SequencerId::new(i as u32))
                        .unwrap_or_default()
                })
                .collect();
            self.core.stats_mut().fold_cache(cache);
        }
        // Fold request-serving statistics from the measured runtimes, in
        // process-index order (the BTreeMap iteration order), so the merged
        // queue-depth series is deterministic.
        let mut service: Option<crate::ServiceStats> = None;
        for (pid, rt) in self.runtimes.iter() {
            if !self.measured_list.contains(&pid) {
                continue;
            }
            if let Some(s) = rt.service_stats() {
                service.get_or_insert_with(Default::default).merge(s);
            }
        }
        self.core.stats_mut().service = service;
        let stats = self.core.stats().clone();
        let completions: BTreeMap<u32, Cycles> = self
            .measured_list
            .iter()
            .filter_map(|p| stats.completion_of(*p).map(|c| (p.index(), c)))
            .collect();
        let total_cycles = completions.values().copied().max().unwrap_or(Cycles::ZERO);
        SimReport {
            total_cycles,
            completions,
            stats,
            log_digest: self.core.log().digest(),
            trace: self.core.take_trace().map(|t| t.into_report()),
            metrics: self.metrics.take().map(|m| m.into_report()),
            queue: self.core.queue_profile(),
        }
    }

    /// Executes the next step for `seq`.  Returns `true` if a shred finished
    /// (so the caller should re-check process completion).
    ///
    /// With [`SimConfig::batch`] enabled this is a *macro-step*: after a
    /// local operation (a compute, or a memory access that does not fault)
    /// completes strictly before the batch horizon — the earliest pending
    /// event in the queue — the engine peeks at the next operation and, if
    /// that one is local too, executes it inline at its own start time
    /// instead of scheduling and re-popping a `SeqReady` event.  Every
    /// boundary operation (ring transitions, signals, runtime/sync calls,
    /// halts, faulting accesses) still enters through an ordinary event pop,
    /// so platforms and runtimes observe exactly the state they would have
    /// observed in the event-per-operation loop, and all results are
    /// byte-identical.
    ///
    /// Accesses through the cache model inline too, although each one writes
    /// coherence state (LRU order, MESI states, remote invalidations) that
    /// other sequencers read.  An inline operation starts strictly before
    /// the horizon, and the horizon is the earliest queued event, so no
    /// other sequencer's event runs between two inline accesses: in the
    /// event-per-operation loop their `SeqReady` events would have popped
    /// back to back.  The state an access writes is therefore first observed
    /// by the same pops, in the same order, in both loops.
    fn step_sequencer(
        &mut self,
        seq: SequencerId,
        now: Cycles,
        params: &StepParams,
    ) -> Result<bool> {
        let Some(thread) = self.core.sequencers().bound_thread(seq) else {
            return Ok(false); // unbound sequencer: nothing to do
        };
        let Some(pid) = self.core.kernel().thread(thread).map(|t| t.process()) else {
            return Ok(false);
        };
        let &StepParams {
            access_cost,
            budget,
            batch,
            shred_context_switch,
            tlb_walk,
            trace_on,
        } = params;

        // Install a shred if none is running.
        let mut install_cost = Cycles::ZERO;
        if self.core.sequencers().current_shred(seq).is_none() {
            let Some(runtime) = self.runtimes.get_mut(pid) else {
                return Ok(false);
            };
            match runtime.next_shred(&mut self.core, seq, thread, now) {
                Some(shred) => {
                    self.core
                        .sequencers_mut()
                        .set_current_shred(seq, Some(shred));
                    if let Some(mut s) = self.core.shred_mut(shred) {
                        s.set_status(ShredStatus::Running);
                    }
                    self.core.log_event(seq, TraceKind::ShredStart);
                    install_cost = shred_context_switch;
                }
                None => return Ok(false), // stays idle; a wake will retry
            }
        }
        let shred_id = self
            .core
            .sequencers()
            .current_shred(seq)
            .expect("just installed");
        // The shred's cursor-slab slot is fixed while it stays installed, and
        // every arm that could finish it returns, so it is resolved once per
        // step and each operation is one slab lookup.
        let slot = self
            .core
            .shred_slot(shred_id)
            .expect("installed shred is live");

        // The macro-step loop.  `now` advances to each inline operation's
        // start time; boundary operations schedule a `SeqReady` (or finish
        // the shred) and return, exactly as the event-per-operation loop
        // did.
        let mut now = now;
        // The batch horizon — the earliest queued event — is invariant over
        // the whole macro-step: the inline path below never touches the
        // queue (every queue-mutating arm schedules and returns), so it is
        // read once here instead of once per inline operation.
        let horizon = if batch {
            self.core.next_event_time().unwrap_or(Cycles::MAX)
        } else {
            Cycles::MAX
        };
        loop {
            let op = self.core.cursor_mut(slot).next_op();
            self.core.sequencers_mut().count_op(seq);

            // Local operations fall through with their completion time; every
            // other arm schedules and returns.
            let next_ready = match op {
                Op::Compute(c) => {
                    self.core.sequencers_mut().add_busy(seq, c);
                    now + install_cost + c
                }
                Op::Touch { addr, kind } => {
                    let store = kind == misp_isa::AccessKind::Store;
                    let outcome = self.core.memory_mut().access(seq, addr, store);
                    if trace_on {
                        // Trace-only instants: `core.now` equals this
                        // operation's start time even on the inline batched
                        // path (set_now runs before each inline iteration),
                        // so the timestamps are batch-mode invariant.
                        if !outcome.tlb_hit {
                            self.core.log_event(seq, TraceKind::TlbMiss);
                        }
                        if matches!(&outcome.cache, Some(c) if c.level == misp_cache::HitLevel::Memory)
                        {
                            self.core.log_event(seq, TraceKind::CacheMiss);
                        }
                    }
                    // The cache model *refines* the flat access cost into
                    // per-level latencies, so its latency replaces
                    // `access_cost` rather than stacking on it (an all-L1-hit
                    // run with the default costs matches the flat model).
                    let mut cost = match outcome.cache {
                        Some(cache) => cache.latency,
                        None => access_cost,
                    };
                    if !outcome.tlb_hit {
                        cost += tlb_walk;
                    }
                    self.core.sequencers_mut().add_busy(seq, cost);
                    if outcome.page_fault {
                        let resume = self.platform.on_priv_event(
                            &mut self.core,
                            seq,
                            OsEventKind::PageFault,
                            now,
                        );
                        self.core.schedule_ready(seq, resume + cost);
                        return Ok(false);
                    }
                    now + install_cost + cost
                }
                Op::Syscall(_) => {
                    let resume =
                        self.platform
                            .on_priv_event(&mut self.core, seq, OsEventKind::Syscall, now);
                    self.core.schedule_ready(seq, resume + install_cost);
                    return Ok(false);
                }
                Op::Signal {
                    target,
                    continuation,
                } => {
                    self.core.stats_mut().signals_sent += 1;
                    self.core.log_event(seq, TraceKind::SignalSent);
                    let resume =
                        self.platform
                            .on_signal(&mut self.core, seq, target, &continuation, now);
                    self.core.schedule_ready(seq, resume + install_cost);
                    return Ok(false);
                }
                Op::RegisterHandler => {
                    let resume = self.platform.on_register_handler(&mut self.core, seq, now);
                    self.core.schedule_ready(seq, resume + install_cost);
                    return Ok(false);
                }
                Op::Runtime(rop) => {
                    let runtime = self
                        .runtimes
                        .get_mut(pid)
                        .expect("runtime exists for running shred");
                    let outcome = runtime.on_runtime_op(&mut self.core, seq, shred_id, &rop, now);
                    return Ok(match outcome {
                        RuntimeOutcome::Continue { cost } => {
                            self.core.sequencers_mut().add_busy(seq, cost);
                            self.core.schedule_ready(seq, now + install_cost + cost);
                            false
                        }
                        RuntimeOutcome::Block { cost } => {
                            if let Some(mut s) = self.core.shred_mut(shred_id) {
                                if s.status() == ShredStatus::Running {
                                    s.set_status(ShredStatus::Blocked);
                                }
                            }
                            self.core.sequencers_mut().set_current_shred(seq, None);
                            self.core.schedule_ready(
                                seq,
                                now + install_cost + cost + shred_context_switch,
                            );
                            false
                        }
                        RuntimeOutcome::Yield { cost } => {
                            if let Some(mut s) = self.core.shred_mut(shred_id) {
                                if s.status() == ShredStatus::Running {
                                    s.set_status(ShredStatus::Ready);
                                }
                            }
                            self.core.sequencers_mut().set_current_shred(seq, None);
                            self.core.schedule_ready(
                                seq,
                                now + install_cost + cost + shred_context_switch,
                            );
                            false
                        }
                        RuntimeOutcome::Exit { cost } => {
                            self.core.finish_shred(shred_id);
                            self.core.log_event(seq, TraceKind::ShredEnd);
                            self.core.sequencers_mut().set_current_shred(seq, None);
                            self.core.schedule_ready(
                                seq,
                                now + install_cost + cost + shred_context_switch,
                            );
                            true
                        }
                    });
                }
                Op::Halt => {
                    let runtime = self
                        .runtimes
                        .get_mut(pid)
                        .expect("runtime exists for running shred");
                    runtime.on_shred_halt(&mut self.core, seq, shred_id, now);
                    self.core.finish_shred(shred_id);
                    self.core.log_event(seq, TraceKind::ShredEnd);
                    self.core.sequencers_mut().set_current_shred(seq, None);
                    self.core.schedule_ready(seq, now + shred_context_switch);
                    return Ok(true);
                }
            };

            // A local operation completed at `next_ready`.  Macro-step to the
            // next operation when (a) batching is on, (b) the completion lands
            // strictly before the batch horizon (an equal-time queued event
            // was inserted earlier and would pop first), (c) the cycle budget
            // is not exhausted (the event loop would have errored when popping
            // the elided `SeqReady`), and (d) the peeked next operation is
            // itself executable inline.
            if batch && next_ready < horizon {
                if next_ready > budget {
                    return Err(MispError::CycleBudgetExhausted {
                        budget: budget.as_u64(),
                    });
                }
                let (class, peeked_addr) = {
                    let peeked = self.core.cursor_mut(slot).peek_op();
                    let addr = match peeked {
                        Op::Touch { addr, .. } => Some(*addr),
                        _ => None,
                    };
                    (peeked.classify(), addr)
                };
                let inline = match class {
                    misp_isa::OpClass::Local => true,
                    // A memory access is chargeable mid-batch when it will
                    // not page-fault (a fault enters the platform), with the
                    // cache model on or off: see the horizon argument above.
                    misp_isa::OpClass::Memory => {
                        self.core.memory().bound_process(seq).is_some_and(|p| {
                            !self
                                .core
                                .memory()
                                .would_fault(p, peeked_addr.expect("memory op has address"))
                        })
                    }
                    misp_isa::OpClass::Boundary => false,
                };
                if inline {
                    now = next_ready;
                    install_cost = Cycles::ZERO;
                    self.core.set_now(now);
                    continue;
                }
            }
            self.core.schedule_ready(seq, next_ready);
            return Ok(false);
        }
    }
}
