//! Simulation configuration.

use misp_cache::CacheConfig;
use misp_os::TimerConfig;
use misp_trace::TraceConfig;
use misp_types::{CostModel, Cycles};
use serde::{Deserialize, Serialize};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The architectural cost model (signal latency, OS service times, …).
    pub costs: CostModel,
    /// Timer-interrupt configuration for OS-visible CPUs.
    pub timer: TimerConfig,
    /// Per-sequencer TLB capacity, in entries.
    pub tlb_capacity: usize,
    /// The cache-hierarchy model.  Disabled by default, reproducing the
    /// paper's flat memory cost; platforms impose their L2 clustering on it
    /// at engine initialization.
    pub cache: CacheConfig,
    /// Base cost of a memory access that hits the TLB.
    pub access_cost: Cycles,
    /// Hard limit on simulated time; exceeding it aborts the run with
    /// [`misp_types::MispError::CycleBudgetExhausted`].
    pub cycle_budget: Cycles,
    /// Enable the macro-step fast path: the engine executes an uninterrupted
    /// run of local operations inline, advancing per-operation time, instead
    /// of round-tripping through the event queue after every operation.
    /// Results are byte-identical either way (statistics, completion times
    /// and event-log digests); disabling it merely forces the slower
    /// event-per-operation loop, which the determinism property tests use as
    /// the reference.  On by default.
    pub batch: bool,
    /// Observability configuration: the structured trace ring and the
    /// interval metrics sampler.  Fully off by default; when off the engine
    /// performs no tracing work beyond a single branch per recorded event
    /// and results are byte-identical to a build without the trace layer.
    pub trace: TraceConfig,
}

impl SimConfig {
    /// Returns a configuration identical to `self` but with a different cost
    /// model — convenient for signal-cost sweeps (Figure 5).
    #[must_use]
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Returns a configuration identical to `self` but with a different cache
    /// model — convenient for cache-sensitivity sweeps.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Returns a configuration identical to `self` but with a different
    /// observability configuration (trace ring and metrics sampler).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            costs: CostModel::default(),
            timer: TimerConfig::default(),
            tlb_capacity: 64,
            cache: CacheConfig::disabled(),
            access_cost: Cycles::new(2),
            cycle_budget: Cycles::new(50_000_000_000),
            batch: true,
            trace: TraceConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_types::SignalCost;

    #[test]
    fn default_is_reasonable() {
        let c = SimConfig::default();
        assert!(c.tlb_capacity > 0);
        assert!(!c.access_cost.is_zero());
        assert!(c.cycle_budget > Cycles::new(1_000_000));
        assert!(!c.cache.enabled, "the cache model is opt-in");
    }

    #[test]
    fn with_cache_replaces_only_the_cache_model() {
        let base = SimConfig::default();
        let modified = base.with_cache(CacheConfig::enabled_default());
        assert!(modified.cache.enabled);
        assert_eq!(modified.costs, base.costs);
        assert_eq!(modified.tlb_capacity, base.tlb_capacity);
    }

    #[test]
    fn with_costs_replaces_only_costs() {
        let base = SimConfig::default();
        let new_costs = CostModel::builder().signal(SignalCost::Ideal).build();
        let modified = base.with_costs(new_costs);
        assert_eq!(modified.costs.signal, SignalCost::Ideal);
        assert_eq!(modified.tlb_capacity, base.tlb_capacity);
        assert_eq!(modified.timer, base.timer);
    }

    #[test]
    fn trace_is_off_by_default_and_with_trace_replaces_only_it() {
        let base = SimConfig::default();
        assert!(base.trace.is_off(), "observability is opt-in");
        let on = base.with_trace(TraceConfig {
            enabled: true,
            metrics_interval: 1_000,
            ..TraceConfig::default()
        });
        assert!(on.trace.enabled);
        assert_eq!(on.trace.metrics_interval, 1_000);
        assert_eq!(on.costs, base.costs);
        assert_eq!(on.batch, base.batch);
    }
}
