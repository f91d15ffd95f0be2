//! The machine-level memory system: address spaces plus per-sequencer TLBs.

use crate::{AddressSpace, Tlb, TlbStats};
use misp_cache::{CacheConfig, CacheHierarchy, CacheOutcome, CacheStats};
use misp_types::{MispError, PageId, ProcessId, Result, SequencerId, VirtAddr};

/// The result of one memory access, as observed by the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryOutcome {
    /// `true` if the translation was found in the sequencer's TLB.
    pub tlb_hit: bool,
    /// `true` if the access raised a compulsory page fault (first touch of the
    /// page by its process).  A fault on an OMS is a local ring transition; a
    /// fault on an AMS triggers proxy execution.
    pub page_fault: bool,
    /// The page that was accessed.
    pub page: PageId,
    /// The cache hierarchy's view of the access; `None` when the cache model
    /// is disabled (the default), in which case only the engine's flat access
    /// cost applies.
    pub cache: Option<CacheOutcome>,
}

/// The memory system of one simulated machine.
///
/// It owns one [`AddressSpace`] per process and one [`Tlb`] per sequencer, and
/// tracks which process each sequencer's CR3 currently points at (so that
/// context switches and TLB shootdowns flush the right TLBs).
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// One address space per registered process, indexed by
    /// [`ProcessId::as_usize`] (identifiers are sequential); `None` marks a
    /// process that was never registered.  A vector keeps the per-access
    /// lookup on the engine's hot path at array-index cost.
    spaces: Vec<Option<AddressSpace>>,
    tlbs: Vec<Tlb>,
    /// Which process each sequencer's CR3 points at (None = idle).
    cr3: Vec<Option<ProcessId>>,
    tlb_capacity: usize,
    shootdowns: u64,
    /// The coherent cache hierarchy; `None` while the cache model is disabled
    /// (see [`MemorySystem::configure_caches`]).
    caches: Option<CacheHierarchy>,
}

impl MemorySystem {
    /// Creates a memory system for `sequencers` sequencers, each with a TLB of
    /// `tlb_capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sequencers` or `tlb_capacity` is zero.
    #[must_use]
    pub fn new(sequencers: usize, tlb_capacity: usize) -> Self {
        assert!(sequencers > 0, "a machine needs at least one sequencer");
        MemorySystem {
            spaces: Vec::new(),
            tlbs: (0..sequencers).map(|_| Tlb::new(tlb_capacity)).collect(),
            cr3: vec![None; sequencers],
            tlb_capacity,
            shootdowns: 0,
            caches: None,
        }
    }

    /// Installs (or removes) the cache hierarchy.  With `config.enabled` the
    /// hierarchy is rebuilt from scratch — per-sequencer L1s, one shared L2
    /// per cluster named by `clusters[sequencer]` — discarding any previous
    /// cache state and statistics; with a disabled config the hierarchy is
    /// removed and accesses charge only the flat cost.
    ///
    /// Platforms call this during engine initialization, before any access,
    /// to impose their clustering (sequencers of one MISP processor share an
    /// L2; every SMP core is its own cluster).
    ///
    /// # Panics
    ///
    /// Panics if `config.enabled` and `clusters.len()` differs from the
    /// sequencer count, or the geometry fails
    /// [`CacheConfig::validate`] (the engine validates it first).
    pub fn configure_caches(&mut self, config: CacheConfig, clusters: &[usize]) {
        if config.enabled {
            assert_eq!(
                clusters.len(),
                self.tlbs.len(),
                "cache cluster map must name every sequencer"
            );
            self.caches = Some(CacheHierarchy::new(config, clusters));
        } else {
            self.caches = None;
        }
    }

    /// Returns `true` when the cache hierarchy is modeled.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.caches.is_some()
    }

    /// The cache hierarchy, if enabled.
    #[must_use]
    pub fn caches(&self) -> Option<&CacheHierarchy> {
        self.caches.as_ref()
    }

    /// Cache statistics for `sequencer`; `None` when the cache model is
    /// disabled or the sequencer is out of range.
    #[must_use]
    pub fn cache_stats(&self, sequencer: SequencerId) -> Option<CacheStats> {
        self.caches.as_ref().and_then(|h| h.stats(sequencer))
    }

    /// Flushes `sequencer`'s private L1 (context switch or proxy-execution
    /// pollution).  A no-op while the cache model is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `sequencer` is out of range while the cache model is
    /// enabled — a silently dropped flush would bias cycle counts.
    pub fn flush_cache(&mut self, sequencer: SequencerId) {
        if let Some(caches) = self.caches.as_mut() {
            caches.flush_l1(sequencer);
        }
    }

    /// Number of sequencers this memory system serves.
    #[must_use]
    pub fn sequencer_count(&self) -> usize {
        self.tlbs.len()
    }

    /// Registers a new process (creating its empty address space).  Calling it
    /// twice for the same process is a no-op.
    pub fn register_process(&mut self, pid: ProcessId) {
        let idx = pid.as_usize();
        if idx >= self.spaces.len() {
            self.spaces.resize_with(idx + 1, || None);
        }
        self.spaces[idx].get_or_insert_with(AddressSpace::default);
    }

    /// Points `sequencer`'s CR3 at `pid`'s page table, flushing its TLB if the
    /// process actually changes (as a CR3 write does on IA-32).
    ///
    /// # Errors
    ///
    /// Returns [`MispError::UnknownSequencer`] if the sequencer index is out
    /// of range, or [`MispError::InvalidConfiguration`] if the process was
    /// never registered.
    pub fn bind_sequencer(&mut self, sequencer: SequencerId, pid: ProcessId) -> Result<()> {
        if !self.is_registered(pid) {
            return Err(MispError::InvalidConfiguration(format!(
                "process {pid} was never registered"
            )));
        }
        let idx = sequencer.as_usize();
        let slot = self
            .cr3
            .get_mut(idx)
            .ok_or(MispError::UnknownSequencer(sequencer))?;
        if *slot != Some(pid) {
            *slot = Some(pid);
            self.tlbs[idx].flush();
        }
        Ok(())
    }

    /// Unbinds `sequencer` (e.g. when its MISP processor's thread is context
    /// switched away), flushing its TLB.
    pub fn unbind_sequencer(&mut self, sequencer: SequencerId) -> Result<()> {
        let idx = sequencer.as_usize();
        let slot = self
            .cr3
            .get_mut(idx)
            .ok_or(MispError::UnknownSequencer(sequencer))?;
        if slot.is_some() {
            *slot = None;
            self.tlbs[idx].flush();
        }
        Ok(())
    }

    /// The process `sequencer`'s CR3 currently points at.
    #[must_use]
    pub fn bound_process(&self, sequencer: SequencerId) -> Option<ProcessId> {
        self.cr3.get(sequencer.as_usize()).copied().flatten()
    }

    /// Performs a memory access by `sequencer` at `addr` against its bound
    /// process, reporting TLB, page-fault and cache outcomes.  `store`
    /// selects a write, which matters only to the cache model (a store
    /// invalidates the line in remote caches).
    ///
    /// # Panics
    ///
    /// Panics if the sequencer has no bound process — the execution engine
    /// must bind sequencers before letting shreds touch memory.
    pub fn access(&mut self, sequencer: SequencerId, addr: VirtAddr, store: bool) -> MemoryOutcome {
        let idx = sequencer.as_usize();
        let pid =
            self.cr3[idx].expect("sequencer must be bound to a process before accessing memory");
        let page = addr.page();
        let tlb_hit = self.tlbs[idx].lookup_insert(page);
        let space = self
            .spaces
            .get_mut(pid.as_usize())
            .and_then(Option::as_mut)
            .expect("bound process always has an address space");
        let page_fault = space.touch(page);
        // Cache lines are tagged with the owning process (the model's
        // stand-in for physical tagging), so equal virtual addresses in
        // different address spaces never alias in the L1s or the shared L2s.
        let cache = self
            .caches
            .as_mut()
            .map(|h| h.access(sequencer, pid.index(), addr, store));
        MemoryOutcome {
            tlb_hit,
            page_fault,
            page,
            cache,
        }
    }

    /// Returns `true` if `addr` would page-fault when accessed by a sequencer
    /// bound to `pid`, without performing the access.
    #[must_use]
    pub fn would_fault(&self, pid: ProcessId, addr: VirtAddr) -> bool {
        self.address_space(pid)
            .map(|s| !s.is_resident(addr.page()))
            .unwrap_or(true)
    }

    /// Pre-touches `pages` pages starting at `base` for `pid`, modelling the
    /// serial-region page probe optimization from Section 5.3.
    pub fn pretouch_range(&mut self, pid: ProcessId, base: VirtAddr, pages: u64) {
        if let Some(space) = self.spaces.get_mut(pid.as_usize()).and_then(Option::as_mut) {
            for i in 0..pages {
                space.pretouch(PageId::new(base.page().number() + i));
            }
        }
    }

    /// Performs a TLB shootdown: flushes the TLB of every sequencer whose CR3
    /// points at `pid`.  Returns the sequencers that were flushed.  This is
    /// the SMP mechanism the paper notes keeps working unchanged under MISP
    /// (Section 2.6).
    pub fn tlb_shootdown(&mut self, pid: ProcessId) -> Vec<SequencerId> {
        let mut flushed = Vec::new();
        for (idx, bound) in self.cr3.iter().enumerate() {
            if *bound == Some(pid) {
                self.tlbs[idx].flush();
                flushed.push(SequencerId::new(idx as u32));
            }
        }
        self.shootdowns += 1;
        flushed
    }

    /// Number of TLB shootdowns performed.
    #[must_use]
    pub fn shootdown_count(&self) -> u64 {
        self.shootdowns
    }

    /// The address space of `pid`, if registered.
    #[must_use]
    pub fn address_space(&self, pid: ProcessId) -> Option<&AddressSpace> {
        self.spaces.get(pid.as_usize()).and_then(Option::as_ref)
    }

    /// Returns `true` if `pid` was registered with this memory system.
    #[must_use]
    pub fn is_registered(&self, pid: ProcessId) -> bool {
        self.address_space(pid).is_some()
    }

    /// TLB statistics for `sequencer`.
    #[must_use]
    pub fn tlb_stats(&self, sequencer: SequencerId) -> Option<TlbStats> {
        self.tlbs.get(sequencer.as_usize()).map(Tlb::stats)
    }

    /// The configured per-sequencer TLB capacity.
    #[must_use]
    pub fn tlb_capacity(&self) -> usize {
        self.tlb_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_types::PAGE_SIZE;

    fn setup() -> (MemorySystem, ProcessId) {
        let mut mem = MemorySystem::new(4, 8);
        let pid = ProcessId::new(0);
        mem.register_process(pid);
        for i in 0..4 {
            mem.bind_sequencer(SequencerId::new(i), pid).unwrap();
        }
        (mem, pid)
    }

    #[test]
    fn first_touch_faults_on_any_sequencer_once() {
        let (mut mem, _) = setup();
        let addr = VirtAddr::new(10 * PAGE_SIZE);
        let o = mem.access(SequencerId::new(2), addr, false);
        assert!(o.page_fault);
        assert!(!o.tlb_hit);
        // Another sequencer touching the same page: no fault (shared address
        // space) but a TLB miss because TLBs are per-sequencer.
        let o = mem.access(SequencerId::new(3), addr, false);
        assert!(!o.page_fault);
        assert!(!o.tlb_hit);
        // Same sequencer again: TLB hit.
        let o = mem.access(SequencerId::new(3), addr, false);
        assert!(o.tlb_hit);
    }

    #[test]
    fn bind_unknown_process_fails() {
        let mut mem = MemorySystem::new(2, 8);
        let err = mem
            .bind_sequencer(SequencerId::new(0), ProcessId::new(9))
            .unwrap_err();
        assert!(matches!(err, MispError::InvalidConfiguration(_)));
    }

    #[test]
    fn bind_out_of_range_sequencer_fails() {
        let mut mem = MemorySystem::new(2, 8);
        mem.register_process(ProcessId::new(0));
        let err = mem
            .bind_sequencer(SequencerId::new(5), ProcessId::new(0))
            .unwrap_err();
        assert_eq!(err, MispError::UnknownSequencer(SequencerId::new(5)));
    }

    #[test]
    fn rebinding_to_other_process_flushes_tlb() {
        let mut mem = MemorySystem::new(1, 8);
        let a = ProcessId::new(0);
        let b = ProcessId::new(1);
        mem.register_process(a);
        mem.register_process(b);
        let s = SequencerId::new(0);
        mem.bind_sequencer(s, a).unwrap();
        mem.access(s, VirtAddr::new(0), false);
        assert_eq!(mem.tlb_stats(s).unwrap().flushes, 1, "initial bind flushes");
        mem.bind_sequencer(s, a).unwrap(); // same process: no flush
        assert_eq!(mem.tlb_stats(s).unwrap().flushes, 1);
        mem.bind_sequencer(s, b).unwrap();
        assert_eq!(mem.tlb_stats(s).unwrap().flushes, 2);
        assert_eq!(mem.bound_process(s), Some(b));
    }

    #[test]
    fn unbind_flushes_once() {
        let (mut mem, _) = setup();
        let s = SequencerId::new(1);
        let before = mem.tlb_stats(s).unwrap().flushes;
        mem.unbind_sequencer(s).unwrap();
        assert_eq!(mem.tlb_stats(s).unwrap().flushes, before + 1);
        assert_eq!(mem.bound_process(s), None);
        // Unbinding an already-unbound sequencer does not flush again.
        mem.unbind_sequencer(s).unwrap();
        assert_eq!(mem.tlb_stats(s).unwrap().flushes, before + 1);
    }

    #[test]
    fn pretouch_suppresses_faults() {
        let (mut mem, pid) = setup();
        mem.pretouch_range(pid, VirtAddr::new(0), 16);
        for i in 0..16 {
            let o = mem.access(SequencerId::new(0), VirtAddr::new(i * PAGE_SIZE), false);
            assert!(!o.page_fault, "page {i} should be pre-touched");
        }
        assert_eq!(mem.address_space(pid).unwrap().compulsory_faults(), 0);
    }

    #[test]
    fn would_fault_reflects_residency() {
        let (mut mem, pid) = setup();
        let addr = VirtAddr::new(3 * PAGE_SIZE);
        assert!(mem.would_fault(pid, addr));
        mem.access(SequencerId::new(0), addr, false);
        assert!(!mem.would_fault(pid, addr));
        assert!(
            mem.would_fault(ProcessId::new(42), addr),
            "unknown process always faults"
        );
    }

    #[test]
    fn shootdown_flushes_only_bound_sequencers() {
        let mut mem = MemorySystem::new(3, 8);
        let a = ProcessId::new(0);
        let b = ProcessId::new(1);
        mem.register_process(a);
        mem.register_process(b);
        mem.bind_sequencer(SequencerId::new(0), a).unwrap();
        mem.bind_sequencer(SequencerId::new(1), a).unwrap();
        mem.bind_sequencer(SequencerId::new(2), b).unwrap();
        let flushed = mem.tlb_shootdown(a);
        assert_eq!(flushed, vec![SequencerId::new(0), SequencerId::new(1)]);
        assert_eq!(mem.shootdown_count(), 1);
    }

    #[test]
    fn sequencer_count_and_capacity() {
        let mem = MemorySystem::new(8, 64);
        assert_eq!(mem.sequencer_count(), 8);
        assert_eq!(mem.tlb_capacity(), 64);
    }
}
