//! The two-level coherent hierarchy: private L1s, clustered shared L2s, and
//! MESI-lite coherence between them.

use crate::{CacheConfig, MesiState, SetAssocCache};
use misp_types::{Cycles, FxHashSet, SequencerId, VirtAddr};
use serde::Serialize;
use std::collections::BTreeSet;

/// Where in the hierarchy an access resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// The sequencer's private L1 held the line.
    L1,
    /// The cluster's shared L2 held the line.
    L2,
    /// Neither level held the line; the access went to memory.
    Memory,
}

/// Why an access that went all the way to memory missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// First access to the line anywhere in the machine.
    Compulsory,
    /// The line had been evicted (or never fetched by this sequencer) for
    /// capacity/conflict reasons.
    Capacity,
    /// The line was invalidated out of this sequencer's L1 by a remote store.
    Coherence,
}

/// The cache-visible result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The level that serviced the access.
    pub level: HitLevel,
    /// Miss classification; `Some` exactly when `level` is
    /// [`HitLevel::Memory`].
    pub miss_class: Option<MissClass>,
    /// Remote L1 lines this access invalidated (stores only).
    pub invalidations: u64,
    /// The latency to charge for the access, from
    /// [`misp_types::CacheCostModel`].
    pub latency: Cycles,
}

/// Hit/miss/coherence counters of one sequencer's view of the hierarchy.
/// `Serialize` because the harness's results schema embeds it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Accesses serviced by the private L1.
    pub l1_hits: u64,
    /// L1 misses serviced by the cluster's shared L2.
    pub l2_hits: u64,
    /// Memory accesses caused by first-ever touches of a line.
    pub compulsory_misses: u64,
    /// Memory accesses caused by capacity/conflict evictions.
    pub capacity_misses: u64,
    /// Memory accesses caused by remote-store invalidations.
    pub coherence_misses: u64,
    /// Lines invalidated out of this sequencer's L1 by remote stores.
    pub invalidations: u64,
    /// Full L1 flushes (context switches, proxy-execution episodes).
    pub flushes: u64,
}

impl CacheStats {
    /// Total memory-level misses across all classes.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.compulsory_misses + self.capacity_misses + self.coherence_misses
    }

    /// Total accesses observed (`hits + misses` at every level).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.total_misses()
    }

    /// Accumulates `other` into `self` (used for machine-wide aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.compulsory_misses += other.compulsory_misses;
        self.capacity_misses += other.capacity_misses;
        self.coherence_misses += other.coherence_misses;
        self.invalidations += other.invalidations;
        self.flushes += other.flushes;
    }
}

/// The machine's cache hierarchy: one private L1 per sequencer, one shared L2
/// per cluster, and MESI-lite coherence between the L1s.
///
/// A *cluster* is the set of sequencers sharing one L2 — a MISP processor on
/// the MISP machine, a single core on the SMP baseline.  The mapping is fixed
/// at construction from `clusters[sequencer] = cluster index`.
///
/// Coherence is maintained by snooping every L1 on demand rather than through
/// a directory, which is exact and cheap at the machine sizes the paper
/// evaluates (eight sequencers).  Every L1 shares one geometry and every L2
/// another, so an access computes its L1 set and its L2 set once and the
/// snoop probes that one set in each cache.  The miss-classification books
/// are hash sets used for membership only — nothing iterates them — so
/// results depend only on set membership, never on hash order, and the
/// hierarchy is strictly deterministic.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: CacheConfig,
    clusters: Vec<usize>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    /// Lines ever fetched anywhere, for compulsory-miss classification.
    /// Membership only.
    touched: FxHashSet<u64>,
    /// Per-sequencer lines lost to remote stores, for coherence-miss
    /// classification.  Membership only.
    invalidated: Vec<FxHashSet<u64>>,
    stats: Vec<CacheStats>,
}

impl CacheHierarchy {
    /// Creates the hierarchy for `clusters.len()` sequencers, where
    /// `clusters[i]` names the L2 cluster of sequencer `i`.  Cluster indices
    /// must be dense (`0..=max`).
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or `config` fails
    /// [`CacheConfig::validate`].
    #[must_use]
    pub fn new(config: CacheConfig, clusters: &[usize]) -> Self {
        assert!(!clusters.is_empty(), "a hierarchy needs sequencers");
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let l2_count = clusters.iter().max().copied().unwrap_or(0) + 1;
        CacheHierarchy {
            config,
            clusters: clusters.to_vec(),
            l1: (0..clusters.len())
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            l2: (0..l2_count)
                .map(|_| SetAssocCache::new(config.l2))
                .collect(),
            touched: FxHashSet::default(),
            invalidated: vec![FxHashSet::default(); clusters.len()],
            stats: vec![CacheStats::default(); clusters.len()],
        }
    }

    /// The configuration the hierarchy was built from.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The sequencer-to-cluster mapping.
    #[must_use]
    pub fn clusters(&self) -> &[usize] {
        &self.clusters
    }

    /// The tag a `(space, addr)` pair caches under: the address-space id
    /// packed above the line index, so identical virtual addresses in
    /// different address spaces never alias (the model's stand-in for
    /// physical tagging).
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the model's 2^56-byte per-space limit or
    /// `space` exceeds 2^20 — both far beyond anything the simulator builds.
    fn line_key(&self, space: u32, addr: VirtAddr) -> u64 {
        let line = self.config.line_of(addr.as_u64());
        assert!(
            line < 1 << 44,
            "virtual address beyond the cache model's per-space range"
        );
        assert!(space < 1 << 20, "address-space id beyond the cache model");
        (u64::from(space) << 44) | line
    }

    /// Performs one access by `seq` at `addr` within address space `space`
    /// (the owning process; lines are tagged with it, so equal virtual
    /// addresses in different spaces never alias).  `store` selects a write.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range for the configured sequencer count.
    pub fn access(
        &mut self,
        seq: SequencerId,
        space: u32,
        addr: VirtAddr,
        store: bool,
    ) -> CacheOutcome {
        let idx = seq.as_usize();
        let cluster = self.clusters[idx];
        let line = self.line_key(space, addr);
        let costs = self.config.costs;
        // Every L1 shares one geometry and every L2 another, so the two set
        // indices serve the lookup, the fills and every snoop below.
        let l1_set = self.config.l1.set_of(line);
        let l2_set = self.config.l2.set_of(line);

        // L1 hit: loads keep the line's state, stores may need an upgrade.
        if let Some(state) = self.l1[idx].lookup_at(l1_set, line) {
            let mut invalidations = 0;
            let mut latency = costs.l1_hit;
            if store {
                if state == MesiState::Shared {
                    let (l1_invalidations, purged_any) =
                        self.invalidate_others(idx, cluster, l1_set, l2_set, line);
                    invalidations = l1_invalidations;
                    if purged_any {
                        latency += costs.invalidation;
                    }
                }
                self.l1[idx].set_state_at(l1_set, line, MesiState::Modified);
            }
            self.stats[idx].l1_hits += 1;
            return CacheOutcome {
                level: HitLevel::L1,
                miss_class: None,
                invalidations,
                latency,
            };
        }

        // L1 miss: classify while updating the books, before the fill.  A
        // line in `invalidated` was in some L1, so it is also in `touched`.
        let first_touch = self.touched.insert(line);
        let lost_to_store = self.invalidated[idx].remove(&line);
        let class = if first_touch {
            MissClass::Compulsory
        } else if lost_to_store {
            MissClass::Coherence
        } else {
            MissClass::Capacity
        };

        let l2_hit = self.l2[cluster].lookup_at(l2_set, line).is_some();

        // Coherence actions and the L1 fill state.
        let mut invalidations = 0;
        let mut latency_extra = Cycles::ZERO;
        let fill_state = if store {
            let (l1_invalidations, purged_any) =
                self.invalidate_others(idx, cluster, l1_set, l2_set, line);
            invalidations = l1_invalidations;
            if purged_any {
                latency_extra = costs.invalidation;
            }
            MesiState::Modified
        } else if self.downgrade_remote_holders(idx, cluster, l1_set, l2_set, line) {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        };

        if !l2_hit {
            // The L2 tracks presence only; per-line MESI lives in the L1s.
            self.l2[cluster].insert_at(l2_set, line, MesiState::Shared);
        }
        self.l1[idx].insert_at(l1_set, line, fill_state);

        let stats = &mut self.stats[idx];
        if l2_hit {
            stats.l2_hits += 1;
            CacheOutcome {
                level: HitLevel::L2,
                miss_class: None,
                invalidations,
                latency: costs.l2_hit + latency_extra,
            }
        } else {
            match class {
                MissClass::Compulsory => stats.compulsory_misses += 1,
                MissClass::Capacity => stats.capacity_misses += 1,
                MissClass::Coherence => stats.coherence_misses += 1,
            }
            CacheOutcome {
                level: HitLevel::Memory,
                miss_class: Some(class),
                invalidations,
                latency: costs.memory + latency_extra,
            }
        }
    }

    /// Invalidates `line` in every L1 except `me` and in every L2 except
    /// `my_cluster`'s, marking the displaced L1 holders for coherence-miss
    /// classification.  `l1_set` and `l2_set` are the line's set at each
    /// level.  Returns the number of L1 lines invalidated and whether *any*
    /// remote copy (L1 or L2) was purged — a store must pay the invalidation
    /// round even when the only surviving copy is a lingering remote-cluster
    /// L2 line.
    fn invalidate_others(
        &mut self,
        me: usize,
        my_cluster: usize,
        l1_set: usize,
        l2_set: usize,
        line: u64,
    ) -> (u64, bool) {
        let mut count = 0;
        let mut purged_any = false;
        for other in 0..self.l1.len() {
            if other == me {
                continue;
            }
            if self.l1[other].invalidate_at(l1_set, line).is_some() {
                count += 1;
                purged_any = true;
                self.invalidated[other].insert(line);
                self.stats[other].invalidations += 1;
            }
        }
        for (c, l2) in self.l2.iter_mut().enumerate() {
            if c != my_cluster && l2.invalidate_at(l2_set, line).is_some() {
                purged_any = true;
            }
        }
        (count, purged_any)
    }

    /// Downgrades any remote `Modified`/`Exclusive` L1 holder of `line` to
    /// `Shared`; returns `true` if any remote L1 *or remote cluster's L2*
    /// holds the line.  The L2 check matters for exclusivity: a line filled
    /// `Exclusive` must have no copy anywhere else in the machine, so that a
    /// later store hitting it in `Exclusive`/`Modified` state can skip the
    /// invalidation round without leaving a stale copy behind.  `l1_set` and
    /// `l2_set` are the line's set at each level.
    fn downgrade_remote_holders(
        &mut self,
        me: usize,
        my_cluster: usize,
        l1_set: usize,
        l2_set: usize,
        line: u64,
    ) -> bool {
        let mut held = false;
        for other in 0..self.l1.len() {
            if other != me && self.l1[other].set_state_at(l1_set, line, MesiState::Shared) {
                held = true;
            }
        }
        for (c, l2) in self.l2.iter().enumerate() {
            if c != my_cluster && l2.peek_at(l2_set, line).is_some() {
                held = true;
            }
        }
        held
    }

    /// Flushes `seq`'s private L1 (a context switch or proxy-execution
    /// episode displacing its contents).  The shared L2 is left intact.
    pub fn flush_l1(&mut self, seq: SequencerId) {
        let idx = seq.as_usize();
        self.l1[idx].clear();
        self.stats[idx].flushes += 1;
    }

    /// The coherence state of `addr`'s line (within address space `space`)
    /// in `seq`'s L1, without touching LRU order or statistics.
    #[must_use]
    pub fn probe(&self, seq: SequencerId, space: u32, addr: VirtAddr) -> Option<MesiState> {
        self.l1[seq.as_usize()].peek(self.line_key(space, addr))
    }

    /// The statistics of `seq`, if in range.
    #[must_use]
    pub fn stats(&self, seq: SequencerId) -> Option<CacheStats> {
        self.stats.get(seq.as_usize()).copied()
    }

    /// Number of sequencers (L1s) in the hierarchy.
    #[must_use]
    pub fn sequencer_count(&self) -> usize {
        self.l1.len()
    }

    /// Asserts the MESI-lite invariants over every line currently cached in
    /// any L1: a `Modified` or `Exclusive` line has exactly one holder
    /// machine-wide, and no set holds more lines than its associativity.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated — used by the property-test suite.
    pub fn assert_coherence_invariants(&self) {
        let mut lines: BTreeSet<u64> = BTreeSet::new();
        for l1 in &self.l1 {
            assert!(
                l1.len() <= l1.geometry().lines() as usize,
                "L1 holds more lines than its capacity"
            );
            lines.extend(l1.lines().map(|(line, _)| line));
        }
        for line in lines {
            let holders: Vec<MesiState> = self.l1.iter().filter_map(|l1| l1.peek(line)).collect();
            let owners = holders
                .iter()
                .filter(|s| matches!(s, MesiState::Modified | MesiState::Exclusive))
                .count();
            if owners > 0 {
                assert_eq!(
                    holders.len(),
                    1,
                    "line {line}: an owned (M/E) line must have exactly one holder, \
                     found states {holders:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(i: u32) -> SequencerId {
        SequencerId::new(i)
    }

    fn addr(page: u64) -> VirtAddr {
        VirtAddr::new(page * 4096)
    }

    /// Two clusters of two sequencers each (two 1x2 MISP processors).
    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(CacheConfig::enabled_default(), &[0, 0, 1, 1])
    }

    #[test]
    fn first_touch_is_compulsory_then_l1_hits() {
        let mut h = hierarchy();
        let o = h.access(seq(0), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.miss_class, Some(MissClass::Compulsory));
        assert_eq!(o.latency, h.config().costs.memory);
        let o = h.access(seq(0), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(o.latency, h.config().costs.l1_hit);
        assert_eq!(h.stats(seq(0)).unwrap().l1_hits, 1);
        assert_eq!(h.stats(seq(0)).unwrap().compulsory_misses, 1);
    }

    #[test]
    fn cluster_mates_share_the_l2() {
        let mut h = hierarchy();
        h.access(seq(0), 0, addr(1), false);
        let o = h.access(seq(1), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::L2, "same cluster: shared-L2 hit");
        let o = h.access(seq(2), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::Memory, "other cluster: memory");
        assert_eq!(o.miss_class, Some(MissClass::Capacity));
    }

    #[test]
    fn load_sharing_downgrades_exclusive_to_shared() {
        let mut h = hierarchy();
        h.access(seq(0), 0, addr(1), false);
        assert_eq!(h.probe(seq(0), 0, addr(1)), Some(MesiState::Exclusive));
        h.access(seq(1), 0, addr(1), false);
        assert_eq!(h.probe(seq(0), 0, addr(1)), Some(MesiState::Shared));
        assert_eq!(h.probe(seq(1), 0, addr(1)), Some(MesiState::Shared));
        h.assert_coherence_invariants();
    }

    #[test]
    fn store_invalidates_remote_holders() {
        let mut h = hierarchy();
        h.access(seq(0), 0, addr(1), false);
        h.access(seq(2), 0, addr(1), false);
        let o = h.access(seq(1), 0, addr(1), true);
        assert_eq!(o.invalidations, 2, "both remote L1 holders invalidated");
        assert_eq!(h.probe(seq(1), 0, addr(1)), Some(MesiState::Modified));
        assert_eq!(h.probe(seq(0), 0, addr(1)), None);
        assert_eq!(h.probe(seq(2), 0, addr(1)), None);
        assert_eq!(h.stats(seq(0)).unwrap().invalidations, 1);
        h.assert_coherence_invariants();

        // The displaced holder in the *other* cluster re-misses to memory
        // with a coherence classification (its L2 copy was invalidated too).
        let o = h.access(seq(2), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.miss_class, Some(MissClass::Coherence));
        // The displaced holder in the *same* cluster finds the line in the
        // shared L2 the storing sequencer kept warm.
        let o = h.access(seq(0), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::L2);
    }

    #[test]
    fn store_upgrade_charges_invalidation_latency() {
        let mut h = hierarchy();
        h.access(seq(0), 0, addr(1), false);
        h.access(seq(1), 0, addr(1), false); // both Shared now
        let o = h.access(seq(0), 0, addr(1), true);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(o.invalidations, 1);
        assert_eq!(
            o.latency,
            h.config().costs.l1_hit + h.config().costs.invalidation
        );
        assert_eq!(h.probe(seq(0), 0, addr(1)), Some(MesiState::Modified));
        h.assert_coherence_invariants();
    }

    #[test]
    fn capacity_evictions_reclassify_on_return() {
        // One-set, one-way L1: every new line evicts the previous one.
        let config = CacheConfig::enabled_default().with_l1(1, 1);
        let mut h = CacheHierarchy::new(config, &[0]);
        h.access(seq(0), 0, addr(1), false);
        h.access(seq(0), 0, addr(2), false); // evicts line 1 from L1
        let o = h.access(seq(0), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::L2, "line 1 is still in the shared L2");
        assert_eq!(h.stats(seq(0)).unwrap().l2_hits, 1);
    }

    #[test]
    fn flush_counts_and_empties_the_l1() {
        let mut h = hierarchy();
        h.access(seq(0), 0, addr(1), false);
        h.flush_l1(seq(0));
        assert_eq!(h.probe(seq(0), 0, addr(1)), None);
        assert_eq!(h.stats(seq(0)).unwrap().flushes, 1);
        // Post-flush access: the cluster L2 still holds the line.
        let o = h.access(seq(0), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::L2);
    }

    #[test]
    fn stats_conserve_accesses() {
        let mut h = hierarchy();
        let mut per_seq = [0u64; 4];
        for i in 0..200u64 {
            let s = (i % 4) as u32;
            per_seq[s as usize] += 1;
            h.access(seq(s), 0, addr(i % 23), i % 5 == 0);
        }
        for (i, expected) in per_seq.iter().enumerate() {
            let stats = h.stats(seq(i as u32)).unwrap();
            assert_eq!(stats.accesses(), *expected, "sequencer {i}");
        }
        h.assert_coherence_invariants();
    }

    #[test]
    fn a_lingering_remote_l2_copy_blocks_exclusive_fills() {
        // Regression: seq 1 (cluster 1) fetches line A and then evicts it
        // from its one-line L1 — cluster 1's L2 still holds A.  Sequencer 0
        // (cluster 0) must then fill A *Shared*, so that its store takes the
        // upgrade path and purges cluster 1's L2 copy; otherwise seq 1 would
        // later take a stale L2 hit on a line modified elsewhere.
        let config = CacheConfig::enabled_default().with_l1(1, 1);
        let mut h = CacheHierarchy::new(config, &[0, 1]);
        h.access(seq(1), 0, addr(1), false);
        h.access(seq(1), 0, addr(2), false); // evicts line 1 from seq 1's L1
        assert_eq!(h.probe(seq(1), 0, addr(1)), None);

        let o = h.access(seq(0), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(
            h.probe(seq(0), 0, addr(1)),
            Some(MesiState::Shared),
            "a remote L2 copy forbids an Exclusive fill"
        );
        let o = h.access(seq(0), 0, addr(1), true);
        assert_eq!(o.level, HitLevel::L1, "store hits the Shared line");
        assert_eq!(h.probe(seq(0), 0, addr(1)), Some(MesiState::Modified));
        assert_eq!(
            o.latency,
            config.costs.l1_hit + config.costs.invalidation,
            "purging the lingering remote L2 copy is a coherence round"
        );

        // Sequencer 1's next access must go to memory, not stale-hit its L2.
        let o = h.access(seq(1), 0, addr(1), false);
        assert_eq!(o.level, HitLevel::Memory);
        h.assert_coherence_invariants();
    }

    #[test]
    fn equal_addresses_in_different_spaces_never_alias() {
        let mut h = hierarchy();
        h.access(seq(0), 0, addr(1), false);
        // The same virtual address in another address space: its own
        // compulsory miss, not a false hit on space 0's line.
        let o = h.access(seq(1), 1, addr(1), false);
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.miss_class, Some(MissClass::Compulsory));
        // And a store in space 1 leaves space 0's copy untouched.
        let o = h.access(seq(1), 1, addr(1), true);
        assert_eq!(o.invalidations, 0);
        assert_eq!(h.probe(seq(0), 0, addr(1)), Some(MesiState::Exclusive));
        h.assert_coherence_invariants();
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let a = CacheStats {
            l1_hits: 1,
            l2_hits: 2,
            compulsory_misses: 3,
            capacity_misses: 4,
            coherence_misses: 5,
            invalidations: 6,
            flushes: 7,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.l1_hits, 2);
        assert_eq!(b.total_misses(), 24);
        assert_eq!(b.accesses(), 30);
    }
}
