//! Property tests for the memory-hierarchy state machines: `Tlb` LRU
//! replacement and the `misp-cache` LRU/MESI hierarchy, driven by random
//! access/invalidate sequences.  Each sequence checks two kinds of promise:
//! structural invariants (LRU content matches a reference model, MESI
//! single-writer holds, no set overflows its associativity) and accounting
//! conservation (hits + misses equal the accesses performed).
//!
//! A differential test pins the hierarchy's outcomes to [`RefHierarchy`], a
//! straightforward model kept here for reference: one `VecDeque` per set,
//! ordered `BTreeSet` books, and every set index computed per probe.
//!
//! A behavioural test rides along: with the cache model enabled, the
//! streaming and blocked locality variants — identical in work and touch
//! count — must separate by a measurable miss-latency difference, and the
//! shared-hot-set variant must pay coherence misses on SMP but resolve its
//! sharing inside the MISP processor's shared L2.

use misp::cache::{
    CacheConfig, CacheGeometry, CacheHierarchy, CacheOutcome, CacheStats, HitLevel, MesiState,
    MissClass, SetAssocCache,
};
use misp::core::MispTopology;
use misp::mem::Tlb;
use misp::os::TimerConfig;
use misp::sim::SimConfig;
use misp::types::{Cycles, MispError, PageId, SequencerId, VirtAddr, PAGE_SIZE};
use misp::workloads::{catalog, Machine, Run};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// Reference model of one cache level: one `VecDeque` per set, LRU at the
/// front, the set recomputed by division on every probe.
struct RefCache {
    sets: Vec<VecDeque<(u64, MesiState)>>,
    ways: usize,
}

impl RefCache {
    fn new(geometry: CacheGeometry) -> Self {
        RefCache {
            sets: vec![VecDeque::new(); geometry.sets as usize],
            ways: geometry.ways as usize,
        }
    }

    fn set(&mut self, line: u64) -> &mut VecDeque<(u64, MesiState)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn lookup(&mut self, line: u64) -> Option<MesiState> {
        let set = self.set(line);
        let pos = set.iter().position(|(l, _)| *l == line)?;
        let entry = set.remove(pos).expect("position just found");
        set.push_back(entry);
        Some(entry.1)
    }

    fn peek(&self, line: u64) -> Option<MesiState> {
        let n = self.sets.len() as u64;
        self.sets[(line % n) as usize]
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, s)| *s)
    }

    fn set_state(&mut self, line: u64, state: MesiState) -> bool {
        match self.set(line).iter_mut().find(|(l, _)| *l == line) {
            Some(entry) => {
                entry.1 = state;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, line: u64, state: MesiState) {
        let ways = self.ways;
        let set = self.set(line);
        if let Some(pos) = set.iter().position(|(l, _)| *l == line) {
            set.remove(pos);
        } else if set.len() == ways {
            set.pop_front();
        }
        set.push_back((line, state));
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set(line);
        match set.iter().position(|(l, _)| *l == line) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// Reference model of [`CacheHierarchy`]: the same protocol, written for
/// clarity — ordered books, a divided line index and per-probe set lookups.
struct RefHierarchy {
    config: CacheConfig,
    clusters: Vec<usize>,
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    touched: BTreeSet<u64>,
    invalidated: Vec<BTreeSet<u64>>,
    stats: Vec<CacheStats>,
}

impl RefHierarchy {
    fn new(config: CacheConfig, clusters: &[usize]) -> Self {
        let l2_count = clusters.iter().max().copied().unwrap_or(0) + 1;
        RefHierarchy {
            config,
            clusters: clusters.to_vec(),
            l1: clusters.iter().map(|_| RefCache::new(config.l1)).collect(),
            l2: (0..l2_count).map(|_| RefCache::new(config.l2)).collect(),
            touched: BTreeSet::new(),
            invalidated: vec![BTreeSet::new(); clusters.len()],
            stats: vec![CacheStats::default(); clusters.len()],
        }
    }

    fn line_key(&self, space: u32, addr: VirtAddr) -> u64 {
        (u64::from(space) << 44) | (addr.as_u64() / self.config.line_size)
    }

    fn access(&mut self, idx: usize, space: u32, addr: VirtAddr, store: bool) -> CacheOutcome {
        let cluster = self.clusters[idx];
        let line = self.line_key(space, addr);
        let costs = self.config.costs;
        if let Some(state) = self.l1[idx].lookup(line) {
            let mut invalidations = 0;
            let mut latency = costs.l1_hit;
            if store {
                if state == MesiState::Shared {
                    let (count, purged_any) = self.invalidate_others(idx, cluster, line);
                    invalidations = count;
                    if purged_any {
                        latency += costs.invalidation;
                    }
                }
                self.l1[idx].set_state(line, MesiState::Modified);
            }
            self.stats[idx].l1_hits += 1;
            return CacheOutcome {
                level: HitLevel::L1,
                miss_class: None,
                invalidations,
                latency,
            };
        }
        let class = if !self.touched.contains(&line) {
            MissClass::Compulsory
        } else if self.invalidated[idx].contains(&line) {
            MissClass::Coherence
        } else {
            MissClass::Capacity
        };
        self.touched.insert(line);
        self.invalidated[idx].remove(&line);
        let l2_hit = self.l2[cluster].lookup(line).is_some();
        let mut invalidations = 0;
        let mut extra = Cycles::ZERO;
        let fill_state = if store {
            let (count, purged_any) = self.invalidate_others(idx, cluster, line);
            invalidations = count;
            if purged_any {
                extra = costs.invalidation;
            }
            MesiState::Modified
        } else if self.downgrade_remote_holders(idx, cluster, line) {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        };
        if !l2_hit {
            self.l2[cluster].insert(line, MesiState::Shared);
        }
        self.l1[idx].insert(line, fill_state);
        let stats = &mut self.stats[idx];
        if l2_hit {
            stats.l2_hits += 1;
            return CacheOutcome {
                level: HitLevel::L2,
                miss_class: None,
                invalidations,
                latency: costs.l2_hit + extra,
            };
        }
        match class {
            MissClass::Compulsory => stats.compulsory_misses += 1,
            MissClass::Capacity => stats.capacity_misses += 1,
            MissClass::Coherence => stats.coherence_misses += 1,
        }
        CacheOutcome {
            level: HitLevel::Memory,
            miss_class: Some(class),
            invalidations,
            latency: costs.memory + extra,
        }
    }

    fn invalidate_others(&mut self, me: usize, my_cluster: usize, line: u64) -> (u64, bool) {
        let mut count = 0;
        let mut purged_any = false;
        for other in (0..self.l1.len()).filter(|&o| o != me) {
            if self.l1[other].invalidate(line) {
                count += 1;
                purged_any = true;
                self.invalidated[other].insert(line);
                self.stats[other].invalidations += 1;
            }
        }
        for (c, l2) in self.l2.iter_mut().enumerate() {
            if c != my_cluster && l2.invalidate(line) {
                purged_any = true;
            }
        }
        (count, purged_any)
    }

    fn downgrade_remote_holders(&mut self, me: usize, my_cluster: usize, line: u64) -> bool {
        let mut held = false;
        for other in (0..self.l1.len()).filter(|&o| o != me) {
            if self.l1[other].peek(line).is_some() {
                held = true;
                self.l1[other].set_state(line, MesiState::Shared);
            }
        }
        for (c, l2) in self.l2.iter().enumerate() {
            if c != my_cluster && l2.peek(line).is_some() {
                held = true;
            }
        }
        held
    }

    fn flush_l1(&mut self, idx: usize) {
        for set in &mut self.l1[idx].sets {
            set.clear();
        }
        self.stats[idx].flushes += 1;
    }

    fn probe(&self, idx: usize, space: u32, addr: VirtAddr) -> Option<MesiState> {
        self.l1[idx].peek(self.line_key(space, addr))
    }
}

/// Deterministic splitmix64 stream for deriving operation sequences from one
/// generated seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The TLB against a reference true-LRU model: identical hit/miss
    /// verdicts and identical content after every operation, capacity always
    /// respected, and the hit/miss counters conserving the lookups issued.
    #[test]
    fn tlb_lru_matches_a_reference_model(
        input in (any::<u64>(), 1u64..9, 1u64..240)
    ) {
        let (seed, capacity, ops) = input;
        let capacity = capacity as usize;
        let mut tlb = Tlb::new(capacity);
        // Reference model: most-recently-used page at the back.
        let mut model: Vec<u64> = Vec::new();
        let mut state = seed;
        let (mut lookups, mut hits) = (0u64, 0u64);
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let page = r % 12;
            match r % 16 {
                14 => {
                    tlb.flush();
                    model.clear();
                }
                15 => {
                    tlb.invalidate(PageId::new(page));
                    model.retain(|p| *p != page);
                }
                _ => {
                    lookups += 1;
                    let hit = tlb.lookup_insert(PageId::new(page));
                    let model_hit = model.contains(&page);
                    prop_assert_eq!(hit, model_hit, "page {}", page);
                    if hit {
                        hits += 1;
                    }
                    model.retain(|p| *p != page);
                    model.push(page);
                    if model.len() > capacity {
                        model.remove(0);
                    }
                }
            }
            prop_assert!(tlb.len() <= capacity);
            prop_assert_eq!(tlb.len(), model.len());
            for p in &model {
                prop_assert!(tlb.contains(PageId::new(*p)), "model page {} cached", p);
            }
        }
        let stats = tlb.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.hits + stats.misses, lookups, "lookups conserved");
    }

    /// One set-associative level against a per-set reference LRU model.
    #[test]
    fn set_assoc_lru_matches_a_reference_model(
        input in (any::<u64>(), 1u64..4, 1u64..4, 1u64..240)
    ) {
        let (seed, sets, ways, ops) = input;
        let mut cache = SetAssocCache::new(CacheGeometry::new(sets as u32, ways as u32));
        // Reference model: one MRU-at-the-back line list per set.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        let mut state = seed;
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let line = r % 16;
            let set = (line % sets) as usize;
            match r % 8 {
                7 => {
                    cache.invalidate(line);
                    model[set].retain(|l| *l != line);
                }
                _ => {
                    let hit = cache.lookup(line).is_some();
                    prop_assert_eq!(hit, model[set].contains(&line));
                    if !hit {
                        cache.insert(line, MesiState::Exclusive);
                    }
                    model[set].retain(|l| *l != line);
                    model[set].push(line);
                    if model[set].len() > ways as usize {
                        model[set].remove(0);
                    }
                }
            }
            let model_len: usize = model.iter().map(Vec::len).sum();
            prop_assert_eq!(cache.len(), model_len);
            for lines in &model {
                for l in lines {
                    prop_assert!(cache.peek(*l).is_some(), "model line {} cached", l);
                }
            }
        }
    }

    /// The full hierarchy under random load/store/flush sequences: the MESI
    /// single-writer invariant holds after every operation, a store leaves
    /// its issuer the sole (Modified) holder, and per-sequencer stats
    /// conserve the accesses issued.
    #[test]
    fn hierarchy_mesi_invariants_hold_and_stats_conserve(
        input in (any::<u64>(), 1u64..300)
    ) {
        let (seed, ops) = input;
        // Four sequencers in two clusters, caches small enough to evict.
        let config = CacheConfig::enabled_default().with_l1(2, 2).with_l2(4, 2);
        let mut h = CacheHierarchy::new(config, &[0, 0, 1, 1]);
        let mut state = seed;
        let mut accesses = [0u64; 4];
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let s = (r % 4) as u32;
            let seq = SequencerId::new(s);
            let addr = VirtAddr::new(((r >> 8) % 24) * PAGE_SIZE);
            match r % 16 {
                15 => h.flush_l1(seq),
                k => {
                    let store = k % 3 == 0;
                    accesses[s as usize] += 1;
                    h.access(seq, 0, addr, store);
                    if store {
                        prop_assert_eq!(
                            h.probe(seq, 0, addr),
                            Some(MesiState::Modified),
                            "the storer owns the line"
                        );
                        for other in 0..4u32 {
                            if other != s {
                                prop_assert_eq!(
                                    h.probe(SequencerId::new(other), 0, addr),
                                    None,
                                    "remote copies are invalidated"
                                );
                            }
                        }
                    }
                }
            }
            h.assert_coherence_invariants();
        }
        for (i, expected) in accesses.iter().enumerate() {
            let stats = h.stats(SequencerId::new(i as u32)).unwrap();
            prop_assert_eq!(stats.accesses(), *expected, "sequencer {} conserves", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hierarchy against [`RefHierarchy`] under random loads, stores and
    /// flushes, over set counts that are and are not powers of two, 1–6
    /// sequencers in 1–3 clusters and two address spaces: every access has
    /// the same outcome, every sequencer's L1 probes the same state after
    /// every operation, and the final statistics agree.
    #[test]
    fn hierarchy_matches_the_reference_model(
        input in (
            any::<u64>(),
            (1u32..6, 1u32..5, 1u32..6, 1u32..5),
            1usize..7,
            1usize..4,
            prop_oneof![Just(64u64), Just(PAGE_SIZE)],
            1u64..400,
        )
    ) {
        let (seed, (l1_sets, l1_ways, l2_sets, l2_ways), seqs, clusters, line_size, ops) = input;
        let mut state = seed;
        // Dense cluster indices: the first sequencers open each cluster, the
        // rest join one at random.
        let clusters = clusters.min(seqs);
        let map: Vec<usize> = (0..seqs)
            .map(|i| if i < clusters { i } else { (splitmix(&mut state) % clusters as u64) as usize })
            .collect();
        let config = CacheConfig {
            line_size,
            ..CacheConfig::enabled_default()
                .with_l1(l1_sets, l1_ways)
                .with_l2(l2_sets, l2_ways)
        };
        let mut h = CacheHierarchy::new(config, &map);
        let mut reference = RefHierarchy::new(config, &map);
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let s = (r % seqs as u64) as usize;
            let space = ((r >> 4) % 2) as u32;
            // Sixteen lines, at any byte offset within the line.
            let addr = VirtAddr::new(((r >> 8) % (16 * line_size)) & !7);
            match (r >> 40) % 16 {
                15 => {
                    h.flush_l1(SequencerId::new(s as u32));
                    reference.flush_l1(s);
                }
                k => {
                    let store = k % 3 == 0;
                    let got = h.access(SequencerId::new(s as u32), space, addr, store);
                    let want = reference.access(s, space, addr, store);
                    prop_assert_eq!(got, want, "access by {} at {:?} (store {})", s, addr, store);
                }
            }
            for other in 0..seqs {
                prop_assert_eq!(
                    h.probe(SequencerId::new(other as u32), space, addr),
                    reference.probe(other, space, addr),
                    "L1 of sequencer {}", other
                );
            }
        }
        for (i, want) in reference.stats.iter().enumerate() {
            prop_assert_eq!(h.stats(SequencerId::new(i as u32)), Some(*want), "stats of {}", i);
        }
    }
}

fn quick_config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// A small shared L2 (128 KiB), where the streaming footprint cannot fit.
fn small_cache() -> CacheConfig {
    CacheConfig::enabled_default().with_l2(16, 2)
}

#[test]
fn streaming_pays_a_measurable_miss_latency_over_blocked() {
    let stream = catalog::by_name("stream_walk").expect("cache variant");
    let blocked = catalog::by_name("blocked_walk").expect("cache variant");
    let topo = MispTopology::uniprocessor(7).unwrap();
    let config = quick_config().with_cache(small_cache());
    let s = Run::workload(&stream)
        .topology(topo.clone())
        .config(config)
        .execute()
        .unwrap();
    let b = Run::workload(&blocked)
        .topology(topo.clone())
        .config(config)
        .execute()
        .unwrap();
    let s_cache = s.stats.cache.expect("cache stats present when enabled");
    let b_cache = b.stats.cache.expect("cache stats present when enabled");
    assert!(
        s_cache.capacity_misses > 100 * b_cache.capacity_misses.max(1),
        "streaming must thrash where blocking fits: {} vs {}",
        s_cache.capacity_misses,
        b_cache.capacity_misses
    );
    assert!(
        s.total_cycles > b.total_cycles,
        "the miss latency must be visible in end-to-end cycles: {} vs {}",
        s.total_cycles,
        b.total_cycles
    );
}

#[test]
fn shared_hot_set_pays_coherence_on_smp_but_not_inside_a_shared_l2() {
    let hotset = catalog::by_name("hotset_update").expect("cache variant");
    let config = quick_config().with_cache(small_cache());
    let misp = Run::workload(&hotset)
        .topology(MispTopology::uniprocessor(7).unwrap())
        .config(config)
        .execute()
        .unwrap();
    let smp = Run::workload(&hotset)
        .machine(Machine::smp(8))
        .config(config)
        .execute()
        .unwrap();
    let misp_cache = misp.stats.cache.expect("cache stats present");
    let smp_cache = smp.stats.cache.expect("cache stats present");
    assert!(misp_cache.invalidations > 0, "stores invalidate peer L1s");
    assert_eq!(
        misp_cache.coherence_misses, 0,
        "one MISP processor resolves its sharing in the shared L2"
    );
    assert!(
        smp_cache.coherence_misses > 0,
        "per-core L2s force coherence misses across the fabric"
    );
}

#[test]
fn disabled_cache_reports_no_cache_stats_but_tlb_totals_surface() {
    let w = catalog::by_name("stream_walk").expect("cache variant");
    let topo = MispTopology::uniprocessor(7).unwrap();
    let report = Run::workload(&w)
        .topology(topo.clone())
        .config(quick_config())
        .execute()
        .unwrap();
    assert!(
        report.stats.cache.is_none(),
        "no cache stats under the default flat-cost model"
    );
    assert!(report.stats.per_sequencer_cache.is_empty());
    assert!(
        report.stats.tlb.hits + report.stats.tlb.misses > 0,
        "TLB totals are aggregated into the report"
    );
    assert_eq!(
        report.stats.per_sequencer_tlb.len(),
        8,
        "one TLB snapshot per sequencer"
    );
}

/// A cache geometry the engine cannot simulate is a configuration error, not
/// a panic at the first access.
fn assert_rejected(cache: CacheConfig) {
    let w = catalog::by_name("stream_walk").expect("cache variant");
    let result = Run::workload(&w)
        .topology(MispTopology::uniprocessor(3).unwrap())
        .config(quick_config().with_cache(cache))
        .execute();
    assert!(
        matches!(result, Err(MispError::InvalidConfiguration(_))),
        "{cache:?} must be rejected, got {result:?}"
    );
}

#[test]
fn zero_cache_sets_are_a_configuration_error() {
    assert_rejected(CacheConfig {
        l1: CacheGeometry { sets: 0, ways: 2 },
        ..CacheConfig::enabled_default()
    });
    assert_rejected(CacheConfig {
        l2: CacheGeometry { sets: 0, ways: 8 },
        ..CacheConfig::enabled_default()
    });
}

#[test]
fn zero_cache_ways_are_a_configuration_error() {
    assert_rejected(CacheConfig {
        l1: CacheGeometry { sets: 8, ways: 0 },
        ..CacheConfig::enabled_default()
    });
    assert_rejected(CacheConfig {
        l2: CacheGeometry { sets: 64, ways: 0 },
        ..CacheConfig::enabled_default()
    });
}

#[test]
fn zero_cache_line_size_is_a_configuration_error() {
    assert_rejected(CacheConfig {
        line_size: 0,
        ..CacheConfig::enabled_default()
    });
}

#[test]
fn non_power_of_two_cache_line_size_is_a_configuration_error() {
    assert_rejected(CacheConfig {
        line_size: 3000,
        ..CacheConfig::enabled_default()
    });
}
