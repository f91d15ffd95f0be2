//! Cache-hierarchy configuration.

use misp_types::{CacheCostModel, MispError, Result};

/// The geometry of one set-associative cache level: `sets × ways` lines.
///
/// The line size is shared by both levels and lives in [`CacheConfig`], so a
/// geometry is fully described by its set and way counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: u32,
    /// Associativity (lines per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-empty");
        CacheGeometry { sets, ways }
    }

    /// Total number of lines (`sets × ways`).
    #[must_use]
    pub fn lines(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways)
    }

    /// Capacity in bytes for the given line size.
    #[must_use]
    pub fn capacity_bytes(&self, line_size: u64) -> u64 {
        self.lines() * line_size
    }

    /// The set `line` maps to.
    pub(crate) fn set_of(&self, line: u64) -> usize {
        (line % u64::from(self.sets)) as usize
    }

    /// Rejects a geometry with no sets or no ways; `level` names it in the
    /// error.
    fn validate(&self, level: &str) -> Result<()> {
        if self.sets == 0 || self.ways == 0 {
            return Err(MispError::InvalidConfiguration(format!(
                "cache {level} needs at least one set and one way, got {} sets x {} ways",
                self.sets, self.ways
            )));
        }
        Ok(())
    }
}

/// Configuration of the whole cache hierarchy.
///
/// The default configuration is **disabled**: [`CacheConfig::disabled`]
/// models the paper's flat memory cost and leaves every committed golden
/// byte-identical.  Experiments opt in with [`CacheConfig::enabled_default`]
/// and then vary the geometry, e.g. for an L2-capacity sweep.
///
/// Workloads in this reproduction touch memory at page granularity, so the
/// default line size equals the 4 KiB page: one line per touched page, which
/// makes capacities directly comparable to working-set page counts.
///
/// # Examples
///
/// ```
/// use misp_cache::CacheConfig;
///
/// assert!(!CacheConfig::default().enabled);
/// let small_l2 = CacheConfig::enabled_default().with_l2(16, 2);
/// assert_eq!(small_l2.l2.lines(), 32);
/// assert_eq!(small_l2.label(), "l1:64KiB/2w,l2:128KiB/2w");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether the hierarchy is modeled at all.  When `false` every access
    /// bypasses the caches and charges only the engine's flat access cost.
    pub enabled: bool,
    /// Cache-line size in bytes, shared by both levels.
    pub line_size: u64,
    /// Geometry of each sequencer's private L1.
    pub l1: CacheGeometry,
    /// Geometry of each cluster's shared L2.
    pub l2: CacheGeometry,
    /// Per-level hit/miss latencies and the coherence-invalidation cost.
    pub costs: CacheCostModel,
}

impl CacheConfig {
    /// The disabled configuration (the default): the flat-cost memory model
    /// of the paper's figures.
    #[must_use]
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            ..CacheConfig::enabled_default()
        }
    }

    /// The enabled reference configuration: 4 KiB lines, a 64 KiB 2-way L1
    /// per sequencer and a 2 MiB 8-way shared L2 per cluster.
    #[must_use]
    pub fn enabled_default() -> Self {
        CacheConfig {
            enabled: true,
            line_size: 4096,
            l1: CacheGeometry::new(8, 2),
            l2: CacheGeometry::new(64, 8),
            costs: CacheCostModel::default(),
        }
    }

    /// Returns the configuration with a different L1 geometry.
    #[must_use]
    pub fn with_l1(mut self, sets: u32, ways: u32) -> Self {
        self.l1 = CacheGeometry::new(sets, ways);
        self
    }

    /// Returns the configuration with a different L2 geometry.
    #[must_use]
    pub fn with_l2(mut self, sets: u32, ways: u32) -> Self {
        self.l2 = CacheGeometry::new(sets, ways);
        self
    }

    /// Checks that the geometry can be simulated: both levels need at least
    /// one set and one way, and the line size must be a power of two.
    ///
    /// # Errors
    ///
    /// [`MispError::InvalidConfiguration`] naming the first bad field.
    pub fn validate(&self) -> Result<()> {
        self.l1.validate("L1")?;
        self.l2.validate("L2")?;
        if !self.line_size.is_power_of_two() {
            return Err(MispError::InvalidConfiguration(format!(
                "cache line size must be a power of two, got {}",
                self.line_size
            )));
        }
        Ok(())
    }

    /// The line index of a byte address.  The line size must be a power of
    /// two, as [`CacheConfig::validate`] checks, so this is a shift.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_size.trailing_zeros()
    }

    /// A short human-readable label of the geometry, recorded in sweep
    /// results metadata (e.g. `"l1:64KiB/2w,l2:2MiB/8w"`).
    #[must_use]
    pub fn label(&self) -> String {
        fn size(bytes: u64) -> String {
            if bytes >= 1024 * 1024 && bytes.is_multiple_of(1024 * 1024) {
                format!("{}MiB", bytes / (1024 * 1024))
            } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
                format!("{}KiB", bytes / 1024)
            } else {
                format!("{bytes}B")
            }
        }
        format!(
            "l1:{}/{}w,l2:{}/{}w",
            size(self.l1.capacity_bytes(self.line_size)),
            self.l1.ways,
            size(self.l2.capacity_bytes(self.line_size)),
            self.l2.ways
        )
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = CacheConfig::default();
        assert!(!c.enabled);
        assert_eq!(c, CacheConfig::disabled());
        assert!(CacheConfig::enabled_default().enabled);
    }

    #[test]
    fn geometry_arithmetic() {
        let g = CacheGeometry::new(64, 8);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.capacity_bytes(4096), 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_ways_panics() {
        let _ = CacheGeometry::new(4, 0);
    }

    #[test]
    fn line_of_uses_line_size() {
        let c = CacheConfig::enabled_default();
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(4095), 0);
        assert_eq!(c.line_of(4096), 1);
    }

    #[test]
    fn labels_render_sizes() {
        let c = CacheConfig::enabled_default();
        assert_eq!(c.label(), "l1:64KiB/2w,l2:2MiB/8w");
        assert_eq!(c.with_l2(16, 2).label(), "l1:64KiB/2w,l2:128KiB/2w");
    }
}
