//! Timer-interrupt configuration.

use misp_types::Cycles;

/// Configuration of asynchronous interrupt sources on an OS-visible CPU.
///
/// Every OS-visible CPU receives a periodic timer interrupt (the scheduler
/// tick) and, less frequently, uncategorized device interrupts — the "Timer"
/// and "Interrupt" columns of Table 1.  In the paper's measurements the
/// uncategorized interrupts arrive at roughly one tenth of the timer rate,
/// which is the default modeled here.
///
/// # Examples
///
/// ```
/// use misp_os::TimerConfig;
/// use misp_types::Cycles;
///
/// let cfg = TimerConfig::new(Cycles::new(1_000), 10);
/// assert_eq!(cfg.next_tick_after(Cycles::new(0)), Cycles::new(1_000));
/// assert!(cfg.is_other_interrupt_tick(10));
/// assert!(!cfg.is_other_interrupt_tick(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerConfig {
    interval: Cycles,
    /// Every `other_interrupt_period`-th tick also delivers an uncategorized
    /// device interrupt; zero disables them.
    other_interrupt_period: u64,
}

impl TimerConfig {
    /// Creates a timer configuration.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero cycles.
    #[must_use]
    pub fn new(interval: Cycles, other_interrupt_period: u64) -> Self {
        assert!(!interval.is_zero(), "timer interval must be non-zero");
        TimerConfig {
            interval,
            other_interrupt_period,
        }
    }

    /// A configuration that never fires (both sources disabled), for
    /// experiments isolating program-driven events.
    #[must_use]
    pub fn disabled() -> Self {
        TimerConfig {
            interval: Cycles::MAX,
            other_interrupt_period: 0,
        }
    }

    /// The tick interval.
    #[must_use]
    pub fn interval(&self) -> Cycles {
        self.interval
    }

    /// The absolute time of the next tick strictly after `now`.
    #[must_use]
    pub fn next_tick_after(&self, now: Cycles) -> Cycles {
        if self.interval == Cycles::MAX {
            return Cycles::MAX;
        }
        let n = now.as_u64() / self.interval.as_u64() + 1;
        Cycles::new(n * self.interval.as_u64())
    }

    /// Returns `true` if the `tick_number`-th tick (1-based) also carries an
    /// uncategorized device interrupt.
    #[must_use]
    pub fn is_other_interrupt_tick(&self, tick_number: u64) -> bool {
        self.other_interrupt_period != 0
            && tick_number != 0
            && tick_number.is_multiple_of(self.other_interrupt_period)
    }
}

impl Default for TimerConfig {
    /// One tick every 3,000,000 cycles (1 ms at 3 GHz) and an uncategorized
    /// interrupt every 10 ticks, matching the ratio observed in Table 1.
    fn default() -> Self {
        TimerConfig::new(Cycles::new(3_000_000), 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let _ = TimerConfig::new(Cycles::ZERO, 10);
    }

    #[test]
    fn next_tick_computation() {
        let cfg = TimerConfig::new(Cycles::new(100), 0);
        assert_eq!(cfg.next_tick_after(Cycles::new(0)), Cycles::new(100));
        assert_eq!(cfg.next_tick_after(Cycles::new(99)), Cycles::new(100));
        assert_eq!(cfg.next_tick_after(Cycles::new(100)), Cycles::new(200));
        assert_eq!(cfg.next_tick_after(Cycles::new(101)), Cycles::new(200));
    }

    #[test]
    fn other_interrupt_period() {
        let cfg = TimerConfig::new(Cycles::new(100), 3);
        assert!(!cfg.is_other_interrupt_tick(1));
        assert!(!cfg.is_other_interrupt_tick(2));
        assert!(cfg.is_other_interrupt_tick(3));
        assert!(cfg.is_other_interrupt_tick(6));
        assert!(!cfg.is_other_interrupt_tick(0));
        let none = TimerConfig::new(Cycles::new(100), 0);
        assert!(!none.is_other_interrupt_tick(3));
    }

    #[test]
    fn disabled_never_ticks() {
        let cfg = TimerConfig::disabled();
        assert_eq!(cfg.next_tick_after(Cycles::new(12345)), Cycles::MAX);
        assert!(!cfg.is_other_interrupt_tick(100));
    }

    #[test]
    fn default_ratio_matches_table1_shape() {
        let cfg = TimerConfig::default();
        assert_eq!(cfg.interval(), Cycles::new(3_000_000));
        assert!(cfg.is_other_interrupt_tick(10));
        assert!(!cfg.is_other_interrupt_tick(9));
    }
}
