//! Privileged-event classification (the categories of Table 1).

use core::fmt;
use misp_isa::SyscallKind;
use serde::{Deserialize, Serialize};

/// The category of an event that requires OS (Ring 0) attention.
///
/// These are exactly the serializing-event categories the paper's Table 1
/// reports: system calls, page faults, timer interrupts, and the remaining
/// uncategorized interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsEventKind {
    /// A trap to the OS requested by the program (system call).
    Syscall,
    /// A page fault (in this model, always a compulsory first-touch fault).
    PageFault,
    /// A timer-clock interrupt (the OS scheduler tick).
    Timer,
    /// Any remaining, uncategorized device interrupt.
    OtherInterrupt,
}

impl OsEventKind {
    /// All event categories, in the column order of Table 1.
    #[must_use]
    pub const fn all() -> [OsEventKind; 4] {
        [
            OsEventKind::Syscall,
            OsEventKind::PageFault,
            OsEventKind::Timer,
            OsEventKind::OtherInterrupt,
        ]
    }
}

impl From<SyscallKind> for OsEventKind {
    fn from(_: SyscallKind) -> Self {
        OsEventKind::Syscall
    }
}

impl fmt::Display for OsEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OsEventKind::Syscall => "syscall",
            OsEventKind::PageFault => "page-fault",
            OsEventKind::Timer => "timer",
            OsEventKind::OtherInterrupt => "interrupt",
        };
        f.write_str(name)
    }
}

/// Per-category event counters, used for the OMS and AMS columns of Table 1.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OsEventCounts {
    /// Number of system calls.
    pub syscalls: u64,
    /// Number of page faults.
    pub page_faults: u64,
    /// Number of timer interrupts.
    pub timer: u64,
    /// Number of other (uncategorized) interrupts.
    pub other_interrupts: u64,
}

impl OsEventCounts {
    /// Increments the counter for `kind`.
    pub fn record(&mut self, kind: OsEventKind) {
        match kind {
            OsEventKind::Syscall => self.syscalls += 1,
            OsEventKind::PageFault => self.page_faults += 1,
            OsEventKind::Timer => self.timer += 1,
            OsEventKind::OtherInterrupt => self.other_interrupts += 1,
        }
    }

    /// Returns the count for `kind`.
    #[must_use]
    pub fn count(&self, kind: OsEventKind) -> u64 {
        match kind {
            OsEventKind::Syscall => self.syscalls,
            OsEventKind::PageFault => self.page_faults,
            OsEventKind::Timer => self.timer,
            OsEventKind::OtherInterrupt => self.other_interrupts,
        }
    }

    /// Total events across all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.syscalls + self.page_faults + self.timer + self.other_interrupts
    }

    /// Adds another set of counts to this one (e.g. summing across AMSs).
    pub fn merge(&mut self, other: &OsEventCounts) {
        self.syscalls += other.syscalls;
        self.page_faults += other.page_faults;
        self.timer += other.timer;
        self.other_interrupts += other.other_interrupts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_display() {
        assert_eq!(OsEventKind::all().len(), 4);
        assert_eq!(OsEventKind::Syscall.to_string(), "syscall");
        assert_eq!(OsEventKind::PageFault.to_string(), "page-fault");
        assert_eq!(OsEventKind::Timer.to_string(), "timer");
        assert_eq!(OsEventKind::OtherInterrupt.to_string(), "interrupt");
    }

    #[test]
    fn syscall_kind_maps_to_syscall_event() {
        assert_eq!(OsEventKind::from(SyscallKind::Io), OsEventKind::Syscall);
        assert_eq!(OsEventKind::from(SyscallKind::Memory), OsEventKind::Syscall);
    }

    #[test]
    fn counts_record_and_total() {
        let mut c = OsEventCounts::default();
        c.record(OsEventKind::Syscall);
        c.record(OsEventKind::Syscall);
        c.record(OsEventKind::PageFault);
        c.record(OsEventKind::Timer);
        c.record(OsEventKind::OtherInterrupt);
        assert_eq!(c.count(OsEventKind::Syscall), 2);
        assert_eq!(c.count(OsEventKind::PageFault), 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = OsEventCounts {
            syscalls: 1,
            page_faults: 2,
            timer: 3,
            other_interrupts: 4,
        };
        let b = OsEventCounts {
            syscalls: 10,
            page_faults: 20,
            timer: 30,
            other_interrupts: 40,
        };
        a.merge(&b);
        assert_eq!(a.syscalls, 11);
        assert_eq!(a.page_faults, 22);
        assert_eq!(a.timer, 33);
        assert_eq!(a.other_interrupts, 44);
        assert_eq!(a.total(), 110);
    }
}
