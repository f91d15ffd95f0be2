//! System-call classification.

use core::fmt;

/// The class of a system call issued by a shred or thread.
///
/// The paper's Table 1 counts system calls as one of the serializing-event
/// categories; the class does not change the architectural handling (every
/// syscall is a Ring 3 → Ring 0 transition on the OMS, or a proxy-execution
/// request on an AMS), but it lets workloads and the event log describe *why*
/// the program trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SyscallKind {
    /// File or console I/O (the dominant source in swim/equake, which log
    /// progress output).
    Io,
    /// Virtual-memory management (e.g. `VirtualAlloc`) — gauss, kmeans and
    /// svm_c allocate large intermediate buffers.
    Memory,
    /// Querying the OS clock or performance counters.
    Time,
    /// Thread-management calls issued by the legacy threading API before it is
    /// mapped onto shreds (e.g. priority changes).
    ThreadControl,
    /// Any other OS service.
    Other,
}

impl SyscallKind {
    /// All syscall classes, useful for exhaustive statistics tables.
    #[must_use]
    pub const fn all() -> [SyscallKind; 5] {
        [
            SyscallKind::Io,
            SyscallKind::Memory,
            SyscallKind::Time,
            SyscallKind::ThreadControl,
            SyscallKind::Other,
        ]
    }
}

impl fmt::Display for SyscallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SyscallKind::Io => "io",
            SyscallKind::Memory => "memory",
            SyscallKind::Time => "time",
            SyscallKind::ThreadControl => "thread-control",
            SyscallKind::Other => "other",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant() {
        let all = SyscallKind::all();
        assert_eq!(all.len(), 5);
        // Display names are unique.
        let mut names: Vec<String> = all.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn display() {
        assert_eq!(SyscallKind::Io.to_string(), "io");
        assert_eq!(SyscallKind::ThreadControl.to_string(), "thread-control");
    }
}
