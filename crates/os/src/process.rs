//! Processes and OS-visible threads.

use misp_types::{OsThreadId, ProcessId};

/// An OS process: a virtual address space plus a name, owning one or more
/// threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    id: ProcessId,
    name: String,
    threads: Vec<OsThreadId>,
}

impl Process {
    /// Creates a process record.
    #[must_use]
    pub fn new(id: ProcessId, name: impl Into<String>) -> Self {
        Process {
            id,
            name: name.into(),
            threads: Vec::new(),
        }
    }

    /// The process identifier.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The process name (for logs and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Identifiers of the threads belonging to this process.
    #[must_use]
    pub fn threads(&self) -> &[OsThreadId] {
        &self.threads
    }

    pub(crate) fn add_thread(&mut self, tid: OsThreadId) {
        self.threads.push(tid);
    }
}

/// An OS-visible thread: the entity the OS scheduler manages and, under MISP,
/// the owner of a set of shreds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsThread {
    id: OsThreadId,
    process: ProcessId,
}

impl OsThread {
    /// Creates a thread record.
    #[must_use]
    pub fn new(id: OsThreadId, process: ProcessId) -> Self {
        OsThread { id, process }
    }

    /// The thread identifier.
    #[must_use]
    pub fn id(&self) -> OsThreadId {
        self.id
    }

    /// The owning process.
    #[must_use]
    pub fn process(&self) -> ProcessId {
        self.process
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_thread_membership() {
        let mut p = Process::new(ProcessId::new(1), "app");
        assert_eq!(p.id(), ProcessId::new(1));
        assert_eq!(p.name(), "app");
        assert!(p.threads().is_empty());
        p.add_thread(OsThreadId::new(0));
        p.add_thread(OsThreadId::new(1));
        assert_eq!(p.threads(), &[OsThreadId::new(0), OsThreadId::new(1)]);
    }
}
