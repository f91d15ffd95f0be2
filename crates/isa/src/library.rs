//! Program libraries: indexed collections of shred programs.

use crate::ShredProgram;
use core::fmt;

/// A reference to a program inside a [`ProgramLibrary`].
///
/// Dynamically-created shreds (via `RuntimeOp::ShredCreate`) name their code
/// by `ProgramRef`, keeping the operation alphabet small and cloneable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgramRef(u32);

impl ProgramRef {
    /// Creates a reference to the program at `index`.
    #[inline]
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ProgramRef(index)
    }

    /// The index into the owning library.
    #[inline]
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The index as a `usize` for slice indexing.
    #[inline]
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProgramRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PRG{}", self.0)
    }
}

/// An indexed, append-only collection of shred programs.
///
/// A workload builds one library containing every distinct program its shreds
/// run; the runtime resolves [`ProgramRef`]s against it.
///
/// # Examples
///
/// ```
/// use misp_isa::{ProgramBuilder, ProgramLibrary};
/// use misp_types::Cycles;
///
/// let mut lib = ProgramLibrary::new();
/// let worker = lib.insert(ProgramBuilder::new("worker").compute(Cycles::new(100)).build());
/// assert_eq!(lib.get(worker).unwrap().name(), "worker");
/// assert_eq!(lib.len(), 1);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProgramLibrary {
    programs: Vec<ShredProgram>,
}

impl ProgramLibrary {
    /// Creates an empty library.
    #[must_use]
    pub fn new() -> Self {
        ProgramLibrary {
            programs: Vec::new(),
        }
    }

    /// Adds a program, returning the reference by which it can be retrieved.
    pub fn insert(&mut self, program: ShredProgram) -> ProgramRef {
        let r = ProgramRef::new(self.programs.len() as u32);
        self.programs.push(program);
        r
    }

    /// Retrieves a program by reference.
    #[must_use]
    pub fn get(&self, r: ProgramRef) -> Option<&ShredProgram> {
        self.programs.get(r.as_usize())
    }

    /// Number of programs in the library.
    #[must_use]
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Returns `true` when the library holds no programs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Iterates over `(reference, program)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ProgramRef, &ShredProgram)> {
        self.programs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProgramRef::new(i as u32), p))
    }
}

impl FromIterator<ShredProgram> for ProgramLibrary {
    fn from_iter<I: IntoIterator<Item = ShredProgram>>(iter: I) -> Self {
        ProgramLibrary {
            programs: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for ProgramLibrary {
    type Item = ShredProgram;
    type IntoIter = std::vec::IntoIter<ShredProgram>;

    /// Moves the programs out in insertion order, so a machine can take
    /// ownership of its library without copying any program.
    fn into_iter(self) -> Self::IntoIter {
        self.programs.into_iter()
    }
}

impl Extend<ShredProgram> for ProgramLibrary {
    fn extend<I: IntoIterator<Item = ShredProgram>>(&mut self, iter: I) {
        self.programs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use misp_types::Cycles;

    #[test]
    fn insert_and_get() {
        let mut lib = ProgramLibrary::new();
        assert!(lib.is_empty());
        let a = lib.insert(ProgramBuilder::new("a").compute(Cycles::new(1)).build());
        let b = lib.insert(ProgramBuilder::new("b").compute(Cycles::new(2)).build());
        assert_ne!(a, b);
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.get(a).unwrap().name(), "a");
        assert_eq!(lib.get(b).unwrap().name(), "b");
        assert!(lib.get(ProgramRef::new(5)).is_none());
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut lib = ProgramLibrary::new();
        for name in ["x", "y", "z"] {
            lib.insert(ProgramBuilder::new(name).build());
        }
        let names: Vec<&str> = lib.iter().map(|(_, p)| p.name()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
        let refs: Vec<u32> = lib.iter().map(|(r, _)| r.index()).collect();
        assert_eq!(refs, vec![0, 1, 2]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let programs = vec![
            ProgramBuilder::new("p0").build(),
            ProgramBuilder::new("p1").build(),
        ];
        let mut lib: ProgramLibrary = programs.into_iter().collect();
        assert_eq!(lib.len(), 2);
        lib.extend(vec![ProgramBuilder::new("p2").build()]);
        assert_eq!(lib.len(), 3);
        assert_eq!(lib.get(ProgramRef::new(2)).unwrap().name(), "p2");
        let names: Vec<String> = lib.into_iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names, ["p0", "p1", "p2"]);
    }

    #[test]
    fn program_ref_display() {
        assert_eq!(ProgramRef::new(3).to_string(), "PRG3");
        assert_eq!(ProgramRef::new(3).index(), 3);
        assert_eq!(ProgramRef::new(3).as_usize(), 3);
    }
}
