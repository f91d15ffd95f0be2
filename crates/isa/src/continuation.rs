//! Shred continuations.

use crate::ProgramRef;
use core::fmt;
use misp_types::VirtAddr;
use serde::{Deserialize, Serialize};

/// A shred continuation: the `<EIP, ESP>` pair the paper's `SIGNAL`
/// instruction delivers to a destination sequencer, plus the program the
/// simulator should execute when the continuation is resumed.
///
/// In real MISP hardware the EIP alone identifies the code to run; the
/// simulator additionally carries a [`ProgramRef`] because shred code is an
/// abstract instruction stream rather than bytes in memory.
///
/// # Examples
///
/// ```
/// use misp_isa::{Continuation, ProgramRef};
/// use misp_types::VirtAddr;
///
/// let k = Continuation::new(ProgramRef::new(2), VirtAddr::new(0x401000), VirtAddr::new(0x7fff_0000));
/// assert_eq!(k.program(), ProgramRef::new(2));
/// assert!(k.to_string().starts_with("<eip=0x401000"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Continuation {
    program: ProgramRef,
    eip: VirtAddr,
    esp: VirtAddr,
}

impl Continuation {
    /// Creates a continuation for `program` with the given instruction and
    /// stack pointers.
    #[must_use]
    pub const fn new(program: ProgramRef, eip: VirtAddr, esp: VirtAddr) -> Self {
        Continuation { program, eip, esp }
    }

    /// Creates a continuation whose EIP/ESP are synthesized from the program
    /// reference (useful when the simulated addresses are irrelevant).
    #[must_use]
    pub const fn for_program(program: ProgramRef) -> Self {
        // Synthetic code addresses start at 4 MiB, stacks grow down from 2 GiB;
        // the values only matter for display and for distinguishing shreds.
        Continuation {
            program,
            eip: VirtAddr::new(0x0040_0000 + (program.index() as u64) * 0x1000),
            esp: VirtAddr::new(0x8000_0000 - (program.index() as u64) * 0x10_000),
        }
    }

    /// The program this continuation resumes.
    #[must_use]
    pub const fn program(&self) -> ProgramRef {
        self.program
    }
}

impl fmt::Display for Continuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<eip={}, esp={}, {}>", self.eip, self.esp, self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let k = Continuation::new(
            ProgramRef::new(1),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x2000),
        );
        assert_eq!(k.program(), ProgramRef::new(1));
        assert!(k.to_string().contains("eip=0x1000"));
        assert!(k.to_string().contains("esp=0x2000"));
    }

    #[test]
    fn for_program_is_deterministic_and_distinct() {
        let a = Continuation::for_program(ProgramRef::new(0));
        let b = Continuation::for_program(ProgramRef::new(1));
        assert_eq!(a, Continuation::for_program(ProgramRef::new(0)));
        assert_ne!(a.eip, b.eip);
        assert_ne!(a.esp, b.esp);
    }
}
