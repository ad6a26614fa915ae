//! The dynamic branch record: one entry of a branch trace.

use std::fmt;

/// The kind of a control-transfer instruction.
///
/// The IBS traces the paper uses were captured on a MIPS DECstation, where
/// the compiler emits `beq r0,r0` as an unconditional relative jump; the
/// paper explicitly excludes those from the conditional-branch counts. Our
/// trace model makes the distinction explicit instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchKind {
    /// A conditional branch — the only kind that is predicted.
    Conditional,
    /// An unconditional jump (including compiler-synthesized ones).
    Unconditional,
    /// A subroutine call.
    Call,
    /// A subroutine return.
    Return,
}

impl BranchKind {
    /// `true` for [`BranchKind::Conditional`].
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// Compact numeric encoding used by the binary trace format.
    #[inline]
    pub(crate) fn code(self) -> u8 {
        match self {
            BranchKind::Conditional => 0,
            BranchKind::Unconditional => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
        }
    }

    /// Decode the binary trace format encoding.
    #[inline]
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(BranchKind::Conditional),
            1 => Some(BranchKind::Unconditional),
            2 => Some(BranchKind::Call),
            3 => Some(BranchKind::Return),
            _ => None,
        }
    }
}

impl BranchKind {
    /// The lowercase display name as a static string — no allocation, so
    /// formatting whole traces stays cheap.
    #[inline]
    pub fn as_str(self) -> &'static str {
        match self {
            BranchKind::Conditional => "conditional",
            BranchKind::Unconditional => "unconditional",
            BranchKind::Call => "call",
            BranchKind::Return => "return",
        }
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Privilege level at which the branch executed.
///
/// The IBS benchmarks include complete operating-system activity; the
/// synthetic workloads reproduce that by interleaving kernel bursts, and
/// the record keeps the provenance for per-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Privilege {
    /// User-mode code.
    #[default]
    User,
    /// Kernel-mode code (interrupt handlers, system calls).
    Kernel,
}

impl Privilege {
    /// The lowercase display name as a static string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        match self {
            Privilege::User => "user",
            Privilege::Kernel => "kernel",
        }
    }

    /// [`Privilege::Kernel`] when `kernel`, else [`Privilege::User`].
    #[inline]
    pub(crate) fn of(kernel: bool) -> Privilege {
        if kernel {
            Privilege::Kernel
        } else {
            Privilege::User
        }
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One dynamic branch: the unit of a branch trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// The branch instruction address.
    pub pc: u64,
    /// What kind of control transfer this is.
    pub kind: BranchKind,
    /// Whether the branch was taken. Always `true` for unconditional
    /// kinds.
    pub taken: bool,
    /// User or kernel provenance.
    pub privilege: Privilege,
}

impl BranchRecord {
    /// A conditional user-mode branch.
    #[inline]
    pub fn conditional(pc: u64, taken: bool) -> Self {
        BranchRecord {
            pc,
            kind: BranchKind::Conditional,
            taken,
            privilege: Privilege::User,
        }
    }

    /// An unconditional user-mode jump.
    #[inline]
    pub fn unconditional(pc: u64) -> Self {
        BranchRecord {
            pc,
            kind: BranchKind::Unconditional,
            taken: true,
            privilege: Privilege::User,
        }
    }

    /// The same record tagged as kernel-mode.
    #[inline]
    pub fn in_kernel(mut self) -> Self {
        self.privilege = Privilege::Kernel;
        self
    }
}

/// Where a trace's records go, one call a record: conditional branches
/// on one path and every other record on the other, the split of a
/// predictor interface between the branches it predicts and the rest.
/// An other record is always taken.
pub(crate) trait Sink {
    /// A conditional branch at `pc`.
    fn conditional(&mut self, pc: u64, taken: bool, kernel: bool);
    /// A taken non-conditional record of `kind` at `pc`.
    fn other(&mut self, pc: u64, kind: BranchKind, kernel: bool);
}

/// Holds the last record handed to it: how a record iterator takes one
/// step of a walk.
impl Sink for Option<BranchRecord> {
    #[inline(always)]
    fn conditional(&mut self, pc: u64, taken: bool, kernel: bool) {
        *self = Some(BranchRecord {
            pc,
            kind: BranchKind::Conditional,
            taken,
            privilege: Privilege::of(kernel),
        });
    }

    #[inline(always)]
    fn other(&mut self, pc: u64, kind: BranchKind, kernel: bool) {
        *self = Some(BranchRecord {
            pc,
            kind,
            taken: true,
            privilege: Privilege::of(kernel),
        });
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#010x} {} {} [{}]",
            self.pc,
            self.kind,
            if self.taken { "T" } else { "N" },
            self.privilege
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
        ] {
            assert_eq!(BranchKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(BranchKind::from_code(4), None);
    }

    #[test]
    fn constructors() {
        let c = BranchRecord::conditional(0x1000, true);
        assert!(c.kind.is_conditional());
        assert!(c.taken);
        assert_eq!(c.privilege, Privilege::User);
        let u = BranchRecord::unconditional(0x2000);
        assert!(!u.kind.is_conditional());
        assert!(u.taken, "unconditional is always taken");
        let k = BranchRecord::conditional(0x3000, false).in_kernel();
        assert_eq!(k.privilege, Privilege::Kernel);
    }

    #[test]
    fn static_display_names_match_the_debug_lowercase_convention() {
        // The Display impls used to lowercase the Debug name through a
        // per-call `format!`; the static strings must spell identically.
        for kind in [
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
        ] {
            assert_eq!(kind.as_str(), format!("{kind:?}").to_lowercase());
            assert_eq!(kind.to_string(), kind.as_str());
        }
        for privilege in [Privilege::User, Privilege::Kernel] {
            assert_eq!(privilege.as_str(), format!("{privilege:?}").to_lowercase());
            assert_eq!(privilege.to_string(), privilege.as_str());
        }
    }

    #[test]
    fn display_is_informative() {
        let r = BranchRecord::conditional(0x1000, true);
        let s = r.to_string();
        assert!(s.contains("0x00001000"), "{s}");
        assert!(s.contains("conditional"), "{s}");
        assert!(s.contains(" T "), "{s}");
    }
}
