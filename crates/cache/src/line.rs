//! Cache lines and their states.

use consim_types::BlockAddr;
use std::fmt;

/// MESI-style state of a cached line.
///
/// The cache crate only distinguishes what it needs for storage decisions
/// (is the line valid? must an eviction write back?); the coherence crate
/// drives the actual protocol transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LineState {
    /// No valid data. Lines in this state are not stored.
    #[default]
    Invalid,
    /// Clean, potentially present in other caches.
    Shared,
    /// Clean, guaranteed sole copy.
    Exclusive,
    /// Dirty, guaranteed sole copy among peers at this level.
    Modified,
}

impl LineState {
    /// Whether an eviction of a line in this state must write data back.
    #[inline]
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }

    /// Whether the line holds usable data.
    #[inline]
    pub const fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// Whether a write can proceed without a coherence upgrade.
    #[inline]
    pub const fn is_writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LineState::Invalid => "I",
            LineState::Shared => "S",
            LineState::Exclusive => "E",
            LineState::Modified => "M",
        };
        f.write_str(s)
    }
}

/// One cache line: a block tag plus its state.
///
/// # Examples
///
/// ```
/// use consim_cache::{CacheLine, LineState};
/// use consim_types::BlockAddr;
///
/// let line = CacheLine::new(BlockAddr::new(7), LineState::Modified);
/// assert!(line.state.is_dirty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLine {
    /// The block this line caches.
    pub block: BlockAddr,
    /// The line's current state.
    pub state: LineState,
}

impl CacheLine {
    /// Creates a line.
    pub const fn new(block: BlockAddr, state: LineState) -> Self {
        Self { block, state }
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.block, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirtiness() {
        assert!(LineState::Modified.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert!(!LineState::Shared.is_dirty());
        assert!(!LineState::Invalid.is_dirty());
    }

    #[test]
    fn validity() {
        assert!(!LineState::Invalid.is_valid());
        assert!(LineState::Shared.is_valid());
        assert!(LineState::Exclusive.is_valid());
        assert!(LineState::Modified.is_valid());
    }

    #[test]
    fn writability() {
        assert!(LineState::Modified.is_writable());
        assert!(LineState::Exclusive.is_writable());
        assert!(!LineState::Shared.is_writable());
        assert!(!LineState::Invalid.is_writable());
    }

    #[test]
    fn display() {
        assert_eq!(LineState::Shared.to_string(), "S");
        let line = CacheLine::new(BlockAddr::new(1), LineState::Exclusive);
        assert!(line.to_string().ends_with("@E"));
    }

    #[test]
    fn default_state_is_invalid() {
        assert_eq!(LineState::default(), LineState::Invalid);
    }
}
