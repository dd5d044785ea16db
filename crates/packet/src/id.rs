//! Newtype identifiers used throughout the framework.
//!
//! Sequence numbers, stream identifiers, and FEC block identifiers are all
//! plain integers on the wire, but confusing one for another is a classic
//! source of bugs in proxy code, so each gets its own newtype
//! (per the C-NEWTYPE guideline).

use std::fmt;

/// A monotonically increasing per-stream packet sequence number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqNo(u64);

impl SeqNo {
    /// The first sequence number of a stream.
    pub const ZERO: SeqNo = SeqNo(0);

    /// Creates a sequence number from its raw value.
    pub fn new(value: u64) -> Self {
        SeqNo(value)
    }

    /// Raw integer value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The next sequence number.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0.wrapping_add(1))
    }

    /// Returns `self` advanced by `n`.
    #[must_use]
    pub fn advance(self, n: u64) -> SeqNo {
        SeqNo(self.0.wrapping_add(n))
    }

    /// Number of sequence numbers between `earlier` and `self`
    /// (`self - earlier`), saturating at zero if `earlier` is ahead.
    pub fn distance_from(self, earlier: SeqNo) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for SeqNo {
    fn from(value: u64) -> Self {
        SeqNo(value)
    }
}

impl From<SeqNo> for u64 {
    fn from(seq: SeqNo) -> u64 {
        seq.0
    }
}

/// Identifies one logical data stream handled by a proxy (a proxy may carry
/// several streams, each with its own filter chain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// Creates a stream identifier from its raw value.
    pub fn new(value: u32) -> Self {
        StreamId(value)
    }

    /// Raw integer value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream-{}", self.0)
    }
}

impl From<u32> for StreamId {
    fn from(value: u32) -> Self {
        StreamId(value)
    }
}

/// Identifies one FEC block: a group of `k` consecutive source packets plus
/// the `n - k` parity packets computed over them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u64);

impl BlockId {
    /// Creates a block identifier from its raw value.
    pub fn new(value: u64) -> Self {
        BlockId(value)
    }

    /// Raw integer value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The next block identifier.
    #[must_use]
    pub fn next(self) -> BlockId {
        BlockId(self.0.wrapping_add(1))
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block-{}", self.0)
    }
}

impl From<u64> for BlockId {
    fn from(value: u64) -> Self {
        BlockId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqno_ordering_and_arithmetic() {
        let a = SeqNo::new(10);
        assert!(a < a.next());
        assert_eq!(a.next().value(), 11);
        assert_eq!(a.advance(5).value(), 15);
        assert_eq!(a.advance(5).distance_from(a), 5);
        assert_eq!(a.distance_from(a.advance(5)), 0);
    }

    #[test]
    fn seqno_conversions() {
        let s: SeqNo = 7u64.into();
        let v: u64 = s.into();
        assert_eq!(v, 7);
        assert_eq!(SeqNo::ZERO.value(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SeqNo::new(3).to_string(), "#3");
        assert_eq!(StreamId::new(2).to_string(), "stream-2");
        assert_eq!(BlockId::new(9).to_string(), "block-9");
    }

    #[test]
    fn block_id_next() {
        assert_eq!(BlockId::new(1).next(), BlockId::new(2));
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; the test documents the intent.
        fn takes_seq(_: SeqNo) {}
        takes_seq(SeqNo::new(1));
    }
}
