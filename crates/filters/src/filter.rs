//! The [`Filter`] trait and its supporting types.

use std::fmt;
use std::sync::Arc;

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::{FecDecoderStats, SecureChannelStats};

/// Where, relative to the structure of the stream, a filter may be spliced
/// into a running chain.
///
/// The paper's example is a video FEC filter that must start "at a frame
/// boundary in the stream"; filters that operate per-packet can be inserted
/// anywhere, while block-oriented filters may prefer block boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum InsertionPoint {
    /// The filter may be inserted between any two packets.
    #[default]
    Anywhere,
    /// The filter must be inserted immediately before a packet whose
    /// [`Packet::is_insertion_boundary`] is `true` (e.g. the start of a
    /// video frame).
    FrameBoundary,
}

/// A composable proxy filter.
///
/// A filter receives packets one at a time and emits zero or more packets to
/// its output: a transcoder rewrites payloads one-for-one, an FEC encoder
/// emits extra parity packets every `k` inputs, a rate limiter drops
/// packets, a decompressor may emit several packets for one input.
///
/// Filters must be `Send` so that the proxy's runtime can step a chain on
/// whichever pool worker runs its task (the paper gives each filter a
/// thread of its own).
pub trait Filter: Send {
    /// Short, stable, human-readable name of this filter instance.
    fn name(&self) -> &str;

    /// Processes one packet, pushing what it emits onto `out`.
    ///
    /// This is a filter's only packet method.  The chain, and the proxy's
    /// runtime above it, call it once per packet of a batch with the same
    /// output buffer, so a filter keeps whatever scratch it reuses in its
    /// own state.
    ///
    /// ```
    /// use rapidware_filters::{Filter, NullFilter};
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// # fn main() -> Result<(), rapidware_filters::FilterError> {
    /// let mut filter = NullFilter::new();
    /// let mut out: Vec<Packet> = Vec::with_capacity(32);
    /// for seq in 0..32u64 {
    ///     let packet = Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 64]);
    ///     filter.process(packet, &mut out)?;
    /// }
    /// assert_eq!(out.len(), 32);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] if the packet cannot be processed; the
    /// chain treats filter errors as fatal for the offending packet but not
    /// for the stream.
    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError>;

    /// Flushes any buffered state downstream.
    ///
    /// Called at end of stream and immediately before the filter is removed
    /// from a running chain, so that no data is stranded inside the filter.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] if buffered state cannot be flushed.
    fn flush(&mut self, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        let _ = out;
        Ok(())
    }

    /// Where this filter may be spliced into a running stream.
    fn insertion_point(&self) -> InsertionPoint {
        InsertionPoint::Anywhere
    }

    /// The shared counters this filter keeps, if any.
    ///
    /// The proxy runtimes move filters onto worker tasks at insertion
    /// time, so status surfaces capture this handle *before* the move and
    /// read from it afterwards.  Filters that keep no counters return
    /// `None` (the default).
    fn counters(&self) -> Option<FilterCounters> {
        None
    }
}

/// A handle on the counters a filter shares with status surfaces.
#[derive(Debug, Clone)]
pub enum FilterCounters {
    /// Seal/open/reject/rekey counts of a secure-channel filter.
    Secure(Arc<SecureChannelStats>),
    /// Source/parity/recovery counts of an FEC decoder.
    FecDecoder(Arc<FecDecoderStats>),
}

impl fmt::Debug for dyn Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Filter({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    struct Doubler;

    impl Filter for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }

        fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
            out.push(packet.clone());
            out.push(packet);
            Ok(())
        }
    }

    #[test]
    fn vec_is_a_filter_output() {
        let mut out: Vec<Packet> = Vec::new();
        let packet = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, vec![1]);
        let mut filter = Doubler;
        filter.process(packet, &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn default_trait_methods() {
        let filter = Doubler;
        assert_eq!(filter.insertion_point(), InsertionPoint::Anywhere);
        assert!(filter.counters().is_none());
        let mut out: Vec<Packet> = Vec::new();
        let mut filter = Doubler;
        filter.flush(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn dyn_filter_debug() {
        let filter: Box<dyn Filter> = Box::new(Doubler);
        assert_eq!(format!("{filter:?}"), "Filter(doubler)");
    }

    #[test]
    fn insertion_point_default() {
        assert_eq!(InsertionPoint::default(), InsertionPoint::Anywhere);
    }
}
