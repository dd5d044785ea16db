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

/// Description of a filter instance, reported to the control manager when it
/// queries a proxy for its current configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterDescriptor {
    /// The filter's unique-enough display name (e.g. `fec-encoder(6,4)`).
    pub name: String,
    /// The general kind of filter (e.g. `fec-encoder`).
    pub kind: String,
    /// Human-readable parameter summary.
    pub parameters: String,
}

impl fmt::Display for FilterDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parameters.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{} [{}]", self.name, self.parameters)
        }
    }
}

/// The downstream side of a filter: where processed packets go.
///
/// In the chain the output is simply a `Vec<Packet>` (the proxy's runtime
/// runs the same chain and hands the batch to the next pipe afterwards).
pub trait FilterOutput {
    /// Emits one packet downstream.
    fn emit(&mut self, packet: Packet);
}

impl FilterOutput for Vec<Packet> {
    fn emit(&mut self, packet: Packet) {
        self.push(packet);
    }
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

    /// Processes one packet.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] if the packet cannot be processed; the
    /// chain treats filter errors as fatal for the offending packet but not
    /// for the stream.
    fn process(&mut self, packet: Packet, out: &mut dyn FilterOutput) -> Result<(), FilterError>;

    /// Processes a batch of packets in order.
    ///
    /// This is the hot path of the batched data plane: the synchronous
    /// [`FilterChain`](crate::FilterChain), which the proxy's runtime runs,
    /// hands a filter a whole batch at a time so that per-packet dispatch,
    /// queue locking, and allocation are amortised across the batch.  The
    /// default implementation simply loops over [`process`](Self::process),
    /// so implementing `process` alone is always correct; hot filters
    /// override this to reuse scratch buffers or coalesce counter updates.
    ///
    /// **Contract:** for any packet sequence, `process_batch` must emit
    /// exactly what the equivalent sequence of `process` calls would emit,
    /// in the same order (the batch/serial parity property tests assert
    /// this for every built-in filter).
    ///
    /// ```
    /// use rapidware_filters::{Filter, NullFilter};
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// # fn main() -> Result<(), rapidware_filters::FilterError> {
    /// let batch: Vec<Packet> = (0..32u64)
    ///     .map(|seq| Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 64]))
    ///     .collect();
    ///
    /// let mut filter = NullFilter::new();
    /// let mut out: Vec<Packet> = Vec::with_capacity(batch.len());
    /// filter.process_batch(batch, &mut out)?;
    /// assert_eq!(out.len(), 32);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first [`FilterError`] encountered; packets already
    /// emitted downstream stay emitted, and the remainder of the batch is
    /// not processed.
    fn process_batch(
        &mut self,
        packets: Vec<Packet>,
        out: &mut dyn FilterOutput,
    ) -> Result<(), FilterError> {
        for packet in packets {
            self.process(packet, out)?;
        }
        Ok(())
    }

    /// Flushes any buffered state downstream.
    ///
    /// Called at end of stream and immediately before the filter is removed
    /// from a running chain, so that no data is stranded inside the filter.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] if buffered state cannot be flushed.
    fn flush(&mut self, out: &mut dyn FilterOutput) -> Result<(), FilterError> {
        let _ = out;
        Ok(())
    }

    /// Where this filter may be spliced into a running stream.
    fn insertion_point(&self) -> InsertionPoint {
        InsertionPoint::Anywhere
    }

    /// A structured description of this filter for management tooling.
    fn descriptor(&self) -> FilterDescriptor {
        FilterDescriptor {
            name: self.name().to_string(),
            kind: self.name().split('(').next().unwrap_or(self.name()).to_string(),
            parameters: String::new(),
        }
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

        fn process(
            &mut self,
            packet: Packet,
            out: &mut dyn FilterOutput,
        ) -> Result<(), FilterError> {
            out.emit(packet.clone());
            out.emit(packet);
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
        let descriptor = filter.descriptor();
        assert_eq!(descriptor.name, "doubler");
        assert_eq!(descriptor.kind, "doubler");
        assert_eq!(descriptor.to_string(), "doubler");
        let mut out: Vec<Packet> = Vec::new();
        let mut filter = Doubler;
        filter.flush(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn descriptor_display_with_parameters() {
        let descriptor = FilterDescriptor {
            name: "fec-encoder(6,4)".to_string(),
            kind: "fec-encoder".to_string(),
            parameters: "n=6, k=4".to_string(),
        };
        assert_eq!(descriptor.to_string(), "fec-encoder(6,4) [n=6, k=4]");
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
