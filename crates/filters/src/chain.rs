//! The dynamically reconfigurable filter chain.
//!
//! `FilterChain` is the data-plane half of the paper's `ControlThread`: an
//! ordered vector of filters through which every packet of a stream flows,
//! supporting insertion, removal, replacement, and reordering *while the
//! stream is running*.  The synchronous chain here is deterministic (used by
//! the simulator and the benchmarks); the threaded proxy runtime in
//! `rapidware-proxy` applies the same operations to thread-per-filter chains
//! connected by detachable pipes.

use std::fmt;
use std::sync::Arc;

use rapidware_packet::Packet;
use rapidware_telemetry::now_ns;

use crate::error::FilterError;
use crate::filter::{Filter, FilterDescriptor, InsertionPoint};
use crate::telemetry::ChainSpans;

struct PendingInsertion {
    position: usize,
    filter: Box<dyn Filter>,
}

/// An ordered, runtime-reconfigurable sequence of filters.
pub struct FilterChain {
    filters: Vec<Box<dyn Filter>>,
    pending: Vec<PendingInsertion>,
    packets_in: u64,
    packets_out: u64,
    spans: Option<Arc<ChainSpans>>,
}

impl Default for FilterChain {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for FilterChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterChain")
            .field("filters", &self.names())
            .field("pending", &self.pending.len())
            .field("packets_in", &self.packets_in)
            .field("packets_out", &self.packets_out)
            .finish()
    }
}

impl FilterChain {
    /// Creates an empty chain (a "null proxy": packets pass through
    /// unchanged).
    pub fn new() -> Self {
        Self {
            filters: Vec::new(),
            pending: Vec::new(),
            packets_in: 0,
            packets_out: 0,
            spans: None,
        }
    }

    /// Attaches latency spans: incoming packets are ingress-stamped, every
    /// batch records its chain-processing duration, per-filter stage
    /// timings are sampled 1-in-N, and — when `spans` was built with
    /// [`ChainSpans::egress`] — each packet records its end-to-end latency
    /// as it leaves the chain.  A chain without spans (the default) takes
    /// no clock readings at all.
    pub fn set_spans(&mut self, spans: Arc<ChainSpans>) {
        self.spans = Some(spans);
    }

    /// The attached latency spans, if any.
    pub fn spans(&self) -> Option<&Arc<ChainSpans>> {
        self.spans.as_ref()
    }

    /// Number of active filters (excluding deferred insertions).
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Returns `true` if the chain has no active filters.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Number of insertions waiting for a frame boundary.
    pub fn pending_insertions(&self) -> usize {
        self.pending.len()
    }

    /// Names of the active filters, in order.
    pub fn names(&self) -> Vec<String> {
        self.filters.iter().map(|f| f.name().to_string()).collect()
    }

    /// Descriptors of the active filters, in order (what the control manager
    /// displays).
    pub fn descriptors(&self) -> Vec<FilterDescriptor> {
        self.filters.iter().map(|f| f.descriptor()).collect()
    }

    /// Total packets accepted by the chain so far.
    pub fn packets_in(&self) -> u64 {
        self.packets_in
    }

    /// Total packets emitted by the chain so far.
    pub fn packets_out(&self) -> u64 {
        self.packets_out
    }

    /// Appends a filter at the end of the chain.
    ///
    /// # Errors
    ///
    /// Never fails today; returns `Result` for interface stability with
    /// [`insert`](Self::insert).
    pub fn push_back(&mut self, filter: Box<dyn Filter>) -> Result<(), FilterError> {
        let position = self.filters.len();
        self.insert(position, filter)
    }

    /// Inserts a filter at `position` (0 = closest to the stream source).
    ///
    /// Filters whose [`InsertionPoint`] is `FrameBoundary` are not activated
    /// immediately: the insertion is deferred until the next packet that is
    /// an insertion boundary reaches the chain, so the filter never sees a
    /// partial frame.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::IndexOutOfRange`] if `position > len()`.
    pub fn insert(&mut self, position: usize, filter: Box<dyn Filter>) -> Result<(), FilterError> {
        if position > self.filters.len() {
            return Err(FilterError::IndexOutOfRange {
                index: position,
                len: self.filters.len(),
            });
        }
        match filter.insertion_point() {
            InsertionPoint::Anywhere => self.filters.insert(position, filter),
            InsertionPoint::FrameBoundary => self.pending.push(PendingInsertion { position, filter }),
        }
        Ok(())
    }

    /// Removes the filter at `position`, flushing any data it had buffered
    /// through the rest of the chain.
    ///
    /// Returns the removed filter together with the packets produced by the
    /// flush (already processed by the downstream filters), which the caller
    /// must forward so no data is lost.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::IndexOutOfRange`] if `position >= len()`.
    pub fn remove(
        &mut self,
        position: usize,
    ) -> Result<(Box<dyn Filter>, Vec<Packet>), FilterError> {
        if position >= self.filters.len() {
            return Err(FilterError::IndexOutOfRange {
                index: position,
                len: self.filters.len(),
            });
        }
        let mut filter = self.filters.remove(position);
        // Flush the removed filter, then run its residue through the filters
        // that now occupy positions `position..`.
        let mut flushed: Vec<Packet> = Vec::new();
        filter.flush(&mut flushed)?;
        let forwarded = self.run_from(position, flushed)?;
        self.packets_out += forwarded.len() as u64;
        Ok((filter, forwarded))
    }

    /// Replaces the filter at `position`, returning the old filter and any
    /// packets flushed out of it.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::IndexOutOfRange`] if `position >= len()`.
    pub fn replace(
        &mut self,
        position: usize,
        filter: Box<dyn Filter>,
    ) -> Result<(Box<dyn Filter>, Vec<Packet>), FilterError> {
        let (old, flushed) = self.remove(position)?;
        self.insert(position, filter)?;
        Ok((old, flushed))
    }

    /// Moves the filter at `from` to position `to`.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::IndexOutOfRange`] if either index is out of
    /// range.
    pub fn move_filter(&mut self, from: usize, to: usize) -> Result<(), FilterError> {
        if from >= self.filters.len() || to >= self.filters.len() {
            return Err(FilterError::IndexOutOfRange {
                index: from.max(to),
                len: self.filters.len(),
            });
        }
        let filter = self.filters.remove(from);
        self.filters.insert(to, filter);
        Ok(())
    }

    /// Immutable access to the filter at `position`.
    pub fn get(&self, position: usize) -> Option<&dyn Filter> {
        self.filters.get(position).map(AsRef::as_ref)
    }

    /// Processes one packet through the whole chain, returning the packets
    /// that emerge at the far end.
    ///
    /// Deferred insertions are applied first if this packet is an insertion
    /// boundary.
    ///
    /// # Errors
    ///
    /// Propagates the first filter error encountered.
    pub fn process(&mut self, mut packet: Packet) -> Result<Vec<Packet>, FilterError> {
        let span = self.spans.as_ref().map(|spans| {
            let now = now_ns();
            packet.stamp_ingress_ns(now);
            (Arc::clone(spans), now)
        });
        self.packets_in += 1;
        if !self.pending.is_empty() && packet.is_insertion_boundary() {
            self.apply_pending();
        }
        let out = self.run_from(0, vec![packet])?;
        self.packets_out += out.len() as u64;
        if let Some((spans, start)) = span {
            record_exit(&spans, start, &out);
        }
        Ok(out)
    }

    /// Processes a batch of packets, concatenating the outputs.
    ///
    /// # Errors
    ///
    /// Propagates the first filter error encountered.
    pub fn process_all(
        &mut self,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Result<Vec<Packet>, FilterError> {
        let mut out = Vec::new();
        for packet in packets {
            out.extend(self.process(packet)?);
        }
        Ok(out)
    }

    /// Processes a whole batch through the chain, returning everything that
    /// emerges at the far end.
    ///
    /// This is the batched data plane's entry point: instead of threading
    /// each packet through every filter individually (one intermediate
    /// `Vec` per filter *per packet*), the batch flows level by level —
    /// each filter's [`Filter::process_batch`] consumes the whole batch and
    /// emits into a single output buffer, so per-packet dispatch and
    /// allocation are amortised across the batch.
    ///
    /// The output is exactly what the same packets fed one at a time
    /// through [`process`](Self::process) would produce, including the
    /// frame-boundary handling of deferred insertions: when insertions are
    /// pending, the batch is split at each insertion boundary and the
    /// pending filters are activated before the boundary packet is
    /// processed.
    ///
    /// ```
    /// use rapidware_filters::{FecEncoderFilter, FilterChain};
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// # fn main() -> Result<(), rapidware_filters::FilterError> {
    /// let mut chain = FilterChain::new();
    /// chain.push_back(Box::new(FecEncoderFilter::fec_6_4()?))?;
    ///
    /// let batch: Vec<Packet> = (0..8u64)
    ///     .map(|seq| Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 64]))
    ///     .collect();
    /// let out = chain.process_batch(batch)?;
    /// // 8 sources plus two blocks' worth of FEC(6,4) parities.
    /// assert_eq!(out.len(), 12);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first filter error encountered; the remainder of the
    /// batch is not processed (and does not count towards
    /// [`packets_in`](Self::packets_in)).
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Result<Vec<Packet>, FilterError> {
        let mut output: Vec<Packet> = Vec::with_capacity(packets.len());
        self.process_batch_into(packets, &mut output)?;
        Ok(output)
    }

    /// Like [`process_batch`](Self::process_batch), but appends the chain's
    /// output to a caller-provided buffer instead of allocating a fresh
    /// one.
    ///
    /// This is the re-entrant stepping interface the sharded runtime uses:
    /// a pooled session task owns a persistent output buffer (its
    /// back-pressure queue towards the downstream pipe) and appends each
    /// batch's results to whatever could not be forwarded yet, so the hot
    /// loop allocates nothing when the chain is keeping up.
    ///
    /// # Errors
    ///
    /// Propagates the first filter error encountered; packets appended to
    /// `output` before the error stay appended.
    pub fn process_batch_into(
        &mut self,
        mut packets: Vec<Packet>,
        output: &mut Vec<Packet>,
    ) -> Result<(), FilterError> {
        let before = output.len();
        // One clock read stamps the whole batch: packets that crossed an
        // instrumented boundary upstream keep their original stamp (first
        // touch wins), locally injected packets start their span here.
        let span = self.spans.as_ref().map(|spans| {
            let now = now_ns();
            for packet in &mut packets {
                packet.stamp_ingress_ns(now);
            }
            (Arc::clone(spans), now)
        });
        if self.pending.is_empty() {
            self.run_batch_from(0, packets, output)?;
        } else {
            // Deferred insertions activate at frame boundaries, so the batch
            // is processed in segments: everything before a boundary flows
            // through the old chain, then the pending filters are applied.
            let mut segment: Vec<Packet> = Vec::new();
            for packet in packets {
                if !self.pending.is_empty() && packet.is_insertion_boundary() {
                    if !segment.is_empty() {
                        let chunk = std::mem::take(&mut segment);
                        self.run_batch_from(0, chunk, output)?;
                    }
                    self.apply_pending();
                }
                segment.push(packet);
            }
            if !segment.is_empty() {
                self.run_batch_from(0, segment, output)?;
            }
        }
        self.packets_out += (output.len() - before) as u64;
        if let Some((spans, start)) = span {
            record_exit(&spans, start, &output[before..]);
        }
        Ok(())
    }

    /// Runs one batch through the filters starting at `start`, appending
    /// the survivors to `output`.
    fn run_batch_from(
        &mut self,
        start: usize,
        packets: Vec<Packet>,
        output: &mut Vec<Packet>,
    ) -> Result<(), FilterError> {
        // Counted per segment (not per whole batch) so that a filter error
        // does not inflate packets_in with packets that were never offered
        // to the filters.
        self.packets_in += packets.len() as u64;
        // Per-filter timing is sampled: most batches take the untimed
        // branch and pay nothing beyond the `Option` check.
        let timing = match &self.spans {
            Some(spans) if spans.sample_stages() => Some(Arc::clone(spans)),
            _ => None,
        };
        let mut current = packets;
        for index in start..self.filters.len() {
            if current.is_empty() {
                break;
            }
            let mut next: Vec<Packet> = Vec::with_capacity(current.len());
            if let Some(spans) = &timing {
                let stage_start = now_ns();
                self.filters[index].process_batch(current, &mut next)?;
                let elapsed = now_ns().saturating_sub(stage_start);
                spans.stage_histogram(self.filters[index].name()).record(elapsed);
            } else {
                self.filters[index].process_batch(current, &mut next)?;
            }
            current = next;
        }
        output.append(&mut current);
        Ok(())
    }

    /// Flushes every filter (front to back), applying any still-pending
    /// insertions first, and returns the packets that emerge.
    ///
    /// # Errors
    ///
    /// Propagates the first filter error encountered.
    pub fn flush(&mut self) -> Result<Vec<Packet>, FilterError> {
        self.apply_pending();
        let mut carried: Vec<Packet> = Vec::new();
        let mut output: Vec<Packet> = Vec::new();
        for index in 0..self.filters.len() {
            // Packets carried from upstream flushes pass through this filter
            // first, then the filter itself is flushed.
            let mut next: Vec<Packet> = Vec::new();
            for packet in carried.drain(..) {
                self.filters[index].process(packet, &mut next)?;
            }
            self.filters[index].flush(&mut next)?;
            carried = next;
        }
        output.extend(carried);
        self.packets_out += output.len() as u64;
        Ok(output)
    }

    fn apply_pending(&mut self) {
        // Apply in request order; positions are clamped to the current
        // length so earlier insertions cannot invalidate later ones.
        let pending = std::mem::take(&mut self.pending);
        for insertion in pending {
            let position = insertion.position.min(self.filters.len());
            self.filters.insert(position, insertion.filter);
        }
    }

    /// Runs `packets` through the filters starting at `start`.
    fn run_from(&mut self, start: usize, packets: Vec<Packet>) -> Result<Vec<Packet>, FilterError> {
        let mut current = packets;
        for index in start..self.filters.len() {
            if current.is_empty() {
                break;
            }
            let mut next: Vec<Packet> = Vec::new();
            for packet in current {
                self.filters[index].process(packet, &mut next)?;
            }
            current = next;
        }
        Ok(current)
    }
}

/// Records the chain-exit instruments: the whole-batch processing duration
/// and, when the chain is an egress stage, each emitted packet's
/// end-to-end latency from its ingress stamp.  One clock read covers the
/// whole batch.
fn record_exit(spans: &ChainSpans, start_ns: u64, emitted: &[Packet]) {
    let now = now_ns();
    spans.batch_ns().record(now.saturating_sub(start_ns));
    if let Some(e2e) = spans.e2e() {
        // Packets stamped at the same upstream boundary share an ingress
        // timestamp, so a batch typically collapses into one or two runs of
        // identical latencies — record each run as a group instead of
        // paying the histogram's shard lookup and atomics per packet.
        let mut run_value = 0u64;
        let mut run_count = 0u64;
        for packet in emitted {
            let ingress = packet.ingress_ns();
            if ingress == 0 {
                continue;
            }
            let value = now.saturating_sub(ingress);
            if run_count > 0 && value == run_value {
                run_count += 1;
            } else {
                e2e.record_n(run_value, run_count);
                run_value = value;
                run_count = 1;
            }
        }
        e2e.record_n(run_value, run_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterOutput;
    use rapidware_packet::{FrameType, PacketKind, SeqNo, StreamId};

    fn audio_packet(seq: u64) -> Packet {
        Packet::new(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![seq as u8; 16],
        )
    }

    fn video_packet(seq: u64, boundary: bool) -> Packet {
        Packet::new(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::VideoFrame {
                frame: FrameType::P,
                boundary,
            },
            vec![seq as u8; 16],
        )
    }

    /// Tags packets by appending a byte to the payload; used to verify
    /// ordering of filters.
    struct Tagger {
        name: String,
        tag: u8,
    }

    impl Tagger {
        fn new(tag: u8) -> Self {
            Self {
                name: format!("tagger-{tag}"),
                tag,
            }
        }
    }

    impl Filter for Tagger {
        fn name(&self) -> &str {
            &self.name
        }

        fn process(
            &mut self,
            packet: Packet,
            out: &mut dyn FilterOutput,
        ) -> Result<(), FilterError> {
            let mut payload = packet.payload().to_vec();
            payload.push(self.tag);
            out.emit(packet.with_payload(payload));
            Ok(())
        }
    }

    /// Buffers packets and only releases them on flush.
    struct Hoarder {
        held: Vec<Packet>,
    }

    impl Filter for Hoarder {
        fn name(&self) -> &str {
            "hoarder"
        }

        fn process(
            &mut self,
            packet: Packet,
            _out: &mut dyn FilterOutput,
        ) -> Result<(), FilterError> {
            self.held.push(packet);
            Ok(())
        }

        fn flush(&mut self, out: &mut dyn FilterOutput) -> Result<(), FilterError> {
            for packet in self.held.drain(..) {
                out.emit(packet);
            }
            Ok(())
        }
    }

    /// A filter that requires a frame boundary to be inserted.
    struct BoundaryTagger(Tagger);

    impl Filter for BoundaryTagger {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn process(
            &mut self,
            packet: Packet,
            out: &mut dyn FilterOutput,
        ) -> Result<(), FilterError> {
            self.0.process(packet, out)
        }

        fn insertion_point(&self) -> InsertionPoint {
            InsertionPoint::FrameBoundary
        }
    }

    #[test]
    fn empty_chain_is_identity() {
        let mut chain = FilterChain::new();
        assert!(chain.is_empty());
        let packet = audio_packet(0);
        let out = chain.process(packet.clone()).unwrap();
        assert_eq!(out, vec![packet]);
        assert_eq!(chain.packets_in(), 1);
        assert_eq!(chain.packets_out(), 1);
    }

    #[test]
    fn filters_apply_in_order() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Tagger::new(1))).unwrap();
        chain.push_back(Box::new(Tagger::new(2))).unwrap();
        let out = chain.process(audio_packet(0)).unwrap();
        let payload = out[0].payload();
        assert_eq!(&payload[payload.len() - 2..], &[1, 2]);
        assert_eq!(chain.names(), vec!["tagger-1", "tagger-2"]);
    }

    #[test]
    fn insert_in_the_middle_changes_order() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Tagger::new(1))).unwrap();
        chain.push_back(Box::new(Tagger::new(3))).unwrap();
        chain.insert(1, Box::new(Tagger::new(2))).unwrap();
        let out = chain.process(audio_packet(0)).unwrap();
        let payload = out[0].payload();
        assert_eq!(&payload[payload.len() - 3..], &[1, 2, 3]);
    }

    #[test]
    fn insert_out_of_range_is_rejected() {
        let mut chain = FilterChain::new();
        let err = chain.insert(1, Box::new(Tagger::new(1))).unwrap_err();
        assert_eq!(err, FilterError::IndexOutOfRange { index: 1, len: 0 });
    }

    #[test]
    fn remove_flushes_buffered_data_through_downstream_filters() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Hoarder { held: Vec::new() })).unwrap();
        chain.push_back(Box::new(Tagger::new(9))).unwrap();
        // Two packets disappear into the hoarder.
        assert!(chain.process(audio_packet(0)).unwrap().is_empty());
        assert!(chain.process(audio_packet(1)).unwrap().is_empty());
        // Removing the hoarder flushes them, and they still pass the tagger.
        let (removed, flushed) = chain.remove(0).unwrap();
        assert_eq!(removed.name(), "hoarder");
        assert_eq!(flushed.len(), 2);
        for packet in &flushed {
            assert_eq!(*packet.payload().last().unwrap(), 9);
        }
        assert_eq!(chain.names(), vec!["tagger-9"]);
    }

    #[test]
    fn remove_out_of_range_is_rejected() {
        let mut chain = FilterChain::new();
        assert!(matches!(
            chain.remove(0),
            Err(FilterError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn replace_swaps_the_filter() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Tagger::new(1))).unwrap();
        let (old, _) = chain.replace(0, Box::new(Tagger::new(2))).unwrap();
        assert_eq!(old.name(), "tagger-1");
        assert_eq!(chain.names(), vec!["tagger-2"]);
    }

    #[test]
    fn move_filter_reorders() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Tagger::new(1))).unwrap();
        chain.push_back(Box::new(Tagger::new(2))).unwrap();
        chain.push_back(Box::new(Tagger::new(3))).unwrap();
        chain.move_filter(2, 0).unwrap();
        assert_eq!(chain.names(), vec!["tagger-3", "tagger-1", "tagger-2"]);
        let out = chain.process(audio_packet(0)).unwrap();
        let payload = out[0].payload();
        assert_eq!(&payload[payload.len() - 3..], &[3, 1, 2]);
        assert!(chain.move_filter(0, 5).is_err());
    }

    #[test]
    fn frame_boundary_insertion_is_deferred() {
        let mut chain = FilterChain::new();
        chain
            .insert(0, Box::new(BoundaryTagger(Tagger::new(7))))
            .unwrap();
        assert_eq!(chain.len(), 0);
        assert_eq!(chain.pending_insertions(), 1);

        // A non-boundary video packet does not trigger the insertion.
        let out = chain.process(video_packet(0, false)).unwrap();
        assert_eq!(out[0].payload().len(), 16, "filter not active yet");
        assert_eq!(chain.len(), 0);

        // The next frame boundary activates it, and the boundary packet
        // itself goes through the new filter.
        let out = chain.process(video_packet(1, true)).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(*out[0].payload().last().unwrap(), 7);
    }

    #[test]
    fn flush_applies_pending_and_drains_buffers() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Hoarder { held: Vec::new() })).unwrap();
        chain.process(audio_packet(0)).unwrap();
        chain.process(audio_packet(1)).unwrap();
        let out = chain.flush().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq().value(), 0);
        assert_eq!(out[1].seq().value(), 1);
    }

    #[test]
    fn process_all_concatenates_outputs() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Tagger::new(1))).unwrap();
        let packets: Vec<Packet> = (0..5).map(audio_packet).collect();
        let out = chain.process_all(packets).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(chain.packets_in(), 5);
        assert_eq!(chain.packets_out(), 5);
    }

    #[test]
    fn crypto_stage_counters_taken_before_the_push_count_the_chains_work() {
        use crate::{DecryptFilter, EncryptFilter, FilterCounters, SecureChannelSnapshot};
        let (encrypt, decrypt) = (EncryptFilter::new(0xFEED), DecryptFilter::new(0xFEED));
        let counters = [encrypt.counters(), decrypt.counters()];
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(encrypt)).unwrap();
        chain.push_back(Box::new(decrypt)).unwrap();
        let secure = || {
            let mut total = SecureChannelSnapshot::default();
            for counters in &counters {
                let Some(FilterCounters::Secure(stats)) = counters else {
                    panic!("a crypto stage counts its secure-channel work");
                };
                total.merge(stats.snapshot());
            }
            total
        };
        assert!(secure().is_empty());
        let out = chain.process(audio_packet(0)).unwrap();
        assert_eq!(out.len(), 1);
        let snapshot = secure();
        assert_eq!(snapshot.sealed, 1);
        assert_eq!(snapshot.opened, 1);
        assert_eq!(snapshot.rejected, 0);
    }

    #[test]
    fn get_and_descriptors() {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(Tagger::new(4))).unwrap();
        assert_eq!(chain.get(0).unwrap().name(), "tagger-4");
        assert!(chain.get(1).is_none());
        assert_eq!(chain.descriptors()[0].name, "tagger-4");
        assert!(!format!("{chain:?}").is_empty());
    }
}
