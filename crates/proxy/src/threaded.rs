//! The threaded chain runtime: thread-per-filter, detachable pipes between
//! stages, live splicing.
//!
//! This is the faithful port of the paper's architecture (Figure 4): each
//! filter owns a thread that reads from its `DetachableInputStream` and
//! writes to its `DetachableOutputStream`; a control thread manages the
//! filter vector and splices filters in and out of the running stream with
//! the pause → reconnect protocol; `EndPoint`s (here: the chain's input
//! sender and output receiver) carry the stream in and out of the proxy.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use rapidware_filters::{Filter, FilterOutput};
use rapidware_packet::Packet;
use rapidware_streams::{
    detached_pair, pipe, DetachableReceiver, DetachableSender, RecvError,
};

use crate::error::ProxyError;

/// Default per-pipe buffer capacity (packets) between stages.
const DEFAULT_PIPE_CAPACITY: usize = 128;

/// Counters describing a running [`ThreadedChain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Number of filters currently installed.
    pub filters: usize,
    /// Packets accepted at the chain input so far.
    pub packets_in: u64,
    /// Packets delivered at the chain output so far.
    pub packets_out: u64,
    /// Number of completed splice operations (inserts + removals).
    pub splices: u64,
    /// Packets dropped because a filter reported an error.
    pub filter_errors: u64,
}

/// Adapter that lets a filter write into a detachable sender.
struct SenderOutput<'a> {
    sender: &'a DetachableSender<Packet>,
}

impl FilterOutput for SenderOutput<'_> {
    fn emit(&mut self, packet: Packet) {
        // If the downstream receiver has been closed the chain is shutting
        // down; dropping the packet is the only sensible behaviour.
        let _ = self.sender.send(packet);
    }
}

struct Stage {
    name: String,
    in_rx: DetachableReceiver<Packet>,
    out_tx: DetachableSender<Packet>,
    worker: Option<JoinHandle<Box<dyn Filter>>>,
}

impl fmt::Debug for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stage").field("name", &self.name).finish()
    }
}

struct ChainInner {
    stages: Vec<Stage>,
    closed: bool,
    splices: u64,
}

/// A thread-per-filter proxy chain supporting live reconfiguration.
///
/// The chain is created as a "null proxy" (input wired directly to output);
/// [`insert`](Self::insert) and [`remove`](Self::remove) splice filters in
/// and out while data flows.
pub struct ThreadedChain {
    inner: Mutex<ChainInner>,
    head_tx: DetachableSender<Packet>,
    tail_rx: DetachableReceiver<Packet>,
    capacity: usize,
    batch_size: usize,
    errors: Arc<AtomicU64>,
}

impl fmt::Debug for ThreadedChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ThreadedChain")
            .field("filters", &inner.stages.len())
            .field("closed", &inner.closed)
            .finish()
    }
}

impl ThreadedChain {
    /// Creates a null proxy chain with the default pipe capacity.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` so that future resource
    /// acquisition (e.g. socket endpoints) does not break the signature.
    pub fn new() -> Result<Self, ProxyError> {
        Self::with_capacity(DEFAULT_PIPE_CAPACITY)
    }

    /// Creates a null proxy chain whose inter-stage pipes buffer up to
    /// `capacity` packets.
    ///
    /// # Errors
    ///
    /// Currently infallible (see [`new`](Self::new)).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Result<Self, ProxyError> {
        Self::with_batch_size(capacity, 1)
    }

    /// Creates a null proxy chain whose filter workers drain up to
    /// `batch_size` packets from their input pipe per wake-up and hand them
    /// to [`Filter::process_batch`] as one batch.
    ///
    /// With `batch_size == 1` every packet is processed individually (the
    /// behaviour of [`new`](Self::new)); larger batches amortise pipe
    /// locking, cross-thread wake-ups, and per-packet filter dispatch over
    /// the whole batch, which is what makes the chain keep up with heavy
    /// multi-receiver traffic.  Batching never reorders packets; the only
    /// observable difference is error granularity — a filter error drops
    /// the remainder of that filter's current batch (and counts once),
    /// instead of dropping a single packet.
    ///
    /// ```
    /// use rapidware_filters::{FecDecoderFilter, FecEncoderFilter};
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    /// use rapidware_proxy::ThreadedChain;
    ///
    /// # fn main() -> Result<(), rapidware_proxy::ProxyError> {
    /// // FEC(6,4) encode → decode with 32-packet batches per stage.
    /// let chain = ThreadedChain::with_batch_size(128, 32)?;
    /// chain.push_back(Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")))?;
    /// chain.push_back(Box::new(FecDecoderFilter::fec_6_4().expect("valid (n, k)")))?;
    ///
    /// let input = chain.input();
    /// let output = chain.output();
    /// for seq in 0..64u64 {
    ///     let packet =
    ///         Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 64]);
    ///     input.send(packet).expect("chain accepts packets");
    /// }
    /// chain.close_input();
    /// let delivered: Vec<Packet> = output.into_iter().collect();
    /// assert_eq!(delivered.len(), 64, "lossless link: parities absorbed");
    /// chain.shutdown()?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Currently infallible (see [`new`](Self::new)).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch_size` is zero.
    pub fn with_batch_size(capacity: usize, batch_size: usize) -> Result<Self, ProxyError> {
        assert!(batch_size > 0, "batch size must be non-zero");
        let (head_tx, tail_rx) = pipe::<Packet>(capacity);
        Ok(Self {
            inner: Mutex::new(ChainInner {
                stages: Vec::new(),
                closed: false,
                splices: 0,
            }),
            head_tx,
            tail_rx,
            capacity,
            batch_size,
            errors: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The per-stage batch size this chain was configured with.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// A handle for pushing packets into the chain (an input `EndPoint`).
    pub fn input(&self) -> DetachableSender<Packet> {
        self.head_tx.clone()
    }

    /// A handle for reading packets out of the chain (an output `EndPoint`).
    pub fn output(&self) -> DetachableReceiver<Packet> {
        self.tail_rx.clone()
    }

    /// Closes the chain input: once in-flight packets drain, every stage
    /// flushes and the output observes end of stream.
    pub fn close_input(&self) {
        self.head_tx.close();
    }

    /// Names of the installed filters, in stream order.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().stages.iter().map(|s| s.name.clone()).collect()
    }

    /// Number of installed filters.
    pub fn len(&self) -> usize {
        self.inner.lock().stages.len()
    }

    /// Returns `true` if no filters are installed (the chain is a null
    /// proxy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current chain statistics.
    pub fn stats(&self) -> ChainStats {
        let inner = self.inner.lock();
        ChainStats {
            filters: inner.stages.len(),
            packets_in: self.head_tx.stats().items(),
            packets_out: self.tail_rx.stats().items(),
            splices: inner.splices,
            filter_errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Inserts `filter` at `position` (0 = closest to the input endpoint)
    /// while the stream is running.
    ///
    /// The upstream pipe is detached (blocking new writes for the duration
    /// of the splice), re-attached to the new filter's input, and the
    /// filter's output is attached to the old downstream receiver — the
    /// paper's `add()` operation.  No packet is lost, duplicated, or
    /// reordered by the splice: packets already buffered downstream of the
    /// insertion point are consumed before anything that flows through the
    /// new filter.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::PositionOutOfRange`] for a bad position,
    /// [`ProxyError::ChainClosed`] after shutdown, or
    /// [`ProxyError::Splice`] if the pipes could not be re-attached.
    pub fn insert(&self, position: usize, filter: Box<dyn Filter>) -> Result<(), ProxyError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(ProxyError::ChainClosed);
        }
        if position > inner.stages.len() {
            return Err(ProxyError::PositionOutOfRange {
                position,
                len: inner.stages.len(),
            });
        }
        let name = filter.name().to_string();
        let (out_tx, in_rx) = {
            let (tx, rx) = detached_pair::<Packet>(self.capacity);
            (tx, rx)
        };

        let left_tx = if position == 0 {
            self.head_tx.clone()
        } else {
            inner.stages[position - 1].out_tx.clone()
        };
        let right_rx = if position == inner.stages.len() {
            self.tail_rx.clone()
        } else {
            inner.stages[position].in_rx.clone()
        };

        // Splice: detach the upstream sender from its current receiver and
        // rewire it through the new filter.  No drain is needed for
        // correctness: packets already buffered downstream sit ahead of the
        // insertion point and are consumed before anything that now flows
        // through the new filter, so order is preserved — and the splice
        // cannot block on a slow or idle consumer.
        left_tx
            .detach()
            .map_err(|err| ProxyError::Splice(format!("detach before insert: {err}")))?;
        left_tx
            .reconnect(&in_rx)
            .map_err(|err| ProxyError::Splice(format!("attach upstream to new filter: {err}")))?;
        out_tx
            .reconnect(&right_rx)
            .map_err(|err| ProxyError::Splice(format!("attach new filter downstream: {err}")))?;

        let worker = spawn_worker(
            filter,
            in_rx.clone(),
            out_tx.clone(),
            Arc::clone(&self.errors),
            self.batch_size,
        );
        inner.stages.insert(
            position,
            Stage {
                name,
                in_rx,
                out_tx,
                worker: Some(worker),
            },
        );
        inner.splices += 1;
        Ok(())
    }

    /// Appends `filter` after the last installed filter.
    ///
    /// # Errors
    ///
    /// Same as [`insert`](Self::insert).
    pub fn push_back(&self, filter: Box<dyn Filter>) -> Result<(), ProxyError> {
        let position = self.len();
        self.insert(position, filter)
    }

    /// Removes the filter at `position` from the running stream and returns
    /// it.
    ///
    /// The filter is drained (its buffered output is flushed downstream),
    /// its thread is joined, and the surrounding pipes are re-spliced — the
    /// inverse of [`insert`](Self::insert).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::PositionOutOfRange`], [`ProxyError::ChainClosed`],
    /// [`ProxyError::Splice`], or [`ProxyError::WorkerFailed`] if the filter's
    /// thread had panicked.
    pub fn remove(&self, position: usize) -> Result<Box<dyn Filter>, ProxyError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(ProxyError::ChainClosed);
        }
        if position >= inner.stages.len() {
            return Err(ProxyError::PositionOutOfRange {
                position,
                len: inner.stages.len(),
            });
        }
        let mut stage = inner.stages.remove(position);
        let left_tx = if position == 0 {
            self.head_tx.clone()
        } else {
            inner.stages[position - 1].out_tx.clone()
        };
        let right_rx = if position == inner.stages.len() {
            self.tail_rx.clone()
        } else {
            inner.stages[position].in_rx.clone()
        };

        // 1. Stop new data from reaching the filter and drain what is there.
        left_tx
            .pause()
            .map_err(|err| ProxyError::Splice(format!("pause before remove: {err}")))?;
        // 2. Tell the worker to flush and exit (a closed receiver signals
        //    removal rather than end-of-stream).
        stage.in_rx.close();
        let filter = match stage.worker.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| ProxyError::WorkerFailed(stage.name.clone()))?,
            None => return Err(ProxyError::WorkerFailed(stage.name.clone())),
        };
        // 3. Detach the filter's output without waiting for downstream to
        //    drain (its residue is already buffered at the downstream
        //    receiver and will be consumed, in order, before anything the
        //    re-spliced upstream delivers), then close the gap.
        stage
            .out_tx
            .detach()
            .map_err(|err| ProxyError::Splice(format!("detach removed filter: {err}")))?;
        left_tx
            .reconnect(&right_rx)
            .map_err(|err| ProxyError::Splice(format!("close the gap after remove: {err}")))?;
        inner.splices += 1;
        Ok(filter)
    }

    /// Shuts the chain down: closes the input, waits for every stage to
    /// flush, and joins all worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if any worker thread panicked.
    pub fn shutdown(&self) -> Result<(), ProxyError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Ok(());
        }
        inner.closed = true;
        self.head_tx.close();
        let mut failure: Option<ProxyError> = None;
        for stage in inner.stages.iter_mut() {
            if let Some(handle) = stage.worker.take() {
                if handle.join().is_err() && failure.is_none() {
                    failure = Some(ProxyError::WorkerFailed(stage.name.clone()));
                }
            }
        }
        inner.stages.clear();
        match failure {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

impl Drop for ThreadedChain {
    fn drop(&mut self) {
        // Destructors must not fail or block indefinitely on user mistakes:
        // best-effort shutdown, ignoring worker panics.
        let _ = self.shutdown();
    }
}

/// Spawns the worker thread for one filter stage.
///
/// With `batch_size == 1` the loop receives and processes one packet at a
/// time (per-packet error isolation); with a larger batch it drains up to
/// `batch_size` buffered packets per pipe lock and hands them to
/// [`Filter::process_batch`] as one unit.
fn spawn_worker(
    mut filter: Box<dyn Filter>,
    in_rx: DetachableReceiver<Packet>,
    out_tx: DetachableSender<Packet>,
    errors: Arc<AtomicU64>,
    batch_size: usize,
) -> JoinHandle<Box<dyn Filter>> {
    std::thread::Builder::new()
        .name(format!("rapidware-filter-{}", filter.name()))
        .spawn(move || {
            loop {
                let received: Result<(), RecvError> = if batch_size > 1 {
                    in_rx.recv_up_to(batch_size).map(|batch| {
                        // Collect the filter's output and push it downstream
                        // as one batch: one pipe lock per batch on each side
                        // instead of one per packet.
                        let mut collected: Vec<Packet> = Vec::with_capacity(batch.len());
                        if filter.process_batch(batch, &mut collected).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        // A closed downstream receiver means the chain is
                        // shutting down; dropping the batch mirrors the
                        // per-packet SenderOutput behaviour.
                        let _ = out_tx.send_batch(collected);
                    })
                } else {
                    in_rx.recv().map(|packet| {
                        let mut output = SenderOutput { sender: &out_tx };
                        if filter.process(packet, &mut output).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                };
                match received {
                    Ok(()) => {}
                    Err(RecvError::Eof) => {
                        // End of stream: flush and propagate EOF downstream.
                        let mut output = SenderOutput { sender: &out_tx };
                        if filter.flush(&mut output).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        out_tx.close();
                        break;
                    }
                    Err(RecvError::Closed) => {
                        // Removal from a live chain: flush but leave the
                        // downstream pipe open (the chain re-splices it).
                        let mut output = SenderOutput { sender: &out_tx };
                        if filter.flush(&mut output).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                }
            }
            filter
        })
        .expect("spawning a filter worker thread never fails")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_filters::{
        DropEveryNth, FecDecoderFilter, FecEncoderFilter, FilterError, NullFilter, TapFilter,
    };
    use rapidware_packet::{PacketKind, SeqNo, StreamId};
    use std::time::Duration;

    fn packet(seq: u64) -> Packet {
        Packet::new(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![(seq % 251) as u8; 64],
        )
    }

    fn collect_all(rx: &DetachableReceiver<Packet>) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Ok(p) = rx.recv() {
            out.push(p);
        }
        out
    }

    #[test]
    fn null_proxy_forwards_everything_in_order() {
        let chain = ThreadedChain::new().unwrap();
        let input = chain.input();
        let output = chain.output();
        for seq in 0..100 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received = collect_all(&output);
        assert_eq!(received.len(), 100);
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64);
        }
        assert!(chain.is_empty());
        chain.shutdown().unwrap();
    }

    #[test]
    fn filters_run_on_their_own_threads_and_preserve_order() {
        let chain = ThreadedChain::new().unwrap();
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        assert_eq!(chain.len(), 3);
        let input = chain.input();
        let output = chain.output();
        let producer = std::thread::spawn(move || {
            for seq in 0..5_000u64 {
                input.send(packet(seq)).unwrap();
            }
        });
        let mut received = Vec::new();
        while received.len() < 5_000 {
            received.push(output.recv().unwrap());
        }
        producer.join().unwrap();
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64);
        }
        chain.shutdown().unwrap();
    }

    #[test]
    fn insert_into_running_stream_loses_nothing() {
        let chain = ThreadedChain::with_capacity(8).unwrap();
        let input = chain.input();
        let output = chain.output();
        let tap = TapFilter::new("mid-stream-tap");
        let counters = tap.counters();

        let producer = {
            let input = input.clone();
            std::thread::spawn(move || {
                for seq in 0..2_000u64 {
                    input.send(packet(seq)).unwrap();
                }
            })
        };
        // Consume the head of the stream on this thread; with an 8-packet
        // pipe the producer cannot run far ahead, so the upcoming splice is
        // guaranteed to happen mid-stream.
        let mut received = Vec::new();
        for _ in 0..100 {
            received.push(output.recv().unwrap());
        }
        // A background consumer keeps draining so the splice's drain phase
        // can complete while this thread performs the insert.
        let consumer = {
            let output = output.clone();
            std::thread::spawn(move || collect_all(&output))
        };
        chain.insert(0, Box::new(tap)).unwrap();
        producer.join().unwrap();
        chain.close_input();
        received.extend(consumer.join().unwrap());

        assert_eq!(received.len(), 2_000, "no packet lost or duplicated");
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64, "order preserved");
        }
        // The tap only saw the packets sent after the splice.
        assert!(counters.packets() > 0);
        assert!(counters.packets() <= 1_920);
        assert_eq!(chain.stats().splices, 1);
        chain.shutdown().unwrap();
    }

    #[test]
    fn remove_from_running_stream_returns_filter_and_keeps_data_flowing() {
        let chain = ThreadedChain::with_capacity(8).unwrap();
        chain.push_back(Box::new(TapFilter::new("t0"))).unwrap();
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        let input = chain.input();
        let output = chain.output();
        let consumer = {
            let output = output.clone();
            std::thread::spawn(move || collect_all(&output))
        };
        let producer = {
            let input = input.clone();
            std::thread::spawn(move || {
                for seq in 0..1_000u64 {
                    input.send(packet(seq)).unwrap();
                }
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        let removed = chain.remove(0).unwrap();
        assert_eq!(removed.name(), "t0");
        assert_eq!(chain.names(), vec!["null"]);
        producer.join().unwrap();
        chain.close_input();
        let received = consumer.join().unwrap();
        assert_eq!(received.len(), 1_000);
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64);
        }
        chain.shutdown().unwrap();
    }

    #[test]
    fn fec_encode_decode_across_a_lossy_stage_recovers_packets() {
        // encoder -> deterministic dropper -> decoder, all on live threads.
        let chain = ThreadedChain::new().unwrap();
        chain
            .push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap()))
            .unwrap();
        chain.push_back(Box::new(DropEveryNth::new(5))).unwrap();
        chain
            .push_back(Box::new(FecDecoderFilter::fec_6_4().unwrap()))
            .unwrap();
        let input = chain.input();
        let output = chain.output();
        let consumer = std::thread::spawn(move || collect_all(&output));
        for seq in 0..400u64 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received = consumer.join().unwrap();
        // Every 5th payload packet was dropped but FEC(6,4) repairs one loss
        // per block of 4, so nearly everything should be present.
        let mut seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert!(
            seqs.len() >= 395,
            "expected near-complete recovery, got {} of 400",
            seqs.len()
        );
        chain.shutdown().unwrap();
    }

    #[test]
    fn remove_with_unconsumed_output_does_not_block() {
        // A filter whose flush produces residue (the FEC encoder with a
        // partial block) is removed while nothing is reading the chain
        // output.  Removal must not deadlock waiting for the output buffer
        // to drain; the residue stays queued and is read afterwards.
        let chain = ThreadedChain::new().unwrap();
        chain
            .push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap()))
            .unwrap();
        let input = chain.input();
        let output = chain.output();
        input.send(packet(0)).unwrap();
        // Consume the forwarded source packet but leave any residue alone.
        assert_eq!(output.recv().unwrap().seq().value(), 0);

        let removed = chain.remove(0).unwrap();
        assert_eq!(removed.name(), "fec-encoder(6,4)");
        // The flush residue (two parity packets for the padded block) is
        // still available at the output, followed by post-removal traffic.
        input.send(packet(1)).unwrap();
        chain.close_input();
        let rest = collect_all(&output);
        let parity = rest.iter().filter(|p| p.kind().is_parity()).count();
        let payload: Vec<u64> = rest
            .iter()
            .filter(|p| p.kind().is_payload())
            .map(|p| p.seq().value())
            .collect();
        assert_eq!(parity, 2);
        assert_eq!(payload, vec![1]);
        chain.shutdown().unwrap();
    }

    #[test]
    fn batched_chain_preserves_order() {
        let chain = ThreadedChain::with_batch_size(64, 16).unwrap();
        assert_eq!(chain.batch_size(), 16);
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        chain.push_back(Box::new(TapFilter::new("batched-tap"))).unwrap();
        let input = chain.input();
        let output = chain.output();
        let producer = std::thread::spawn(move || {
            for seq in 0..5_000u64 {
                input.send(packet(seq)).unwrap();
            }
        });
        let mut received = Vec::new();
        while received.len() < 5_000 {
            received.push(output.recv().unwrap());
        }
        producer.join().unwrap();
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64);
        }
        chain.shutdown().unwrap();
    }

    #[test]
    fn batched_fec_chain_recovers_like_per_packet() {
        // The same lossy encode → drop → decode pipeline as the per-packet
        // test, but with 32-packet batches at every stage.
        let chain = ThreadedChain::with_batch_size(128, 32).unwrap();
        assert_eq!(chain.batch_size(), 32);
        chain
            .push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap()))
            .unwrap();
        chain.push_back(Box::new(DropEveryNth::new(5))).unwrap();
        chain
            .push_back(Box::new(FecDecoderFilter::fec_6_4().unwrap()))
            .unwrap();
        let input = chain.input();
        let output = chain.output();
        let consumer = std::thread::spawn(move || collect_all(&output));
        for seq in 0..400u64 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received = consumer.join().unwrap();
        let mut seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert!(
            seqs.len() >= 395,
            "expected near-complete recovery, got {} of 400",
            seqs.len()
        );
        chain.shutdown().unwrap();
    }

    #[test]
    fn splice_into_batched_chain_loses_nothing() {
        let chain = ThreadedChain::with_batch_size(8, 4).unwrap();
        let input = chain.input();
        let output = chain.output();
        let producer = {
            let input = input.clone();
            std::thread::spawn(move || {
                for seq in 0..2_000u64 {
                    input.send(packet(seq)).unwrap();
                }
            })
        };
        let mut received = Vec::new();
        for _ in 0..100 {
            received.push(output.recv().unwrap());
        }
        let consumer = {
            let output = output.clone();
            std::thread::spawn(move || collect_all(&output))
        };
        chain.insert(0, Box::new(NullFilter::new())).unwrap();
        producer.join().unwrap();
        chain.close_input();
        received.extend(consumer.join().unwrap());
        assert_eq!(received.len(), 2_000, "no packet lost or duplicated");
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64, "order preserved");
        }
        chain.shutdown().unwrap();
    }

    #[test]
    fn position_validation() {
        let chain = ThreadedChain::new().unwrap();
        assert!(matches!(
            chain.insert(1, Box::new(NullFilter::new())),
            Err(ProxyError::PositionOutOfRange { .. })
        ));
        assert!(matches!(
            chain.remove(0),
            Err(ProxyError::PositionOutOfRange { .. })
        ));
        chain.shutdown().unwrap();
    }

    #[test]
    fn operations_after_shutdown_are_rejected() {
        let chain = ThreadedChain::new().unwrap();
        chain.shutdown().unwrap();
        assert!(matches!(
            chain.insert(0, Box::new(NullFilter::new())),
            Err(ProxyError::ChainClosed)
        ));
        assert!(matches!(chain.remove(0), Err(ProxyError::ChainClosed)));
        // Shutdown is idempotent.
        chain.shutdown().unwrap();
    }

    #[test]
    fn filter_errors_are_counted_not_fatal() {
        struct Failing;
        impl Filter for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn process(
                &mut self,
                packet: Packet,
                out: &mut dyn FilterOutput,
            ) -> Result<(), FilterError> {
                if packet.seq().value().is_multiple_of(2) {
                    Err(FilterError::Internal("simulated failure".into()))
                } else {
                    out.emit(packet);
                    Ok(())
                }
            }
        }
        let chain = ThreadedChain::new().unwrap();
        chain.push_back(Box::new(Failing)).unwrap();
        let input = chain.input();
        let output = chain.output();
        for seq in 0..10 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received = collect_all(&output);
        assert_eq!(received.len(), 5);
        assert_eq!(chain.stats().filter_errors, 5);
        chain.shutdown().unwrap();
    }

    #[test]
    fn stats_report_progress() {
        let chain = ThreadedChain::new().unwrap();
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        let input = chain.input();
        let output = chain.output();
        for seq in 0..10 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received = collect_all(&output);
        assert_eq!(received.len(), 10);
        let stats = chain.stats();
        assert_eq!(stats.filters, 1);
        assert_eq!(stats.packets_in, 10);
        assert_eq!(stats.packets_out, 10);
        assert!(!format!("{chain:?}").is_empty());
        chain.shutdown().unwrap();
    }
}
