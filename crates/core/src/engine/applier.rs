//! Appliers: where adaptation actions land.
//!
//! The [`AdaptationEngine`](rapidware_raplets::AdaptationEngine) emits
//! [`AdaptationAction`]s without touching any chain; an [`ActionApplier`]
//! owns a concrete chain implementation and applies them.  Two appliers are
//! provided, and a scenario must behave identically on both:
//!
//! * [`SyncChainApplier`] — the deterministic, synchronous
//!   [`FilterChain`] used by simulations and benchmarks.
//! * [`RuntimeApplier`] — a live [`Proxy`] stream running as a task on the
//!   proxy's worker pool, reconfigured through the proxy's control surface
//!   while packets flow.
//!
//! The live applier stays deterministic by quiescing the pipeline at every
//! step: after pushing a window of packets (or applying actions that flush
//! residue), it sends a [`PacketKind::Control`] marker and drains the chain
//! output until the marker emerges.  Every built-in filter passes control
//! packets through untouched and the task path is FIFO, so everything the
//! window produced is collected, in order, before the engine moves on.

use std::sync::Arc;

use rapidware_filters::{ChainSpans, FilterChain};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{FilterRegistry, Proxy, Registry, RuntimeConfig};
use rapidware_raplets::{apply_to_proxy, AdaptationAction};
use rapidware_streams::{DetachableReceiver, DetachableSender};

use super::report::LatencySummary;

/// Stream id reserved for quiescence markers so they can never collide with
/// media traffic.
pub(super) fn marker_stream() -> StreamId {
    StreamId::new(u32::MAX)
}

/// A chain implementation that adaptation actions can be applied to.
///
/// `process` and `apply` both return the packets the chain emitted so the
/// scenario engine can put them on the air; implementations must preserve
/// packet order and must be deterministic for a given input sequence.
pub trait ActionApplier {
    /// Short label for reports (`"sync"` / `"pooled"`).
    fn label(&self) -> &'static str;

    /// Pushes one window of source packets through the chain and returns
    /// everything the chain emitted for them, in order.
    fn process(&mut self, packets: Vec<Packet>) -> Vec<Packet>;

    /// Applies adaptation actions, returning any residue flushed out of
    /// removed or replaced filters (the caller must transmit it).
    fn apply(&mut self, actions: &[AdaptationAction]) -> Vec<Packet>;

    /// Names of the currently installed filters, in stream order.
    fn installed_filters(&self) -> Vec<String>;

    /// Ends the stream: flushes every filter and returns the tail residue
    /// (e.g. parity for a partial FEC block).  The applier must not be used
    /// afterwards.
    fn finish(&mut self) -> Vec<Packet>;

    /// End-to-end latency percentiles observed by the applier's telemetry
    /// spans, or `None` for appliers without instrumentation.  Purely
    /// observational — latency never participates in report equality.
    fn latency(&self) -> Option<LatencySummary> {
        None
    }
}

/// Applies adaptation actions to a synchronous [`FilterChain`], returning
/// any packets flushed out of removed filters (the caller must forward
/// them).
///
/// `RemoveKind`/`ReplaceKind` resolve positions by matching the kind prefix
/// of installed filter names (names are `kind(parameters)` by convention);
/// a remove of a kind that is not installed is a no-op and a replace of a
/// missing kind falls back to an insert at the head.
///
/// # Panics
///
/// Panics if an action names a filter kind the registry cannot instantiate
/// (responder specs are expected to reference registered kinds).
pub fn apply_actions_to_chain(
    chain: &mut FilterChain,
    registry: &FilterRegistry,
    actions: &[AdaptationAction],
) -> Vec<Packet> {
    let mut flushed = Vec::new();
    for action in actions {
        match action {
            AdaptationAction::Insert { position, spec } => {
                let filter = registry
                    .instantiate(spec)
                    .expect("responder specs reference registered kinds");
                let position = (*position).min(chain.len());
                chain
                    .insert(position, filter)
                    .expect("position clamped to the chain length");
            }
            AdaptationAction::RemoveKind { kind } => {
                if let Some(position) = position_of_kind(chain, kind) {
                    let (_, residue) = chain.remove(position).expect("position from names()");
                    flushed.extend(residue);
                }
            }
            AdaptationAction::ReplaceKind { kind, spec } => {
                let filter = registry
                    .instantiate(spec)
                    .expect("responder specs reference registered kinds");
                match position_of_kind(chain, kind) {
                    Some(position) => {
                        let (_, residue) =
                            chain.replace(position, filter).expect("position from names()");
                        flushed.extend(residue);
                    }
                    None => chain
                        .insert(0, filter)
                        .expect("inserting at the head never fails"),
                }
            }
        }
    }
    flushed
}

fn position_of_kind(chain: &FilterChain, kind: &str) -> Option<usize> {
    chain.names().iter().position(|name| name.starts_with(kind))
}

/// The synchronous applier: a [`FilterChain`] plus the registry used to
/// instantiate filters named by actions.
#[derive(Debug)]
pub struct SyncChainApplier {
    chain: FilterChain,
    registry: FilterRegistry,
    telemetry: Arc<Registry>,
}

impl SyncChainApplier {
    /// Creates an applier around an empty chain and the built-in registry.
    /// The chain carries egress telemetry spans so the run's report can
    /// surface end-to-end latency percentiles.
    pub fn new() -> Self {
        let telemetry = Registry::new();
        let mut chain = FilterChain::new();
        chain.set_spans(ChainSpans::egress(&telemetry, "stream.scenario"));
        Self {
            chain,
            registry: FilterRegistry::with_builtins(),
            telemetry,
        }
    }
}

impl Default for SyncChainApplier {
    fn default() -> Self {
        Self::new()
    }
}

impl ActionApplier for SyncChainApplier {
    fn label(&self) -> &'static str {
        "sync"
    }

    fn process(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        let mut out = Vec::with_capacity(packets.len());
        for packet in packets {
            out.extend(self.chain.process(packet).expect("scenario filters do not fail"));
        }
        out
    }

    fn apply(&mut self, actions: &[AdaptationAction]) -> Vec<Packet> {
        apply_actions_to_chain(&mut self.chain, &self.registry, actions)
    }

    fn installed_filters(&self) -> Vec<String> {
        self.chain.names()
    }

    fn finish(&mut self) -> Vec<Packet> {
        self.chain.flush().expect("scenario filters do not fail")
    }

    fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_snapshot(&self.telemetry.snapshot())
    }
}

/// The live applier: one stream on a [`Proxy`] — the whole chain executes
/// as a cooperative task on the proxy's fixed worker pool, reconfigured
/// through the proxy control surface while packets flow.
///
/// Determinism comes from control-marker quiescence: markers ride the FIFO
/// task path, so draining to the marker collects exactly the window's
/// output, in order, regardless of shard count or batch size.
#[derive(Debug)]
pub struct RuntimeApplier {
    proxy: Proxy,
    stream: String,
    telemetry: Arc<Registry>,
    input: DetachableSender<Packet>,
    output: DetachableReceiver<Packet>,
    next_marker: u64,
    finished: bool,
}

impl RuntimeApplier {
    /// Spins up a proxy with a sharded runtime of `shards` workers and a
    /// single pooled stream processing packets in batches of up to
    /// `batch_size`.
    ///
    /// `window_hint` sizes the stream's pipes so a whole sample window
    /// (plus parity overhead) fits without blocking the driver.
    ///
    /// # Panics
    ///
    /// Panics if the proxy cannot create the stream (it is freshly built,
    /// so the only failure is resource exhaustion).
    pub fn new(shards: usize, batch_size: usize, window_hint: usize) -> Self {
        let capacity = (window_hint.max(32)) * 4;
        let config = RuntimeConfig::new(shards, batch_size).with_pipe_capacity(capacity);
        let mut proxy = Proxy::with_runtime("scenario-proxy", config);
        // Spans plus runtime profiling (poll / queue-wait histograms) go on
        // before the stream exists.
        let telemetry = proxy.enable_telemetry();
        let (input, output) = proxy
            .add_stream_pooled("scenario")
            .expect("fresh proxy accepts its first stream");
        Self {
            proxy,
            stream: "scenario".to_string(),
            telemetry,
            input,
            output,
            next_marker: 0,
            finished: false,
        }
    }

    /// Sends a control marker and drains the chain output until it comes
    /// back, returning everything that emerged before it.
    fn quiesce(&mut self) -> Vec<Packet> {
        let marker_seq = self.next_marker;
        self.next_marker += 1;
        let marker =
            Packet::new(marker_stream(), SeqNo::new(marker_seq), PacketKind::Control, Vec::new());
        self.input.send(marker).expect("scenario chain input stays open");
        let mut collected = Vec::new();
        loop {
            let packet = self
                .output
                .recv()
                .expect("marker is still in flight, so the stream cannot end");
            if packet.kind() == PacketKind::Control && packet.stream() == marker_stream() {
                if packet.seq().value() == marker_seq {
                    return collected;
                }
                // A stale marker from an earlier window (only possible if a
                // caller ignored a drain's result); skip it.
                continue;
            }
            collected.push(packet);
        }
    }
}

impl ActionApplier for RuntimeApplier {
    fn label(&self) -> &'static str {
        "pooled"
    }

    fn process(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        for packet in packets {
            self.input.send(packet).expect("scenario chain input stays open");
        }
        self.quiesce()
    }

    fn apply(&mut self, actions: &[AdaptationAction]) -> Vec<Packet> {
        apply_to_proxy(&self.proxy, &self.stream, actions)
            .expect("responder actions are valid for the pooled chain");
        // Residue flushed out of removed/replaced filters lands in the
        // task's pending buffer; quiescing picks it up in order.
        self.quiesce()
    }

    fn installed_filters(&self) -> Vec<String> {
        self.proxy
            .filter_names(&self.stream)
            .expect("the scenario stream exists for the applier's lifetime")
    }

    fn finish(&mut self) -> Vec<Packet> {
        self.finished = true;
        self.input.close();
        let mut residue = Vec::new();
        while let Ok(packet) = self.output.recv() {
            if packet.kind() == PacketKind::Control && packet.stream() == marker_stream() {
                continue;
            }
            residue.push(packet);
        }
        residue
    }

    fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_snapshot(&self.telemetry.snapshot())
    }
}

impl Drop for RuntimeApplier {
    fn drop(&mut self) {
        if !self.finished {
            self.input.close();
        }
        let _ = self.proxy.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_proxy::FilterSpec;

    fn audio(seq: u64) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![seq as u8; 32])
    }

    fn insert_fec() -> AdaptationAction {
        AdaptationAction::Insert {
            position: 0,
            spec: FilterSpec::new("fec-encoder")
                .with_param("n", "6")
                .with_param("k", "4"),
        }
    }

    fn remove_fec() -> AdaptationAction {
        AdaptationAction::RemoveKind {
            kind: "fec-encoder".to_string(),
        }
    }

    /// Drives the same script through an applier: plain window, insert FEC,
    /// encoded window, remove FEC, final window, finish.
    fn run_script(applier: &mut dyn ActionApplier) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        out.extend(applier.process((0..4).map(audio).collect()));
        assert!(applier.installed_filters().is_empty());
        out.extend(applier.apply(&[insert_fec()]));
        assert_eq!(applier.installed_filters(), vec!["fec-encoder(6,4)"]);
        out.extend(applier.process((4..10).map(audio).collect()));
        out.extend(applier.apply(&[remove_fec()]));
        assert!(applier.installed_filters().is_empty());
        out.extend(applier.process((10..12).map(audio).collect()));
        out.extend(applier.finish());
        out.iter()
            .map(|p| (p.seq().value(), p.kind().is_parity()))
            .collect()
    }

    #[test]
    fn sync_and_pooled_appliers_emit_identical_streams() {
        let sync = run_script(&mut SyncChainApplier::new());
        let pooled = run_script(&mut RuntimeApplier::new(4, 4, 16));
        assert_eq!(sync, pooled);
        // 12 payloads; seqs 4..8 form one full FEC block (2 parities) and
        // 8..10 a partial block flushed on removal (2 more parities).
        assert_eq!(sync.iter().filter(|(_, parity)| !parity).count(), 12);
        assert_eq!(sync.iter().filter(|(_, parity)| *parity).count(), 4);
    }

    #[test]
    fn labels_distinguish_appliers() {
        assert_eq!(SyncChainApplier::new().label(), "sync");
        assert_eq!(RuntimeApplier::new(2, 1, 8).label(), "pooled");
    }

    #[test]
    fn pooled_applier_is_reusable_across_many_windows() {
        let mut applier = RuntimeApplier::new(2, 2, 8);
        applier.apply(&[insert_fec()]);
        let mut total = 0;
        for window in 0..10u64 {
            let packets: Vec<Packet> = (window * 8..(window + 1) * 8).map(audio).collect();
            total += applier.process(packets).len();
        }
        // 80 payloads in full blocks of 4 → 20 blocks → 40 parities.
        assert_eq!(total, 120);
        assert!(applier.finish().is_empty());
    }
}
