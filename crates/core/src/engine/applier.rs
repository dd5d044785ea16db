//! Appliers: where adaptation actions land.
//!
//! The [`AdaptationEngine`](rapidware_raplets::AdaptationEngine) emits
//! [`AdaptationAction`]s without touching any chain; an [`Applier`] owns
//! the chains a scenario runs through and applies them.  Every applier has
//! one shape — a shared head chain feeding one tail chain per receiver
//! lane — and a flat scenario is the one-lane case with an empty head.
//! Two appliers exist, and a scenario must behave identically on both:
//!
//! * [`SyncApplier`] — deterministic, synchronous [`FilterChain`]s, used
//!   by simulations and benchmarks.
//! * [`LiveApplier`](super::LiveApplier) — a live
//!   [`Proxy`](rapidware_proxy::Proxy) stream or session on the proxy's
//!   worker pool, fed over in-process pipes or a loopback UDP carrier.

use std::fmt;
use std::sync::Arc;

use rapidware_filters::{ChainSpans, FilterChain};
use rapidware_packet::{Packet, StreamId};
use rapidware_proxy::{FilterRegistry, FilterSpec, Registry};
use rapidware_raplets::AdaptationAction;

use super::report::LatencySummary;

/// Stream id reserved for quiescence markers so they can never collide with
/// media traffic.
pub(super) fn marker_stream() -> StreamId {
    StreamId::new(u32::MAX)
}

/// The chains a scenario runs through: a shared head chain and one tail
/// chain per receiver lane, and where per-lane adaptation actions land.
///
/// `process` and `finish` return one output vector **per lane**, in lane
/// order, and `apply` returns the residue of one lane; the engine puts all
/// of it on the air.  Implementations must preserve packet order and must
/// be deterministic for a given input sequence.
pub trait Applier {
    /// Pushes one window of source packets through the head chain and every
    /// lane tail, returning each lane's emissions in lane order.
    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>>;

    /// Applies adaptation actions to one lane's tail chain, returning any
    /// residue flushed out of removed or replaced filters on that lane.
    fn apply(&mut self, lane: usize, actions: &[AdaptationAction]) -> Vec<Packet>;

    /// Names of the filters installed on `lane`'s tail chain.
    fn lane_filters(&self, lane: usize) -> Vec<String>;

    /// Names of the filters installed on the shared head chain.
    fn head_filters(&self) -> Vec<String>;

    /// Ends the stream: flushes the head chain through every lane and every
    /// lane tail, returning each lane's residue in lane order.  The applier
    /// must not be used afterwards.
    fn finish(&mut self) -> Vec<Vec<Packet>>;

    /// End-to-end latency percentiles (head ingress to lane egress, all
    /// lanes merged) observed by the applier's telemetry spans, or `None`
    /// for appliers without instrumentation.  Purely observational —
    /// latency never participates in report equality.
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

/// The synchronous applier: one [`FilterChain`] head, one per lane, plus
/// the registry used to instantiate filters named by actions.
pub struct SyncApplier {
    head: FilterChain,
    lanes: Vec<FilterChain>,
    registry: FilterRegistry,
    telemetry: Arc<Registry>,
}

impl fmt::Debug for SyncApplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncApplier")
            .field("head", &self.head.names())
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl SyncApplier {
    /// Creates the sync applier: the head chain is populated from
    /// `head_filters`, and one empty tail chain per lane name.  `name`
    /// labels the telemetry spans (`session.<name>.head`,
    /// `session.<name>.lane.<lane>`), as on a live session.
    ///
    /// # Panics
    ///
    /// Panics if a head filter spec names an unknown kind (specs are
    /// expected to reference registered kinds).
    pub fn new(name: &str, head_filters: &[FilterSpec], lanes: &[String]) -> Self {
        let registry = FilterRegistry::with_builtins();
        let telemetry = Registry::new();
        let mut head = FilterChain::new();
        // Interior spans on the head stamp ingress; egress spans on each
        // lane close the ingress-to-egress measurement, so lane e2e covers
        // the full head-plus-tail path.
        head.set_spans(ChainSpans::interior(&telemetry, format!("session.{name}.head")));
        for filter_spec in head_filters {
            let filter = registry
                .instantiate(filter_spec)
                .expect("head filter specs reference registered kinds");
            head.push_back(filter).expect("appending to a fresh chain never fails");
        }
        let lanes = lanes
            .iter()
            .map(|lane| {
                let mut chain = FilterChain::new();
                chain.set_spans(ChainSpans::egress(
                    &telemetry,
                    format!("session.{name}.lane.{lane}"),
                ));
                chain
            })
            .collect();
        Self {
            head,
            lanes,
            registry,
            telemetry,
        }
    }
}

impl Applier for SyncApplier {
    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>> {
        let shared = self
            .head
            .process_batch(packets)
            .expect("scenario head filters do not fail");
        // Like the live session task: clone for all but the last lane,
        // move into the last.
        let last = self.lanes.len().saturating_sub(1);
        let mut shared = Some(shared);
        self.lanes
            .iter_mut()
            .enumerate()
            .map(|(index, lane)| {
                let batch = if index == last {
                    shared.take().expect("only the last lane takes the batch")
                } else {
                    shared.as_ref().expect("batch present until the last lane").clone()
                };
                lane.process_batch(batch).expect("scenario lane filters do not fail")
            })
            .collect()
    }

    fn apply(&mut self, lane: usize, actions: &[AdaptationAction]) -> Vec<Packet> {
        apply_actions_to_chain(&mut self.lanes[lane], &self.registry, actions)
    }

    fn lane_filters(&self, lane: usize) -> Vec<String> {
        self.lanes[lane].names()
    }

    fn head_filters(&self) -> Vec<String> {
        self.head.names()
    }

    fn finish(&mut self) -> Vec<Vec<Packet>> {
        // The head's tail residue (e.g. a partial block of a head-side
        // filter) flows through every lane before the lanes flush, exactly
        // as EOF propagates through a live session.
        let head_residue = self.head.flush().expect("scenario head filters do not fail");
        self.lanes
            .iter_mut()
            .map(|lane| {
                let mut out = lane
                    .process_batch(head_residue.clone())
                    .expect("scenario lane filters do not fail");
                out.extend(lane.flush().expect("scenario lane filters do not fail"));
                out
            })
            .collect()
    }

    fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_snapshot(&self.telemetry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LiveApplier, LiveIo};
    use rapidware_packet::{PacketKind, SeqNo};

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

    /// Drives the same script through lane 0 of an applier: plain window,
    /// insert FEC, encoded window, remove FEC, final window, finish.
    fn run_script(applier: &mut dyn Applier) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        out.extend(applier.process((0..4).map(audio).collect()).swap_remove(0));
        assert!(applier.lane_filters(0).is_empty());
        out.extend(applier.apply(0, &[insert_fec()]));
        assert_eq!(applier.lane_filters(0), vec!["fec-encoder(6,4)"]);
        out.extend(applier.process((4..10).map(audio).collect()).swap_remove(0));
        out.extend(applier.apply(0, &[remove_fec()]));
        assert!(applier.lane_filters(0).is_empty());
        out.extend(applier.process((10..12).map(audio).collect()).swap_remove(0));
        out.extend(applier.finish().swap_remove(0));
        out.iter()
            .map(|p| (p.seq().value(), p.kind().is_parity()))
            .collect()
    }

    #[test]
    fn sync_and_pooled_appliers_emit_identical_streams() {
        let sync = run_script(&mut SyncApplier::new("unit", &[], &["unit".to_string()]));
        let pooled = run_script(&mut LiveApplier::stream(LiveIo::Pipes, 4, 4, 16));
        assert_eq!(sync, pooled);
        // 12 payloads; seqs 4..8 form one full FEC block (2 parities) and
        // 8..10 a partial block flushed on removal (2 more parities).
        assert_eq!(sync.iter().filter(|(_, parity)| !parity).count(), 12);
        assert_eq!(sync.iter().filter(|(_, parity)| *parity).count(), 4);
    }

    #[test]
    fn pooled_applier_is_reusable_across_many_windows() {
        let mut applier = LiveApplier::stream(LiveIo::Pipes, 2, 2, 8);
        applier.apply(0, &[insert_fec()]);
        let mut total = 0;
        for window in 0..10u64 {
            let packets: Vec<Packet> = (window * 8..(window + 1) * 8).map(audio).collect();
            total += applier.process(packets)[0].len();
        }
        // 80 payloads in full blocks of 4 → 20 blocks → 40 parities.
        assert_eq!(total, 120);
        assert!(applier.finish()[0].is_empty());
    }
}
