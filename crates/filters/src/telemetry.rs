//! Packet-lifecycle spans for a [`FilterChain`](crate::FilterChain).
//!
//! A [`ChainSpans`] bundles the latency instruments one chain records
//! into: the whole-chain batch-processing histogram, the sampled
//! per-filter stage histograms, and — for chains that sit at the egress
//! edge of a stream or lane — the end-to-end latency histogram fed by the
//! ingress stamps the packets carry ([`Packet::ingress_ns`]).
//!
//! The sync applier and the pooled runtime attach the same type, so
//! latency series have identical names and semantics whichever data plane
//! a stream runs on.
//!
//! [`Packet::ingress_ns`]: rapidware_packet::Packet::ingress_ns

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rapidware_telemetry::{Histogram, Registry, Sampler};

/// How many batches pass between two per-filter timing samples.
///
/// Per-filter timing costs two span-clock reads per filter per batch; at
/// 1-in-64 the cost rounds to zero while a steady stream still yields
/// hundreds of samples per second.  Ingress stamping and end-to-end
/// recording are *not* sampled — they are one clock read per batch.
pub const STAGE_SAMPLE_EVERY: u64 = 64;

/// The latency instruments one chain records into.
///
/// Created by the proxy when telemetry is enabled and attached with
/// [`FilterChain::set_spans`](crate::FilterChain::set_spans).  All
/// histograms live in the proxy-wide [`Registry`] under this chain's scope
/// prefix:
///
/// * `<scope>.batch_ns` — wall time one batch spent inside the chain;
/// * `<scope>.e2e_ns` — ingress-to-chain-exit latency per packet
///   (egress chains only);
/// * `<scope>.filter.<name>_ns` — sampled per-filter batch durations.
pub struct ChainSpans {
    registry: Arc<Registry>,
    scope: String,
    batch_ns: Arc<Histogram>,
    e2e: Option<Arc<Histogram>>,
    sampler: Sampler,
    // Lazily registered per filter name: splices add filters while packets
    // flow, and registration is the one moment allocation is allowed.
    // Locked only on sampled batches.
    stages: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for ChainSpans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainSpans")
            .field("scope", &self.scope)
            .field("egress", &self.e2e.is_some())
            .finish()
    }
}

impl ChainSpans {
    /// Spans for an egress chain (the last chain a packet traverses before
    /// leaving the proxy): records per-packet end-to-end latency at chain
    /// exit on top of the stage instruments.
    pub fn egress(registry: &Arc<Registry>, scope: impl Into<String>) -> Arc<Self> {
        Self::build(registry, scope.into(), true)
    }

    /// Spans for an interior chain (e.g. a fanout session's shared head):
    /// stage instruments only — the packet's end-to-end latency is recorded
    /// downstream, where it actually exits.
    pub fn interior(registry: &Arc<Registry>, scope: impl Into<String>) -> Arc<Self> {
        Self::build(registry, scope.into(), false)
    }

    fn build(registry: &Arc<Registry>, scope: String, egress: bool) -> Arc<Self> {
        Arc::new(Self {
            batch_ns: registry.histogram(format!("{scope}.batch_ns")),
            e2e: egress.then(|| registry.histogram(format!("{scope}.e2e_ns"))),
            sampler: Sampler::new(STAGE_SAMPLE_EVERY),
            stages: Mutex::new(HashMap::new()),
            registry: Arc::clone(registry),
            scope,
        })
    }

    /// This chain's scope prefix (e.g. `stream.audio`).
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// The whole-chain batch-duration histogram.
    pub fn batch_ns(&self) -> &Arc<Histogram> {
        &self.batch_ns
    }

    /// The end-to-end latency histogram, when this is an egress chain.
    pub fn e2e(&self) -> Option<&Arc<Histogram>> {
        self.e2e.as_ref()
    }

    /// Fires 1-in-N; callers time the per-filter stage work only on firing
    /// batches.
    pub fn sample_stages(&self) -> bool {
        self.sampler.fire()
    }

    /// The per-filter stage histogram for `filter_name`, registering it on
    /// first use (a splice bringing a new filter into the chain is a
    /// registration point, not a hot-path allocation).
    pub fn stage_histogram(&self, filter_name: &str) -> Arc<Histogram> {
        let mut stages = self.stages.lock().expect("stage map mutex");
        if let Some(hist) = stages.get(filter_name) {
            return Arc::clone(hist);
        }
        let hist = self
            .registry
            .histogram(format!("{}.filter.{filter_name}_ns", self.scope));
        stages.insert(filter_name.to_string(), Arc::clone(&hist));
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_and_instrument_names() {
        let registry = Registry::new();
        let spans = ChainSpans::egress(&registry, "stream.audio");
        assert_eq!(spans.scope(), "stream.audio");
        spans.batch_ns().record(10);
        spans.e2e().expect("egress chain").record(20);
        spans.stage_histogram("fec-encoder(6,4)").record(30);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.histogram("stream.audio.batch_ns").map(|h| h.count()), Some(1));
        assert_eq!(snapshot.histogram("stream.audio.e2e_ns").map(|h| h.count()), Some(1));
        assert_eq!(
            snapshot
                .histogram("stream.audio.filter.fec-encoder(6,4)_ns")
                .map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    fn interior_chains_have_no_e2e() {
        let registry = Registry::new();
        let spans = ChainSpans::interior(&registry, "session.s.head");
        assert!(spans.e2e().is_none());
        assert!(!format!("{spans:?}").is_empty());
    }

    #[test]
    fn stage_histograms_are_cached_per_name() {
        let registry = Registry::new();
        let spans = ChainSpans::interior(&registry, "x");
        let a = spans.stage_histogram("null");
        let b = spans.stage_histogram("null");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn sampler_fires_first_then_one_in_n() {
        let registry = Registry::new();
        let spans = ChainSpans::interior(&registry, "x");
        assert!(spans.sample_stages());
        let fired: usize = (0..STAGE_SAMPLE_EVERY * 2 - 1)
            .filter(|_| spans.sample_stages())
            .count();
        assert_eq!(fired, 1);
    }
}
