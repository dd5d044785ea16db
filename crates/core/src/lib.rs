//! # rapidware — composable proxy filters for heterogeneous mobile computing
//!
//! A Rust reproduction of McKinley & Padmanabhan, *"Design of Composable
//! Proxy Filters for Heterogeneous Mobile Computing"* (IEEE Workshop on
//! Wireless Networks and Mobile Computing, with ICDCS-21, 2001).
//!
//! This facade crate re-exports the whole system and adds the experiment
//! machinery used to regenerate the paper's evaluation:
//!
//! | subsystem | crate | what it is |
//! |---|---|---|
//! | [`streams`] | `rapidware-streams` | detachable pipes (pause / reconnect / splice) — the paper's detachable Java I/O streams |
//! | [`packet`] | `rapidware-packet` | the packet model, reorder buffers, receipt statistics |
//! | [`fec`] | `rapidware-fec` | (n, k) block erasure codes over GF(2⁸) |
//! | [`filters`] | `rapidware-filters` | the `Filter` trait, the reconfigurable chain, and the built-in filter library |
//! | [`proxy`] | `rapidware-proxy` | the proxy: live-reconfigurable streams and fanout sessions on a fixed worker pool, filter registry, control protocol (plus the paper's thread-per-filter `ThreadedChain` as a reference type) |
//! | [`transport`] | `rapidware-transport` | readiness-driven UDP endpoints (N streams per socket) and the deterministic loopback impairment shim |
//! | [`raplets`] | `rapidware-raplets` | observer / responder raplets and the adaptation engine |
//! | [`netsim`] | `rapidware-netsim` | deterministic wireless LAN simulator (the testbed substitute) |
//! | [`media`] | `rapidware-media` | synthetic audio / video workloads and measurement sinks |
//! | [`pavilion`] | `rapidware-pavilion` | the collaborative-session substrate (leadership, browsing, caching) |
//!
//! The [`engine`] module glues these together into reproducible end-to-end
//! experiments: one scenario system runs the paper's evaluation (the
//! audio-multicast-over-WaveLAN setup of Figure 7, its sweeps and the
//! adaptive walk) and closes the control loop — seeded link samples drive
//! the raplets, whose actions reconfigure a running chain, with every step
//! recorded in a replayable trace — on a sync chain or a live proxy alike.
//! [`AdaptiveProxyBuilder`] assembles a live adaptive proxy in a few lines.
//!
//! ## Quickstart
//!
//! ```
//! use rapidware::engine::{ScenarioEngine, ScenarioSpec};
//!
//! // The paper's operating point: FEC(6,4), three laptops 25 m from the
//! // access point — but only a second of audio so the doctest stays fast.
//! let outcome = ScenarioEngine::new(ScenarioSpec::figure7().with_packets(50)).run_sync();
//! let stats = outcome.receipt_stats(0, 432);
//! assert!(stats.reconstructed_pct() >= stats.received_pct());
//! assert_eq!(outcome.report.undelivered_total(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use rapidware_fec as fec;
pub use rapidware_filters as filters;
pub use rapidware_media as media;
pub use rapidware_netsim as netsim;
pub use rapidware_packet as packet;
pub use rapidware_pavilion as pavilion;
pub use rapidware_proxy as proxy;
pub use rapidware_raplets as raplets;
pub use rapidware_streams as streams;
pub use rapidware_transport as transport;

mod builder;
pub mod engine;

pub use builder::AdaptiveProxyBuilder;
/// The sharded session runtime (re-exported from `rapidware-proxy`): the
/// fixed worker pool that hosts every proxy stream and fanout session as
/// cooperative tasks.
pub use rapidware_proxy::runtime;

/// The most commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::builder::AdaptiveProxyBuilder;
    pub use crate::engine::{
        Applier, FecPolicy, LossRegime, ScenarioEngine, ScenarioOutcome, ScenarioSpec,
        ScenarioTrace, SyncApplier,
    };
    pub use rapidware_fec::FecCodec;
    pub use rapidware_filters::{
        FecDecoderFilter, FecEncoderFilter, Filter, FilterChain, FilterContainer, FilterOutput,
        NullFilter, TapFilter,
    };
    pub use rapidware_media::{AudioConfig, AudioSource, MediaSink, VideoConfig, VideoSource};
    pub use rapidware_netsim::{
        DistanceLossModel, LinearWalk, LinkConfig, LossModel, SimClock, SimTime, WirelessLan,
    };
    pub use rapidware_packet::{Packet, PacketKind, ReceiptStats, SeqNo, StreamId};
    pub use rapidware_pavilion::{CollaborativeSession, DeviceProfile};
    pub use rapidware_proxy::{
        Command, ControlManager, FilterRegistry, FilterSpec, PooledSession, Proxy, Runtime,
        RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig, ThreadedChain,
        UdpCarrierConfig,
    };
    pub use rapidware_transport::{
        ImpairedUdp, ImpairmentPlan, SharedUdpEgress, SharedUdpIngress, UdpConfig,
    };
    pub use rapidware_raplets::{
        AdaptationAction, AdaptationEngine, FecResponder, LinkSample, LossRateObserver,
    };
    pub use rapidware_streams::{pipe, DetachableReceiver, DetachableSender};
}

/// Paper-scenario checks of the engine's FEC policies: a fixed code's
/// parity cost, the no-FEC baseline, seed reproducibility and independent
/// per-receiver loss on multicast.
#[cfg(test)]
mod scenario {
    mod tests {
        use crate::prelude::*;

        fn one_receiver(regime: LossRegime, fec: FecPolicy, packets: u64) -> ScenarioOutcome {
            let spec = ScenarioSpec {
                receivers: vec![regime],
                fec,
                ..ScenarioSpec::figure7().with_packets(packets)
            };
            ScenarioEngine::new(spec).run_sync()
        }

        #[test]
        fn lossless_short_run_delivers_everything() {
            let outcome = one_receiver(LossRegime::Perfect, FecPolicy::Fixed(6, 4), 200);
            let stats = outcome.receipt_stats(0, 432);
            assert_eq!(stats.received_pct(), 100.0);
            assert_eq!(stats.reconstructed_pct(), 100.0);
            assert_eq!(outcome.report.source_packets_sent, 200);
            assert_eq!(
                outcome.report.parity_packets_sent, 100,
                "two parities per 4-packet block"
            );
            assert_eq!(outcome.report.receivers[0].delivered, 200);
            assert_eq!(outcome.report.undelivered_total(), 0);
            assert_eq!(outcome.report.final_filters, vec!["fec-encoder(6,4)"]);
        }

        #[test]
        fn no_fec_baseline_has_no_parity_and_no_recovery() {
            let outcome = one_receiver(LossRegime::Bernoulli { rate: 0.05 }, FecPolicy::Off, 500);
            let stats = outcome.receipt_stats(0, 432);
            assert_eq!(outcome.report.parity_packets_sent, 0);
            assert_eq!(outcome.report.recovered_total(), 0);
            assert_eq!(outcome.report.undelivered_total(), 0);
            assert_eq!(stats.reconstructed_pct(), stats.received_pct());
            assert!(stats.received_pct() < 100.0);
        }

        #[test]
        fn same_seed_is_reproducible() {
            let spec = ScenarioSpec {
                receivers: vec![LossRegime::AtDistance { meters: 25.0 }; 2],
                ..ScenarioSpec::figure7().with_packets(400)
            };
            let a = ScenarioEngine::new(spec.clone()).run_sync();
            let b = ScenarioEngine::new(spec).run_sync();
            assert_eq!(a.report, b.report);
            assert_eq!(a.events, b.events, "per-seq fates differ");
            assert_eq!(
                a.receipt_stats(1, 432).windows(),
                b.receipt_stats(1, 432).windows()
            );
        }

        #[test]
        fn multicast_fanout_recovers_independent_losses_everywhere() {
            let outcome =
                ScenarioEngine::new(ScenarioSpec::multicast(16).with_packets(600)).run_sync();
            assert_eq!(outcome.report.receivers.len(), 16);
            // Losses are independent per receiver: receivers must not all
            // see the identical loss pattern...
            let received: Vec<u64> = outcome
                .report
                .receivers
                .iter()
                .map(|r| r.delivered)
                .collect();
            assert!(
                received.windows(2).any(|pair| pair[0] != pair[1]),
                "16 receivers with identical receipt counts: losses not independent? {received:?}"
            );
            // ...yet FEC(6,4) must close the gap at every single one of them.
            for index in 0..16 {
                let reconstructed = outcome.receipt_stats(index, 432).reconstructed_pct();
                assert!(
                    reconstructed > 99.0,
                    "receiver-{index} only reached {reconstructed:.2}%"
                );
            }
        }
    }
}
