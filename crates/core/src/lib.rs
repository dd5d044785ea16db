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
//! | [`transport`] | `rapidware-transport` | reactor-driven UDP endpoints (N streams per socket) and the deterministic loopback impairment shim |
//! | [`raplets`] | `rapidware-raplets` | observer / responder raplets and the adaptation engine |
//! | [`netsim`] | `rapidware-netsim` | deterministic wireless LAN simulator (the testbed substitute) |
//! | [`media`] | `rapidware-media` | synthetic audio / video workloads and measurement sinks |
//! | [`pavilion`] | `rapidware-pavilion` | the collaborative-session substrate (leadership, browsing, caching) |
//!
//! The [`scenario`] module glues these together into reproducible end-to-end
//! experiments (the audio-multicast-over-WaveLAN setup of the paper's
//! Figure 7 and its ablations), the [`engine`] module closes the control
//! loop — seeded link samples drive the raplets, whose actions reconfigure
//! a running chain, with every step recorded in a replayable trace — and
//! [`AdaptiveProxyBuilder`] assembles a live adaptive proxy in a few lines.
//!
//! ## Quickstart
//!
//! ```
//! use rapidware::scenario::{FecScenario, ScenarioConfig};
//!
//! // The paper's operating point: FEC(6,4), laptops 25 m from the access
//! // point — but only a second of audio so the doctest stays fast.
//! let config = ScenarioConfig::figure7().with_packets(50).with_receivers(1);
//! let report = FecScenario::new(config).run();
//! let receiver = &report.receivers[0];
//! assert!(receiver.reconstructed_pct() >= receiver.received_pct());
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
pub mod scenario;

pub use builder::AdaptiveProxyBuilder;
/// The sharded session runtime (re-exported from `rapidware-proxy`): the
/// fixed worker pool that hosts every proxy stream and fanout session as
/// cooperative tasks.
pub use rapidware_proxy::runtime;

/// The most commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::builder::AdaptiveProxyBuilder;
    pub use crate::engine::{
        Applier, LossRegime, ScenarioEngine, ScenarioOutcome, ScenarioSpec, ScenarioTrace,
        SyncApplier,
    };
    pub use crate::scenario::{FecScenario, ReceiverReport, ScenarioConfig, ScenarioReport};
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
        Command, ControlManager, FilterRegistry, FilterSpec, PooledChain, PooledSession, Proxy,
        Runtime, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig, ThreadedChain,
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
