//! # rapidware-proxy — the RAPIDware proxy runtime
//!
//! This crate assembles detachable streams and composable filters into the
//! proxy described in Sections 3–4 of the paper:
//!
//! * [`Proxy`] — one proxy process: a set of named streams and fanout
//!   sessions, each with its own chain that can have filters **inserted,
//!   removed, and reordered while packets are flowing**, plus the registry
//!   and control plumbing.  Every stream ([`PooledChain`]) and session
//!   ([`PooledSession`]) runs as cooperative tasks on the proxy's fixed
//!   worker pool (the [`runtime`] module); two `EndPoint` handles (a
//!   stream's input sender and output receiver) plus an empty chain form
//!   the paper's "null proxy".
//! * [`FilterRegistry`] and [`FilterSpec`] — the dynamic-upload path.  The
//!   paper serialises Java filter objects across the network into a running
//!   proxy; the Rust equivalent is a serialisable filter *description*
//!   instantiated through a registry of factories, which exercises the same
//!   control path (a filter arrives over the control channel, is
//!   constructed, and is spliced into a live chain) without unsafe dynamic
//!   code loading.
//! * [`ControlManager`], [`Command`], [`Response`] — the management
//!   interface (the paper's Swing GUI, minus the Swing): query a proxy's
//!   configuration, insert/remove/move filters, upload filter bundles.
//! * [`ThreadedChain`] — the reference implementation of the paper's
//!   `ControlThread` plus its filter vector: every filter runs on its own
//!   thread, filters are connected by detachable pipes, and a splice is the
//!   paper's pause → drain → reconnect protocol.  It is a library type the
//!   experiment binaries and benches measure; a [`Proxy`] places no work on
//!   it.
//!
//! ## Example
//!
//! ```
//! use rapidware_proxy::{FilterSpec, Proxy};
//! use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
//!
//! # fn main() -> Result<(), rapidware_proxy::ProxyError> {
//! // A null proxy: two endpoints and no filters.
//! let mut proxy = Proxy::new("edge");
//! let (input, output) = proxy.add_stream_pooled("audio")?;
//!
//! input.send(Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![1, 2, 3]))
//!     .expect("stream accepts packets");
//! assert_eq!(output.recv().expect("forwarded").seq(), SeqNo::new(0));
//!
//! // Splice a (do-nothing) filter into the running stream, then keep going.
//! proxy.insert_filter("audio", 0, &FilterSpec::new("null"))?;
//!
//! input.send(Packet::new(StreamId::new(1), SeqNo::new(1), PacketKind::AudioData, vec![4, 5, 6]))
//!     .expect("stream still accepts packets");
//! input.close();
//!
//! let delivered: Vec<_> = std::iter::from_fn(|| output.recv().ok()).collect();
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].seq(), SeqNo::new(1));
//! proxy.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod control;
mod error;
mod proxy;
mod registry;
pub mod runtime;
mod session;
mod threaded;
mod udp;

pub use control::{Command, ControlManager, Response};
pub use error::ProxyError;
pub use proxy::{Proxy, ProxyStatus, StreamStatus};
pub use registry::{FilterRegistry, FilterSpec};
pub use runtime::{
    PooledChain, PooledSession, Runtime, RuntimeConfig, RuntimeStatus, ShardStatus, SocketDriver,
    SocketInterest, SocketStep, SocketWork,
};
pub use session::{LaneStatus, SessionStatus};
pub use threaded::{ChainStats, ThreadedChain, DEFAULT_BATCH_SIZE};
pub use udp::{
    SharedUdpSessionConfig, SharedUdpSessionHandle, SharedUdpStreamConfig, SharedUdpStreamHandle,
    UdpCarrierConfig, UdpCarrierHandle, UdpTransportStatus,
};
// Re-exported so callers reading `ProxyStatus::transports` (or holding the
// stats handles in a `UdpCarrierHandle`) need not depend on the transport crate.
pub use rapidware_transport::{TransportSnapshot, TransportStats};
// Re-exported so callers consuming `Proxy::telemetry()` snapshots (or
// registering their own instruments on `Proxy::telemetry_registry()`) need
// not depend on the telemetry crate.
pub use rapidware_telemetry::{
    format_metrics, Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry, StatSource,
    TelemetrySnapshot,
};
