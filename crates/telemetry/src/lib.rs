//! # rapidware-telemetry — low-overhead observability primitives
//!
//! The latency layer under the composable proxy: every other rapidware
//! crate records its timings into the histograms defined here, and
//! `Proxy::telemetry()` merges them into one [`TelemetrySnapshot`].
//! Counts are not kept here: each stays in the object that owns it (a
//! pipe, a filter, a carrier, the pool) for that object's lifetime, and
//! the proxy folds its status into the snapshot's
//! [`stats`](TelemetrySnapshot::stats) when asked.  The design goals, in
//! order:
//!
//! 1. **Lock-free on the hot path.**  A [`Histogram`] is recorded with
//!    relaxed atomic increments only; the single [`Registry`] mutex is
//!    touched at registration and snapshot time, never per packet.
//! 2. **No allocation after registration.**  Histograms are fixed
//!    64-bucket log2 arrays.  Handles are `Arc`s captured once and
//!    recorded into forever.
//! 3. **Exact count conservation.**  A histogram's observation count *is*
//!    the sum of its bucket counts — merging shards cannot lose or invent
//!    observations, and a snapshot taken mid-record never undercounts
//!    records that completed before it started.
//!
//! Latency values are nanoseconds from the process-wide monotonic span
//! clock ([`now_ns`]), which never returns 0 so a zero ingress stamp can
//! mean "unstamped" everywhere in the data plane.
//!
//! ```
//! use rapidware_telemetry::{now_ns, Registry};
//!
//! let registry = Registry::new();
//! let hist = registry.histogram("stream.audio.e2e_ns");
//!
//! let start = now_ns();
//! hist.record(now_ns() - start);
//! hist.record(1_500);
//!
//! let snapshot = registry.snapshot();
//! let e2e = snapshot.histogram("stream.audio.e2e_ns").unwrap();
//! assert_eq!(e2e.count(), 2);
//! assert!(e2e.percentile(0.99) >= 1_500);
//! assert!(snapshot.stats.is_empty(), "counts are folded in by their owner");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod hist;
mod registry;
mod sample;

pub use clock::now_ns;
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Metric, Registry, TelemetrySnapshot};
pub use sample::Sampler;
