//! # rapidware-netsim — a deterministic wireless LAN simulator
//!
//! The paper's evaluation runs on a physical testbed: a proxy workstation on
//! a wired LAN forwarding a live audio stream over a 2 Mbps WaveLAN wireless
//! network to laptops up to tens of meters from the access point.  That
//! hardware is not available, so this crate provides the substitute
//! substrate: one **deterministic simulated wireless medium**
//! ([`WirelessLan`]) with the properties that matter to the experiments —
//!
//! * per-receiver packet loss driven by pluggable [`LossModel`]s
//!   (independent Bernoulli losses, bursty Gilbert–Elliott losses, and a
//!   distance-calibrated WaveLAN model whose loss rate at 25 m matches the
//!   1.46 % raw loss the paper reports in Figure 7);
//! * bandwidth, propagation latency, and jitter of the shared radio
//!   ([`LinkConfig`]);
//! * IP-multicast-like fan-out from an access point to many wireless
//!   receivers, where each receiver experiences independent losses (the
//!   property that makes block erasure codes attractive for multicast);
//! * a mobility model ([`LinearWalk`]: the "walk from the office to the
//!   conference room" scenario of Section 3) that changes a receiver's
//!   distance — and hence loss rate — over simulated time;
//! * simulated time ([`SimTime`]) and one seeded RNG per LAN, so that every
//!   run is exactly reproducible from its seed.
//!
//! ## Example
//!
//! ```
//! use rapidware_netsim::{LossModel, DistanceLossModel, SimTime};
//!
//! // Loss probability grows dramatically over a few tens of meters,
//! // as the paper observes on its WaveLAN testbed.
//! let model = DistanceLossModel::wavelan_2mbps();
//! assert!(model.loss_probability(5.0) < 0.01);
//! assert!(model.loss_probability(25.0) < 0.03);
//! assert!(model.loss_probability(45.0) > 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod link;
mod loss;
mod mobility;
mod multicast;
mod time;

pub use link::{LinkConfig, TransmitOutcome};
pub use loss::{
    sample_phase_boundaries, BernoulliLoss, DistanceLossModel, GilbertElliottLoss, LossModel,
    PerfectLink, ScheduledLoss, StrideLoss,
};
pub use mobility::LinearWalk;
pub use multicast::{DeliveryRecord, ReceiverId, WirelessLan};
pub use time::SimTime;
