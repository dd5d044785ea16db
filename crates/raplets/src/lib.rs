//! # rapidware-raplets — adaptive middleware components
//!
//! RAPIDware separates *adaptive* middleware components from the core,
//! non-adaptive services so that adaptation logic can be reconfigured at run
//! time.  The adaptive components are called **raplets** and come in two
//! flavours (paper, Section 2):
//!
//! * **observer** raplets collectively monitor the state of the system —
//!   link quality, device capabilities, user preferences;
//! * **responder** raplets react to events raised by observers by
//!   instantiating new components or reconfiguring existing ones — for
//!   example inserting an FEC filter into a proxy when the wireless loss
//!   rate rises.
//!
//! This crate provides the [`Observer`] and [`Responder`] traits, concrete
//! raplets for the paper's scenarios ([`LossRateObserver`],
//! [`ThroughputObserver`], [`FecResponder`], [`TranscoderResponder`]), and
//! the [`AdaptationEngine`] that wires a set of raplets together and turns
//! link samples into chain-reconfiguration actions.
//!
//! Responders do not mutate proxies directly; they emit
//! [`AdaptationAction`]s which the caller applies to whichever chain
//! implementation it runs (a live proxy or the deterministic synchronous
//! chain used by simulations).  [`apply_to_proxy`] is the glue for a live
//! proxy stream, [`apply_to_pooled_session`] for one lane of a fanout
//! session.
//!
//! ## Example
//!
//! ```
//! use rapidware_raplets::{AdaptationEngine, FecResponder, LinkSample, LossRateObserver};
//! use rapidware_netsim::SimTime;
//!
//! let mut engine = AdaptationEngine::new();
//! engine.add_observer(Box::new(LossRateObserver::with_thresholds(0.02, 0.005)));
//! engine.add_responder(Box::new(FecResponder::paper_default()));
//!
//! // Clean link: no actions.
//! let calm = engine.ingest(&LinkSample::new(SimTime::from_secs(1), 1000, 999));
//! assert!(calm.is_empty());
//!
//! // Loss rises above 2%: the responder asks for an FEC encoder.
//! let stormy = engine.ingest(&LinkSample::new(SimTime::from_secs(2), 1000, 900));
//! assert!(!stormy.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod observer;
mod responder;
mod sample;

pub use engine::{apply_to_pooled_session, apply_to_proxy, AdaptationEngine, AdaptationRecord};
pub use observer::{AdaptationEvent, LossRateObserver, Observer, ThroughputObserver};
pub use responder::{AdaptationAction, FecResponder, Responder, TranscoderResponder};
pub use sample::LinkSample;
