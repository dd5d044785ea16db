//! The adaptation engine: observers in, actions out.

use std::fmt;

use rapidware_netsim::SimTime;
use rapidware_proxy::{PooledSession, Proxy, ProxyError};

use crate::observer::{AdaptationEvent, Observer};
use crate::responder::{AdaptationAction, Responder};
use crate::sample::LinkSample;

/// One entry of the engine's adaptation log: when, which event, which
/// actions.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRecord {
    /// When the triggering sample was observed.
    pub time: SimTime,
    /// The event that fired.
    pub event: AdaptationEvent,
    /// The actions the responders requested.
    pub actions: Vec<AdaptationAction>,
}

/// Wires a set of observer raplets to a set of responder raplets.
///
/// The engine itself performs no I/O and mutates no chain: callers feed it
/// [`LinkSample`]s and apply the returned [`AdaptationAction`]s to the chain
/// implementation of their choice.  This mirrors RAPIDware's separation of
/// adaptive logic (raplets) from core data-path services.
#[derive(Debug, Default)]
pub struct AdaptationEngine {
    observers: Vec<Box<dyn Observer>>,
    responders: Vec<Box<dyn Responder>>,
    log: Vec<AdaptationRecord>,
}

impl AdaptationEngine {
    /// Creates an engine with no raplets installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs an observer raplet.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// Installs a responder raplet.
    pub fn add_responder(&mut self, responder: Box<dyn Responder>) {
        self.responders.push(responder);
    }

    /// Names of the installed observers.
    pub fn observer_names(&self) -> Vec<String> {
        self.observers.iter().map(|o| o.name().to_string()).collect()
    }

    /// Names of the installed responders.
    pub fn responder_names(&self) -> Vec<String> {
        self.responders.iter().map(|r| r.name().to_string()).collect()
    }

    /// Feeds one link sample through every observer and routes the raised
    /// events through every responder, returning the actions to apply.
    pub fn ingest(&mut self, sample: &LinkSample) -> Vec<AdaptationAction> {
        let mut all_actions = Vec::new();
        for observer in &mut self.observers {
            for event in observer.sample(sample) {
                let mut actions = Vec::new();
                for responder in &mut self.responders {
                    actions.extend(responder.handle(&event));
                }
                self.log.push(AdaptationRecord {
                    time: sample.time,
                    event,
                    actions: actions.clone(),
                });
                all_actions.extend(actions);
            }
        }
        all_actions
    }

    /// The full adaptation log so far.
    pub fn log(&self) -> &[AdaptationRecord] {
        &self.log
    }

    /// Drains and returns the adaptation log.
    pub fn take_log(&mut self) -> Vec<AdaptationRecord> {
        std::mem::take(&mut self.log)
    }
}

impl fmt::Display for AdaptationRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:?} -> {} action(s)", self.time, self.event, self.actions.len())
    }
}

/// Applies adaptation actions to a stream of a live [`Proxy`].
///
/// `RemoveKind`/`ReplaceKind` resolve the position by matching the kind
/// prefix of the installed filter names (filter names are
/// `kind(parameters)` by convention).
///
/// # Errors
///
/// Propagates the first proxy error encountered; earlier actions stay
/// applied.
pub fn apply_to_proxy(
    proxy: &Proxy,
    stream: &str,
    actions: &[AdaptationAction],
) -> Result<(), ProxyError> {
    apply_to_chain_surface(
        actions,
        |position, spec| proxy.insert_filter(stream, position, spec),
        |position| proxy.remove_filter(stream, position).map(|_| ()),
        || proxy.filter_names(stream),
    )
}

/// Applies adaptation actions to one receiver lane of a live fanout
/// [`PooledSession`] — the per-receiver flavour of [`apply_to_proxy`].
///
/// Each lane runs its own observer/responder loop ([`AdaptationEngine`]
/// instances are cheap, so a fanout session simply owns one per adaptive
/// lane), and the actions that loop emits land only on that lane's tail
/// chain: inserting FEC for a lossy WLAN receiver leaves its wired siblings
/// untouched.
///
/// # Errors
///
/// Propagates the first proxy error encountered; earlier actions stay
/// applied.
pub fn apply_to_pooled_session(
    session: &PooledSession,
    lane: &str,
    actions: &[AdaptationAction],
) -> Result<(), ProxyError> {
    apply_to_chain_surface(
        actions,
        |position, spec| session.insert_lane_filter(lane, position, spec),
        |position| session.remove_lane_filter(lane, position).map(|_| ()),
        || session.lane_filter_names(lane),
    )
}

/// Applies adaptation actions to the head chain of a live
/// [`PooledSession`] — the chain every lane shares, so one adaptation
/// serves every receiver (the paper's multicast case).  Residue flushed out
/// of a removed head filter goes out on every lane.
///
/// # Errors
///
/// Propagates the first proxy error encountered; earlier actions stay
/// applied.
pub fn apply_to_session_head(
    session: &PooledSession,
    actions: &[AdaptationAction],
) -> Result<(), ProxyError> {
    apply_to_chain_surface(
        actions,
        |position, spec| session.insert_head_filter(position, spec),
        |position| session.remove_head_filter(position).map(|_| ()),
        || Ok(session.head_filter_names()),
    )
}

/// The shared action-dispatch logic behind [`apply_to_proxy`],
/// [`apply_to_pooled_session`] and [`apply_to_session_head`]: insert at a
/// position, remove/replace by kind prefix, with a replace of a missing
/// kind falling back to an insert at the head.  Keeping one implementation
/// guarantees proxy streams, session heads and session lanes can never
/// drift in how they interpret actions.
fn apply_to_chain_surface(
    actions: &[AdaptationAction],
    insert: impl Fn(usize, &rapidware_proxy::FilterSpec) -> Result<(), ProxyError>,
    remove: impl Fn(usize) -> Result<(), ProxyError>,
    names: impl Fn() -> Result<Vec<String>, ProxyError>,
) -> Result<(), ProxyError> {
    let position_of_kind = |kind: &str| -> Result<Option<usize>, ProxyError> {
        Ok(names()?.iter().position(|name| name.starts_with(kind)))
    };
    for action in actions {
        match action {
            AdaptationAction::Insert { position, spec } => {
                insert(*position, spec)?;
            }
            AdaptationAction::RemoveKind { kind } => {
                if let Some(position) = position_of_kind(kind)? {
                    remove(position)?;
                }
            }
            AdaptationAction::ReplaceKind { kind, spec } => {
                if let Some(position) = position_of_kind(kind)? {
                    remove(position)?;
                    insert(position, spec)?;
                } else {
                    insert(0, spec)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::LossRateObserver;
    use crate::responder::FecResponder;
    use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};

    fn engine() -> AdaptationEngine {
        let mut engine = AdaptationEngine::new();
        engine.add_observer(Box::new(
            LossRateObserver::paper_default().with_smoothing(1.0),
        ));
        engine.add_responder(Box::new(FecResponder::paper_default()));
        engine
    }

    #[test]
    fn quiet_link_produces_no_actions() {
        let mut engine = engine();
        for i in 0..10 {
            let sample = LinkSample::new(SimTime::from_secs(i), 1000, 998);
            assert!(engine.ingest(&sample).is_empty());
        }
        assert!(engine.log().is_empty());
    }

    #[test]
    fn loss_spike_inserts_fec_and_recovery_removes_it() {
        let mut engine = engine();
        let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(1), 1000, 930));
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], AdaptationAction::Insert { .. }));
        // Sustained loss: no further actions (responder is stateful).
        assert!(engine
            .ingest(&LinkSample::new(SimTime::from_secs(2), 1000, 930))
            .is_empty());
        // Recovery.
        let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(3), 1000, 1000));
        assert!(matches!(actions[0], AdaptationAction::RemoveKind { .. }));
        assert_eq!(engine.log().len(), 2);
        assert!(engine.log()[0].to_string().contains("action"));
        let log = engine.take_log();
        assert_eq!(log.len(), 2);
        assert!(engine.log().is_empty());
    }

    #[test]
    fn names_report_installed_raplets() {
        let engine = engine();
        assert_eq!(engine.observer_names().len(), 1);
        assert!(engine.responder_names()[0].contains("fec-responder"));
    }

    #[test]
    fn actions_apply_to_a_live_proxy() {
        let mut proxy = Proxy::new("adaptive");
        let (input, output) = proxy.add_stream_pooled("audio").unwrap();
        let mut engine = engine();

        // Loss spike: FEC encoder appears on the live chain.
        let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(1), 1000, 900));
        apply_to_proxy(&proxy, "audio", &actions).unwrap();
        assert_eq!(proxy.filter_names("audio").unwrap(), vec!["fec-encoder(6,4)"]);

        // Traffic still flows through the adapted chain.
        input
            .send(Packet::new(
                StreamId::new(1),
                SeqNo::new(0),
                PacketKind::AudioData,
                vec![0u8; 32],
            ))
            .unwrap();
        assert_eq!(output.recv().unwrap().seq().value(), 0);

        // Heavier loss: encoder replaced by the stronger tier.
        let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(2), 1000, 1000));
        apply_to_proxy(&proxy, "audio", &actions).unwrap();
        let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(3), 1000, 700));
        apply_to_proxy(&proxy, "audio", &actions).unwrap();
        assert_eq!(proxy.filter_names("audio").unwrap(), vec!["fec-encoder(8,4)"]);

        // Recovery: encoder removed again.
        let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(4), 1000, 1000));
        apply_to_proxy(&proxy, "audio", &actions).unwrap();
        assert!(proxy.filter_names("audio").unwrap().is_empty());
        proxy.shutdown().unwrap();
    }

    #[test]
    fn remove_kind_for_missing_filter_is_a_no_op() {
        let mut proxy = Proxy::new("p");
        // The stream stays open while its input is held.
        let _ends = proxy.add_stream_pooled("s").unwrap();
        apply_to_proxy(
            &proxy,
            "s",
            &[AdaptationAction::RemoveKind {
                kind: "fec-encoder".to_string(),
            }],
        )
        .unwrap();
        assert!(proxy.filter_names("s").unwrap().is_empty());
        // Replace of a missing kind falls back to an insert at 0.
        apply_to_proxy(
            &proxy,
            "s",
            &[AdaptationAction::ReplaceKind {
                kind: "fec-encoder".to_string(),
                spec: rapidware_proxy::FilterSpec::new("fec-encoder"),
            }],
        )
        .unwrap();
        assert_eq!(proxy.filter_names("s").unwrap().len(), 1);
        proxy.shutdown().unwrap();
    }
}
