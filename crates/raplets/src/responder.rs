//! Responder raplets: turn adaptation events into chain reconfigurations.

use std::fmt;

use rapidware_proxy::FilterSpec;

use crate::observer::AdaptationEvent;

/// A reconfiguration requested by a responder.
///
/// Actions are descriptions, not side effects: the adaptation engine's
/// caller applies them to whichever chain implementation it runs (a live
/// proxy, the synchronous simulation chain, or a remote proxy via the
/// control protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptationAction {
    /// Instantiate a filter from `spec` and splice it in at `position`.
    Insert {
        /// Chain position (0 = closest to the source).
        position: usize,
        /// What to instantiate.
        spec: FilterSpec,
    },
    /// Remove the first installed filter whose kind matches.
    RemoveKind {
        /// Registered filter kind (e.g. `fec-encoder`).
        kind: String,
    },
    /// Replace the first filter of `kind` with a new instantiation of
    /// `spec` (used to change FEC parameters in place).
    ReplaceKind {
        /// Kind of the filter to replace.
        kind: String,
        /// Replacement specification.
        spec: FilterSpec,
    },
}

/// A responder raplet: reacts to events with reconfiguration actions.
pub trait Responder: Send + fmt::Debug {
    /// Short display name.
    fn name(&self) -> &str;

    /// Handles one event, returning the actions it wants applied.
    fn handle(&mut self, event: &AdaptationEvent) -> Vec<AdaptationAction>;
}

/// Inserts, tunes, and removes an FEC encoder in response to loss events —
/// the paper's motivating adaptation ("when losses rise above a given
/// level, the RAPIDware system should insert an FEC filter into the video
/// stream", Section 3).
///
/// The responder is demand-driven and tiered: moderate loss gets the
/// paper's FEC(6,4); heavy loss upgrades to a stronger code; when the link
/// recovers the filter is removed so no bandwidth is wasted on parity.
#[derive(Debug, Clone)]
pub struct FecResponder {
    name: String,
    position: usize,
    moderate: (usize, usize),
    strong: (usize, usize),
    strong_threshold: f64,
    installed: Option<(usize, usize)>,
    frame_aligned: bool,
}

impl FecResponder {
    /// Creates a responder that installs `moderate` = (n, k) FEC at
    /// `position` when loss rises, upgrades to `strong` when the loss rate
    /// exceeds `strong_threshold`, and removes the encoder when loss clears.
    pub fn new(
        position: usize,
        moderate: (usize, usize),
        strong: (usize, usize),
        strong_threshold: f64,
    ) -> Self {
        Self {
            name: format!(
                "fec-responder({},{})/({},{})",
                moderate.0, moderate.1, strong.0, strong.1
            ),
            position,
            moderate,
            strong,
            strong_threshold,
            installed: None,
            frame_aligned: false,
        }
    }

    /// The paper's configuration: FEC(6,4) for moderate loss, FEC(8,4) when
    /// loss exceeds 10 %.
    pub fn paper_default() -> Self {
        Self::new(0, (6, 4), (8, 4), 0.10)
    }

    /// Requests frame-boundary-aligned insertion (for video streams).
    #[must_use]
    pub fn frame_aligned(mut self) -> Self {
        self.frame_aligned = true;
        self
    }

    /// The FEC parameters currently installed by this responder, if any.
    pub fn installed(&self) -> Option<(usize, usize)> {
        self.installed
    }

    fn spec_for(&self, params: (usize, usize)) -> FilterSpec {
        let mut spec = FilterSpec::new("fec-encoder")
            .with_param("n", params.0.to_string())
            .with_param("k", params.1.to_string());
        if self.frame_aligned {
            spec = spec.with_param("frame_aligned", "true");
        }
        spec
    }
}

impl Responder for FecResponder {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, event: &AdaptationEvent) -> Vec<AdaptationAction> {
        match *event {
            AdaptationEvent::LossRoseAbove { rate, .. } => {
                let desired = if rate >= self.strong_threshold {
                    self.strong
                } else {
                    self.moderate
                };
                match self.installed {
                    None => {
                        self.installed = Some(desired);
                        vec![AdaptationAction::Insert {
                            position: self.position,
                            spec: self.spec_for(desired),
                        }]
                    }
                    Some(current) if current != desired => {
                        self.installed = Some(desired);
                        vec![AdaptationAction::ReplaceKind {
                            kind: "fec-encoder".to_string(),
                            spec: self.spec_for(desired),
                        }]
                    }
                    Some(_) => Vec::new(),
                }
            }
            AdaptationEvent::LossFellBelow { .. } => {
                if self.installed.take().is_some() {
                    vec![AdaptationAction::RemoveKind {
                        kind: "fec-encoder".to_string(),
                    }]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }
}

/// Inserts and removes an audio transcoder in response to throughput events
/// (the classic proxy duty of "transcoding and filtering of data streams to
/// reduce bandwidth and load on mobile clients").
#[derive(Debug, Clone)]
pub struct TranscoderResponder {
    name: String,
    position: usize,
    mode: String,
    installed: bool,
}

impl TranscoderResponder {
    /// Creates a responder that installs a transcoder (of the given
    /// registry mode string) at `position` when throughput drops.
    pub fn new(position: usize, mode: impl Into<String>) -> Self {
        let mode = mode.into();
        Self {
            name: format!("transcoder-responder({mode})"),
            position,
            mode,
            installed: false,
        }
    }

    /// Default: convert stereo to mono ahead of the wireless hop.
    pub fn stereo_to_mono() -> Self {
        Self::new(0, "stereo-to-mono")
    }

    /// Whether the transcoder is currently installed by this responder.
    pub fn is_installed(&self) -> bool {
        self.installed
    }
}

impl Responder for TranscoderResponder {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, event: &AdaptationEvent) -> Vec<AdaptationAction> {
        match event {
            AdaptationEvent::ThroughputDropped { .. } if !self.installed => {
                self.installed = true;
                vec![AdaptationAction::Insert {
                    position: self.position,
                    spec: FilterSpec::new("transcoder").with_param("mode", self.mode.clone()),
                }]
            }
            AdaptationEvent::ThroughputRecovered { .. } if self.installed => {
                self.installed = false;
                vec![AdaptationAction::RemoveKind {
                    kind: "transcoder".to_string(),
                }]
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_up(rate: f64) -> AdaptationEvent {
        AdaptationEvent::LossRoseAbove {
            rate,
            threshold: 0.02,
        }
    }

    fn loss_down() -> AdaptationEvent {
        AdaptationEvent::LossFellBelow {
            rate: 0.001,
            threshold: 0.005,
        }
    }

    #[test]
    fn fec_responder_inserts_then_removes() {
        let mut responder = FecResponder::paper_default();
        let actions = responder.handle(&loss_up(0.03));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            AdaptationAction::Insert { position, spec } => {
                assert_eq!(*position, 0);
                assert_eq!(spec.kind, "fec-encoder");
                assert_eq!(spec.param("n"), Some("6"));
                assert_eq!(spec.param("k"), Some("4"));
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(responder.installed(), Some((6, 4)));
        // A second rise event while installed with the same tier: no action.
        assert!(responder.handle(&loss_up(0.03)).is_empty());
        // Loss clears: encoder removed.
        let actions = responder.handle(&loss_down());
        assert_eq!(
            actions,
            vec![AdaptationAction::RemoveKind {
                kind: "fec-encoder".to_string()
            }]
        );
        assert_eq!(responder.installed(), None);
        // Removing again is a no-op.
        assert!(responder.handle(&loss_down()).is_empty());
    }

    #[test]
    fn fec_responder_upgrades_under_heavy_loss() {
        let mut responder = FecResponder::paper_default();
        responder.handle(&loss_up(0.03));
        let actions = responder.handle(&loss_up(0.2));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            AdaptationAction::ReplaceKind { kind, spec } => {
                assert_eq!(kind, "fec-encoder");
                assert_eq!(spec.param("n"), Some("8"));
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(responder.installed(), Some((8, 4)));
    }

    #[test]
    fn fec_responder_installs_strong_tier_directly_under_heavy_loss() {
        let mut responder = FecResponder::paper_default();
        let actions = responder.handle(&loss_up(0.5));
        match &actions[0] {
            AdaptationAction::Insert { spec, .. } => assert_eq!(spec.param("n"), Some("8")),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn frame_aligned_spec_carries_the_flag() {
        let mut responder = FecResponder::paper_default().frame_aligned();
        let actions = responder.handle(&loss_up(0.03));
        match &actions[0] {
            AdaptationAction::Insert { spec, .. } => {
                assert_eq!(spec.param("frame_aligned"), Some("true"));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn fec_responder_ignores_throughput_events() {
        let mut responder = FecResponder::paper_default();
        assert!(responder
            .handle(&AdaptationEvent::ThroughputDropped {
                bits_per_second: 1,
                floor_bps: 2
            })
            .is_empty());
    }

    #[test]
    fn transcoder_responder_round_trip() {
        let mut responder = TranscoderResponder::stereo_to_mono();
        assert!(!responder.is_installed());
        let drop_event = AdaptationEvent::ThroughputDropped {
            bits_per_second: 100_000,
            floor_bps: 128_000,
        };
        let actions = responder.handle(&drop_event);
        assert!(matches!(actions[0], AdaptationAction::Insert { .. }));
        assert!(responder.is_installed());
        assert!(responder.handle(&drop_event).is_empty());
        let recover = AdaptationEvent::ThroughputRecovered {
            bits_per_second: 2_000_000,
            floor_bps: 128_000,
        };
        let actions = responder.handle(&recover);
        assert!(matches!(actions[0], AdaptationAction::RemoveKind { .. }));
        assert!(!responder.is_installed());
    }
}
