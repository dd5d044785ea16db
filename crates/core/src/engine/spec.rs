//! Declarative scenario descriptions.
//!
//! A [`ScenarioSpec`] says *what* to simulate — topology, loss regime,
//! media workload, raplet set, batch size — without saying how; the
//! [`ScenarioEngine`](super::ScenarioEngine) turns it into a closed-loop
//! run.  The module ships the built-in scenario matrix the test harness and
//! CI run at fixed seeds: steady WLAN, bursty Gilbert–Elliott, handoff
//! cliff, multicast fan-out with one lossy receiver, congestion ramp, and a
//! flapping link.

use std::fmt;

use rapidware_media::AudioConfig;
use rapidware_netsim::{
    BernoulliLoss, DistanceLossModel, GilbertElliottLoss, LinearWalk, LossModel, PerfectLink,
    ScheduledLoss, SimTime, StrideLoss, WirelessLan,
};

/// A degenerate scenario description, rejected before any simulation state
/// is built.
///
/// The engines used to `assert!` their way past these (or panic deep inside
/// `netsim` — an empty [`LossRegime::Phased`] only blew up when
/// `ScheduledLoss::new` was finally constructed).  Validation turns each
/// degenerate input into a typed, test-able error at the API boundary:
/// [`ScenarioSpec::validate`], [`FanoutSpec::validate`](super::FanoutSpec::validate),
/// and the engines' `try_run_with` entry points all return it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec transmits zero source packets.
    ZeroPackets {
        /// Name of the offending scenario.
        scenario: String,
    },
    /// A flat scenario with no receivers.
    NoReceivers {
        /// Name of the offending scenario.
        scenario: String,
    },
    /// A fanout scenario with no lanes.
    NoLanes {
        /// Name of the offending scenario.
        scenario: String,
    },
    /// A [`LossRegime::Phased`] with an empty phase list.
    EmptyPhases {
        /// Name of the offending scenario.
        scenario: String,
        /// Which receiver or lane carries the empty schedule.
        context: String,
    },
    /// A [`LossRegime::Walking`] nested inside [`LossRegime::Phased`]
    /// (mobility is already a function of time and cannot be phased).
    NestedWalk {
        /// Name of the offending scenario.
        scenario: String,
        /// Which receiver or lane carries the nested walk.
        context: String,
    },
    /// A stride regime with a zero stride.
    ZeroStride {
        /// Name of the offending scenario.
        scenario: String,
        /// Which receiver or lane carries the zero stride.
        context: String,
    },
    /// Two fanout lanes share a name (live sessions key lanes by name).
    DuplicateLane {
        /// Name of the offending scenario.
        scenario: String,
        /// The duplicated lane name.
        lane: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroPackets { scenario } => {
                write!(f, "{scenario}: a scenario must transmit at least one packet")
            }
            SpecError::NoReceivers { scenario } => {
                write!(f, "{scenario}: a scenario needs at least one receiver")
            }
            SpecError::NoLanes { scenario } => {
                write!(f, "{scenario}: a fanout scenario needs at least one lane")
            }
            SpecError::EmptyPhases { scenario, context } => {
                write!(f, "{scenario}: {context} has a phased regime with no phases")
            }
            SpecError::NestedWalk { scenario, context } => {
                write!(f, "{scenario}: {context} nests a walking regime inside phases")
            }
            SpecError::ZeroStride { scenario, context } => {
                write!(f, "{scenario}: {context} has a stride regime with stride 0")
            }
            SpecError::DuplicateLane { scenario, lane } => {
                write!(f, "{scenario}: duplicate lane name {lane:?}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Validates one receiver/lane regime, shared by [`ScenarioSpec::validate`]
/// and [`FanoutSpec::validate`](super::FanoutSpec::validate).
pub(super) fn validate_regime(
    regime: &LossRegime,
    scenario: &str,
    context: &str,
) -> Result<(), SpecError> {
    match regime {
        LossRegime::Stride { every: 0 } => Err(SpecError::ZeroStride {
            scenario: scenario.to_string(),
            context: context.to_string(),
        }),
        LossRegime::Phased(phases) => {
            if phases.is_empty() {
                return Err(SpecError::EmptyPhases {
                    scenario: scenario.to_string(),
                    context: context.to_string(),
                });
            }
            for (_, inner) in phases {
                if matches!(inner, LossRegime::Walking(_)) {
                    return Err(SpecError::NestedWalk {
                        scenario: scenario.to_string(),
                        context: context.to_string(),
                    });
                }
                validate_regime(inner, scenario, context)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The loss regime of one receiver's wireless channel over the whole run.
///
/// Regimes are *descriptions*: [`attach`](LossRegime::attach) instantiates
/// the corresponding `netsim` machinery on a [`WirelessLan`], so the same
/// spec can be re-run any number of times (and on any applier) with
/// identical behaviour per seed.
#[derive(Debug, Clone, PartialEq)]
pub enum LossRegime {
    /// No loss at all.
    Perfect,
    /// Independent per-packet loss at a fixed rate.
    Bernoulli {
        /// Per-packet loss probability in `[0, 1]`.
        rate: f64,
    },
    /// Distance-dependent loss for a stationary receiver (the WaveLAN
    /// calibration of the paper's testbed).
    AtDistance {
        /// Distance from the access point in meters.
        meters: f64,
    },
    /// Two-state Markov burst loss.
    GilbertElliott {
        /// Probability of entering the bad state, per packet.
        p_good_to_bad: f64,
        /// Probability of leaving the bad state, per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
    /// Deterministic stride loss: every `every`-th transmission dropped.
    /// The generator's sharpest probe of FEC block alignment — a stride
    /// beating against the (n, k) group size produces worst-case
    /// correlated erasures.
    Stride {
        /// Drop every `every`-th packet (must be at least 1).
        every: u64,
    },
    /// A mobile receiver walking the given trace under distance loss.
    Walking(LinearWalk),
    /// Time-phased regime: each `(start, regime)` phase is in effect from
    /// its start time until the next phase begins.  Phases may not nest
    /// [`Walking`](LossRegime::Walking) (mobility is already a function of
    /// time).
    Phased(Vec<(SimTime, LossRegime)>),
}

impl LossRegime {
    /// Builds the loss model for this regime.
    ///
    /// # Panics
    ///
    /// Panics on [`LossRegime::Walking`] (mobile receivers attach through
    /// the LAN's mobility API, not through a bare loss model) — including a
    /// `Walking` nested inside [`LossRegime::Phased`].
    fn to_model(&self) -> Box<dyn LossModel> {
        match self {
            LossRegime::Perfect => Box::new(PerfectLink),
            LossRegime::Bernoulli { rate } => Box::new(BernoulliLoss::new(*rate)),
            LossRegime::AtDistance { meters } => {
                let mut model = DistanceLossModel::wavelan_2mbps();
                model.set_distance(*meters);
                Box::new(model)
            }
            LossRegime::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => Box::new(GilbertElliottLoss::new(
                *p_good_to_bad,
                *p_bad_to_good,
                *loss_good,
                *loss_bad,
            )),
            LossRegime::Stride { every } => Box::new(StrideLoss::new(*every)),
            LossRegime::Phased(phases) => Box::new(ScheduledLoss::new(
                phases
                    .iter()
                    .map(|(start, regime)| (*start, regime.to_model()))
                    .collect(),
            )),
            LossRegime::Walking(_) => {
                panic!("walking receivers attach via mobility, not a bare loss model")
            }
        }
    }

    /// Attaches a receiver with this regime to `lan` under `name`.
    pub fn attach(&self, lan: &mut WirelessLan, name: &str) {
        match self {
            LossRegime::Walking(walk) => {
                lan.add_mobile_receiver(name, DistanceLossModel::wavelan_2mbps(), Box::new(*walk));
            }
            other => {
                lan.add_receiver(name, other.to_model());
            }
        }
    }
}

/// The raplet set installed into the adaptation engine for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RapletSet {
    /// Loss-observer thresholds `(high, low)` as loss fractions.
    pub loss_thresholds: (f64, f64),
    /// Exponential smoothing factor of the loss observer, in `(0, 1]`.
    pub smoothing: f64,
    /// FEC parameters `(n, k)` installed on a moderate loss rise.
    pub fec_moderate: (usize, usize),
    /// FEC parameters `(n, k)` installed when loss is heavy.
    pub fec_strong: (usize, usize),
    /// Smoothed loss rate at which the strong tier is preferred.
    pub strong_threshold: f64,
}

impl RapletSet {
    /// The paper's configuration: insert FEC(6,4) above 2 % loss, upgrade
    /// to FEC(8,4) above 10 %, remove below 0.5 %.
    pub fn paper_default() -> Self {
        Self {
            loss_thresholds: (0.02, 0.005),
            smoothing: 0.5,
            fec_moderate: (6, 4),
            fec_strong: (8, 4),
            strong_threshold: 0.10,
        }
    }
}

/// A complete, declarative description of one closed-loop scenario.
///
/// Everything a run depends on is in the spec: the same spec and seed yield
/// a byte-identical [`ScenarioTrace`](super::ScenarioTrace) on every run,
/// on either applier.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in traces and reports).
    pub name: String,
    /// RNG seed for the network simulator.
    pub seed: u64,
    /// Number of source media packets to transmit.
    pub packets: u64,
    /// The media workload (packet sizes, rates, timestamps).
    pub audio: AudioConfig,
    /// One loss regime per receiver; receiver 0 is the monitored link that
    /// feeds the adaptation engine.
    pub receivers: Vec<LossRegime>,
    /// The raplets driving adaptation.
    pub raplets: RapletSet,
    /// Width of the sampling window, in source packets.
    pub sample_interval: u64,
    /// Task batch size used by the live appliers (1 = per-packet).
    pub batch_size: usize,
    /// Whether this scenario's loss schedule should provoke at least one
    /// FEC insertion (checked by the scenario-matrix harness).
    pub expect_adaptation: bool,
    /// Whether the link is clean again at the end of the run, so the chain
    /// must have converged back to empty (no FEC installed).
    pub expect_clean_finish: bool,
    /// Whether the run brackets the chain with the AEAD secure-channel
    /// pair: an `encrypt` stage seals every payload and a `decrypt` stage
    /// verifies-then-strips it, with one key rotation spliced in at the
    /// run's midpoint.  The stages are installed before the first window,
    /// so FEC adaptation (which inserts at the head) ends up upstream of
    /// them and parity is sealed too.  Specs with this flag cannot expect
    /// a clean finish (the crypto stages stay installed).
    pub secure: bool,
}

impl ScenarioSpec {
    fn base(name: &str, packets: u64, receivers: Vec<LossRegime>) -> Self {
        Self {
            name: name.to_string(),
            seed: 2001,
            packets,
            audio: AudioConfig::pcm_8khz_stereo_8bit(),
            receivers,
            raplets: RapletSet::paper_default(),
            sample_interval: 50, // one second of audio per sample window
            batch_size: 8,
            expect_adaptation: true,
            expect_clean_finish: true,
            secure: false,
        }
    }

    /// Steady WLAN: one stationary receiver close to the access point.
    /// Loss stays far below the observer's threshold, so the control loop
    /// must stay quiet — the no-false-positive baseline.
    pub fn steady_wlan() -> Self {
        Self {
            expect_adaptation: false,
            ..Self::base(
                "steady-wlan",
                1_500,
                vec![LossRegime::AtDistance { meters: 10.0 }],
            )
        }
    }

    /// Bursty Gilbert–Elliott interference: a clean lead-in, a long bursty
    /// middle, and a clean tail.  FEC must appear during the bursts and
    /// disappear after they end.
    pub fn bursty_gilbert_elliott() -> Self {
        Self::base(
            "bursty-gilbert-elliott",
            2_500,
            vec![LossRegime::Phased(vec![
                (SimTime::ZERO, LossRegime::Perfect),
                (
                    SimTime::from_secs(8),
                    LossRegime::GilbertElliott {
                        p_good_to_bad: 0.05,
                        p_bad_to_good: 0.20,
                        loss_good: 0.001,
                        loss_bad: 0.6,
                    },
                ),
                (SimTime::from_secs(34), LossRegime::Perfect),
            ])],
        )
    }

    /// Handoff cliff: the link is perfect, collapses to 50 % loss during a
    /// simulated access-point handoff, then is perfect again.  The spike is
    /// heavy enough that the responder should go straight to its strong
    /// FEC tier.
    pub fn handoff_cliff() -> Self {
        Self::base(
            "handoff-cliff",
            2_000,
            vec![LossRegime::Phased(vec![
                (SimTime::ZERO, LossRegime::Perfect),
                (SimTime::from_secs(10), LossRegime::Bernoulli { rate: 0.5 }),
                (SimTime::from_secs(18), LossRegime::Perfect),
            ])],
        )
    }

    /// Multicast fan-out with one lossy receiver: five receivers share the
    /// stream; only the monitored one suffers a loss episode.  The sender
    /// inserts FEC for the lossy receiver's sake while the clean receivers
    /// simply absorb the parity overhead — the paper's multicast argument.
    pub fn multicast_fanout_lossy_receiver() -> Self {
        let mut receivers = vec![LossRegime::Phased(vec![
            (SimTime::ZERO, LossRegime::Perfect),
            (SimTime::from_secs(8), LossRegime::Bernoulli { rate: 0.12 }),
            (SimTime::from_secs(26), LossRegime::Perfect),
        ])];
        receivers.extend((0..4).map(|_| LossRegime::AtDistance { meters: 8.0 }));
        Self::base("multicast-fanout-lossy-receiver", 2_200, receivers)
    }

    /// Congestion ramp: loss climbs in steps, peaks, and subsides — the
    /// adaptation should track it up (possibly upgrading the code) and back
    /// down to an empty chain.
    pub fn congestion_ramp() -> Self {
        Self::base(
            "congestion-ramp",
            2_800,
            vec![LossRegime::Phased(vec![
                (SimTime::ZERO, LossRegime::Perfect),
                (SimTime::from_secs(8), LossRegime::Bernoulli { rate: 0.04 }),
                (SimTime::from_secs(16), LossRegime::Bernoulli { rate: 0.10 }),
                (SimTime::from_secs(24), LossRegime::Bernoulli { rate: 0.18 }),
                (SimTime::from_secs(32), LossRegime::Bernoulli { rate: 0.06 }),
                (SimTime::from_secs(40), LossRegime::Perfect),
            ])],
        )
    }

    /// Flapping link: the channel alternates between clean and badly lossy
    /// several times.  Hysteresis keeps the responses to one insert per bad
    /// episode and one removal per recovery — the event-storm regression
    /// scenario.
    pub fn flapping_link() -> Self {
        let mut phases = vec![(SimTime::ZERO, LossRegime::Perfect)];
        for flap in 0..3u64 {
            let start = 8 + flap * 12;
            phases.push((SimTime::from_secs(start), LossRegime::Bernoulli { rate: 0.30 }));
            phases.push((SimTime::from_secs(start + 5), LossRegime::Perfect));
        }
        Self::base("flapping-link", 2_600, vec![LossRegime::Phased(phases)])
    }

    /// The whole built-in scenario matrix, in a stable order.
    pub fn builtin_matrix() -> Vec<Self> {
        vec![
            Self::steady_wlan(),
            Self::bursty_gilbert_elliott(),
            Self::handoff_cliff(),
            Self::multicast_fanout_lossy_receiver(),
            Self::congestion_ramp(),
            Self::flapping_link(),
        ]
    }

    /// Checks the spec for degenerate inputs that would otherwise panic
    /// deep inside the engine or the simulator: zero packets, no
    /// receivers, empty phase lists, nested walks, zero strides.
    ///
    /// The engines call this from `try_run_with`; callers constructing
    /// specs programmatically (the scenario generator does) can call it
    /// directly to reject a sample before running anything.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.packets == 0 {
            return Err(SpecError::ZeroPackets {
                scenario: self.name.clone(),
            });
        }
        if self.receivers.is_empty() {
            return Err(SpecError::NoReceivers {
                scenario: self.name.clone(),
            });
        }
        for (index, regime) in self.receivers.iter().enumerate() {
            validate_regime(regime, &self.name, &format!("receiver {index}"))?;
        }
        Ok(())
    }

    /// Overrides the simulator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the live appliers' task batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Overrides the number of source packets.
    #[must_use]
    pub fn with_packets(mut self, packets: u64) -> Self {
        self.packets = packets;
        self
    }

    /// Enables the AEAD secure-channel bracket (see
    /// [`secure`](Self::secure)).  Clears `expect_clean_finish`: the crypto
    /// stages are meant to outlive the run.
    #[must_use]
    pub fn with_secure(mut self) -> Self {
        self.secure = true;
        self.expect_clean_finish = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matrix_is_complete_and_named() {
        let matrix = ScenarioSpec::builtin_matrix();
        assert_eq!(matrix.len(), 6);
        let names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "steady-wlan",
                "bursty-gilbert-elliott",
                "handoff-cliff",
                "multicast-fanout-lossy-receiver",
                "congestion-ramp",
                "flapping-link",
            ]
        );
        for spec in &matrix {
            assert!(!spec.receivers.is_empty(), "{} has no receivers", spec.name);
            assert!(spec.packets > 0);
            assert!(spec.sample_interval > 0);
        }
    }

    #[test]
    fn regimes_attach_to_a_lan() {
        let mut lan = WirelessLan::wavelan_2mbps(1);
        LossRegime::Perfect.attach(&mut lan, "perfect");
        LossRegime::Bernoulli { rate: 0.1 }.attach(&mut lan, "bernoulli");
        LossRegime::AtDistance { meters: 25.0 }.attach(&mut lan, "stationary");
        LossRegime::Walking(LinearWalk::office_to_conference_room()).attach(&mut lan, "walker");
        LossRegime::Phased(vec![
            (SimTime::ZERO, LossRegime::Perfect),
            (SimTime::from_secs(5), LossRegime::Bernoulli { rate: 0.5 }),
        ])
        .attach(&mut lan, "phased");
        assert_eq!(lan.receiver_count(), 5);
    }

    #[test]
    #[should_panic(expected = "mobility")]
    fn walking_inside_phases_is_rejected() {
        let mut lan = WirelessLan::wavelan_2mbps(1);
        LossRegime::Phased(vec![(
            SimTime::ZERO,
            LossRegime::Walking(LinearWalk::office_to_conference_room()),
        )])
        .attach(&mut lan, "bad");
    }

    #[test]
    fn every_builtin_spec_validates() {
        for spec in ScenarioSpec::builtin_matrix() {
            assert_eq!(spec.validate(), Ok(()), "{} must validate", spec.name);
        }
    }

    #[test]
    fn zero_packets_are_rejected_with_a_typed_error() {
        let spec = ScenarioSpec::steady_wlan().with_packets(0);
        assert_eq!(
            spec.validate(),
            Err(SpecError::ZeroPackets {
                scenario: "steady-wlan".into()
            })
        );
    }

    #[test]
    fn a_spec_without_receivers_is_rejected_with_a_typed_error() {
        let mut spec = ScenarioSpec::steady_wlan();
        spec.receivers.clear();
        assert_eq!(
            spec.validate(),
            Err(SpecError::NoReceivers {
                scenario: "steady-wlan".into()
            })
        );
    }

    #[test]
    fn an_empty_phase_list_is_rejected_with_a_typed_error() {
        let mut spec = ScenarioSpec::steady_wlan();
        spec.receivers = vec![LossRegime::Perfect, LossRegime::Phased(Vec::new())];
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            SpecError::EmptyPhases {
                scenario: "steady-wlan".into(),
                context: "receiver 1".into()
            }
        );
        assert!(err.to_string().contains("no phases"), "{err}");
    }

    #[test]
    fn a_walk_nested_inside_phases_is_rejected_with_a_typed_error() {
        let mut spec = ScenarioSpec::steady_wlan();
        spec.receivers = vec![LossRegime::Phased(vec![(
            SimTime::ZERO,
            LossRegime::Walking(LinearWalk::office_to_conference_room()),
        )])];
        assert!(matches!(spec.validate(), Err(SpecError::NestedWalk { .. })));
    }

    #[test]
    fn a_zero_stride_is_rejected_with_a_typed_error() {
        let mut spec = ScenarioSpec::steady_wlan();
        spec.receivers = vec![LossRegime::Phased(vec![(
            SimTime::ZERO,
            LossRegime::Stride { every: 0 },
        )])];
        assert!(matches!(spec.validate(), Err(SpecError::ZeroStride { .. })));
        spec.receivers = vec![LossRegime::Stride { every: 3 }];
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn stride_regimes_attach_and_drop_deterministically() {
        let mut lan = WirelessLan::wavelan_2mbps(9);
        LossRegime::Stride { every: 2 }.attach(&mut lan, "stride");
        assert_eq!(lan.receiver_count(), 1);
    }

    #[test]
    fn builders_override_fields() {
        let spec = ScenarioSpec::steady_wlan()
            .with_seed(99)
            .with_batch_size(0)
            .with_packets(10);
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.batch_size, 1, "batch size is clamped to at least 1");
        assert_eq!(spec.packets, 10);
    }
}
