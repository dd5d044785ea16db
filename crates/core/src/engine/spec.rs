//! Declarative scenario descriptions.
//!
//! A [`ScenarioSpec`] says *what* to simulate — a head chain, the lanes
//! that fan out of it and the receivers each lane reaches, the media
//! workload, the FEC policy and where it acts, batch size — without saying
//! how; the [`ScenarioEngine`](super::ScenarioEngine) turns it into a
//! closed-loop run.  The module ships the built-in scenarios the test
//! harness and CI run at fixed seeds: six one-lane multicast scenarios
//! (steady WLAN, bursty Gilbert–Elliott, handoff cliff, multicast fan-out
//! with one lossy receiver, congestion ramp, and a flapping link), three
//! fanout scenarios with one receiver per lane, and the paper's evaluation
//! presets: Figure 7, its multicast widening, and the adaptive
//! office-to-conference-room walk.

use std::collections::HashSet;
use std::fmt;

use rapidware_fec::FecCodec;
use rapidware_media::AudioConfig;
use rapidware_netsim::{
    BernoulliLoss, DistanceLossModel, GilbertElliottLoss, LinearWalk, LossModel, PerfectLink,
    ReceiverId, ScheduledLoss, SimTime, StrideLoss, WirelessLan,
};
use rapidware_proxy::{FilterRegistry, FilterSpec};
use rapidware_raplets::{AdaptationEngine, FecResponder, LossRateObserver};

/// A degenerate scenario description, rejected before any simulation state
/// is built.
///
/// Validation turns each degenerate input into a typed, test-able error at
/// the API boundary: [`ScenarioSpec::validate`] and
/// [`ScenarioEngine::try_run_sync`](super::ScenarioEngine::try_run_sync)
/// return it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec transmits zero source packets.
    ZeroPackets {
        /// Name of the offending scenario.
        scenario: String,
    },
    /// A scenario with no lanes.
    NoLanes {
        /// Name of the offending scenario.
        scenario: String,
    },
    /// A lane that reaches no receiver.
    NoReceivers {
        /// Name of the offending scenario.
        scenario: String,
        /// The lane without receivers.
        lane: String,
    },
    /// A [`LossRegime::Phased`] with an empty phase list.
    EmptyPhases {
        /// Name of the offending scenario.
        scenario: String,
        /// Which receiver carries the empty schedule.
        context: String,
    },
    /// A [`LossRegime::Walking`] nested inside [`LossRegime::Phased`]
    /// (mobility is already a function of time and cannot be phased).
    NestedWalk {
        /// Name of the offending scenario.
        scenario: String,
        /// Which receiver carries the nested walk.
        context: String,
    },
    /// A stride regime with a zero stride.
    ZeroStride {
        /// Name of the offending scenario.
        scenario: String,
        /// Which receiver carries the zero stride.
        context: String,
    },
    /// Two lanes share a name (live sessions key lanes by name).
    DuplicateLane {
        /// Name of the offending scenario.
        scenario: String,
        /// The duplicated lane name.
        lane: String,
    },
    /// A head filter the filter registry cannot build: an unknown kind or
    /// parameters its constructor rejects.
    InvalidHeadFilter {
        /// Name of the offending scenario.
        scenario: String,
        /// The head filter's kind.
        kind: String,
        /// The registry's reason.
        reason: String,
    },
    /// An FEC code `(n, k)` the codec rejects (`k = 0`, `n < k` or
    /// `n > 255`), named by a [`FecPolicy::Fixed`] or a [`RapletSet`] tier.
    InvalidFecCode {
        /// Name of the offending scenario.
        scenario: String,
        /// Total shards per block.
        n: usize,
        /// Source shards per block.
        k: usize,
    },
    /// A [`RapletSet`] the loss observer rejects: a threshold outside
    /// `[0, 1]`, a high threshold below the low one, or a smoothing factor
    /// outside `(0, 1]`.
    InvalidRaplets {
        /// Name of the offending scenario.
        scenario: String,
        /// Which constraint the set breaks.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroPackets { scenario } => {
                write!(f, "{scenario}: a scenario must transmit at least one packet")
            }
            SpecError::NoLanes { scenario } => {
                write!(f, "{scenario}: a scenario needs at least one lane")
            }
            SpecError::NoReceivers { scenario, lane } => {
                write!(f, "{scenario}: lane {lane} needs at least one receiver")
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
            SpecError::InvalidHeadFilter {
                scenario,
                kind,
                reason,
            } => write!(f, "{scenario}: head filter {kind} cannot be built: {reason}"),
            SpecError::InvalidFecCode { scenario, n, k } => {
                write!(f, "{scenario}: FEC({n},{k}) is not a valid (n, k) code")
            }
            SpecError::InvalidRaplets { scenario, reason } => {
                write!(f, "{scenario}: invalid raplet set: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Validates one receiver's regime.
fn validate_regime(regime: &LossRegime, scenario: &str, context: &str) -> Result<(), SpecError> {
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
    pub fn attach(&self, lan: &mut WirelessLan, name: &str) -> ReceiverId {
        match self {
            LossRegime::Walking(walk) => {
                lan.add_mobile_receiver(name, DistanceLossModel::wavelan_2mbps(), *walk)
            }
            other => lan.add_receiver(name, other.to_model()),
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

    /// Checks the set against what the observer and the codec accept, so a
    /// bad set comes back as a [`SpecError`] instead of a panic mid-run.
    pub(super) fn validate(&self, scenario: &str) -> Result<(), SpecError> {
        let invalid = |reason: String| {
            Err(SpecError::InvalidRaplets {
                scenario: scenario.to_string(),
                reason,
            })
        };
        let (high, low) = self.loss_thresholds;
        if !(0.0..=1.0).contains(&high) || !(0.0..=1.0).contains(&low) {
            return invalid(format!("loss thresholds ({high}, {low}) must lie in [0, 1]"));
        }
        if high < low {
            return invalid(format!("high loss threshold {high} is below the low threshold {low}"));
        }
        if !(self.smoothing > 0.0 && self.smoothing <= 1.0) {
            return invalid(format!("smoothing {} must lie in (0, 1]", self.smoothing));
        }
        self.decoder_codes()
            .into_iter()
            .try_for_each(|code| validate_code(code, scenario))
    }

    /// The observer/responder loop this set describes, ready to ingest
    /// link samples.
    pub(super) fn adaptation_engine(&self) -> AdaptationEngine {
        let (high, low) = self.loss_thresholds;
        let mut engine = AdaptationEngine::new();
        engine.add_observer(Box::new(
            LossRateObserver::with_thresholds(high, low).with_smoothing(self.smoothing),
        ));
        engine.add_responder(Box::new(FecResponder::new(
            0,
            self.fec_moderate,
            self.fec_strong,
            self.strong_threshold,
        )));
        engine
    }

    /// The distinct (n, k) codes the responder can install, which every
    /// receiver must be able to decode.
    pub(super) fn decoder_codes(&self) -> Vec<(usize, usize)> {
        let mut codes = vec![self.fec_moderate];
        if self.fec_strong != self.fec_moderate {
            codes.push(self.fec_strong);
        }
        codes
    }
}

fn validate_code((n, k): (usize, usize), scenario: &str) -> Result<(), SpecError> {
    FecCodec::new(n, k)
        .map(drop)
        .map_err(|_| SpecError::InvalidFecCode {
            scenario: scenario.to_string(),
            n,
            k,
        })
}

/// How a scenario's chains carry FEC.
#[derive(Debug, Clone, PartialEq)]
pub enum FecPolicy {
    /// No FEC: the chains never carry an encoder and receivers surface
    /// exactly what the link delivered.
    Off,
    /// A static `fec-encoder(n, k)`, installed before the first window and
    /// kept for the whole run (the paper's Figure 7 setup).
    Fixed(usize, usize),
    /// The raplets insert, upgrade and remove the encoder as the monitored
    /// link's loss changes.
    Adaptive(RapletSet),
}

impl FecPolicy {
    /// Checks the policy's codes and raplet set.
    fn validate(&self, scenario: &str) -> Result<(), SpecError> {
        match self {
            FecPolicy::Off => Ok(()),
            FecPolicy::Fixed(n, k) => validate_code((*n, *k), scenario),
            FecPolicy::Adaptive(raplets) => raplets.validate(scenario),
        }
    }

    /// The adaptation loop, for the adaptive policy only.
    pub(super) fn adaptation_engine(&self) -> Option<AdaptationEngine> {
        match self {
            FecPolicy::Adaptive(raplets) => Some(raplets.adaptation_engine()),
            _ => None,
        }
    }

    /// The (n, k) codes each receiver decodes (none when FEC is off).
    pub(super) fn decoder_codes(&self) -> Vec<(usize, usize)> {
        match self {
            FecPolicy::Off => Vec::new(),
            FecPolicy::Fixed(n, k) => vec![(*n, *k)],
            FecPolicy::Adaptive(raplets) => raplets.decoder_codes(),
        }
    }
}

/// Where a scenario's [`FecPolicy`] acts: the chain its encoder sits on and
/// its adaptation loop watches and splices.  It also fixes how the trace
/// names each step, so it is the one datum that tells a one-lane multicast
/// run from a one-lane fanout run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FecSite {
    /// The head chain, which every lane shares: one loop watches the first
    /// receiver of the first lane and splices the head.  This is the
    /// paper's multicast argument — one adapted chain, and the clean
    /// receivers absorb the parity inserted for a lossy one.  Trace steps
    /// carry no lane index.
    Head,
    /// Each lane's own tail: every lane runs its own loop on its own first
    /// receiver and splices only its tail, so FEC appears only where a link
    /// needs it.  Trace steps carry `lane=`.
    Lanes,
}

/// One egress lane of a scenario: the receivers its traffic reaches.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Lane name (the live session's lane key; lane traces name it).
    pub name: String,
    /// One loss regime per receiver this lane reaches; receiver 0 is the
    /// lane's monitored link.  One transmission reaches them all.
    pub receivers: Vec<LossRegime>,
    /// Whether this lane's loss schedule should provoke at least one FEC
    /// insertion on the chain it crosses (checked by the health harness;
    /// its inverse — no parity, no actions — is checked when `false`).
    pub expect_adaptation: bool,
}

impl LaneSpec {
    /// A lane reaching `receivers`, expected to stay quiet.
    pub fn new(name: &str, receivers: Vec<LossRegime>) -> Self {
        Self {
            name: name.to_string(),
            receivers,
            expect_adaptation: false,
        }
    }

    /// A wired lane: one lossless receiver, expected to stay quiet.
    pub fn wired(name: &str) -> Self {
        Self::new(name, vec![LossRegime::Perfect])
    }

    /// A lane to one receiver under `regime` whose loop is expected to
    /// fire.
    pub fn lossy(name: &str, regime: LossRegime) -> Self {
        Self {
            expect_adaptation: true,
            ..Self::new(name, vec![regime])
        }
    }
}

/// The lane name of the one-lane multicast built-ins.
const MULTICAST_LANE: &str = "lan";

/// A complete, declarative description of one closed-loop scenario: one
/// source, a head chain, and the lanes that fan out of it.
///
/// Everything a run depends on is in the spec: the same spec and seed yield
/// a byte-identical [`ScenarioTrace`](super::ScenarioTrace) on every run,
/// on every applier.
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
    /// Filters installed on the head chain before the run starts.
    pub head_filters: Vec<FilterSpec>,
    /// The egress lanes, in order; each carries the head's output to its
    /// receivers.
    pub lanes: Vec<LaneSpec>,
    /// How the chains carry FEC: not at all, a fixed code, or under the
    /// raplets' control.
    pub fec: FecPolicy,
    /// Which chain the FEC policy acts on: the shared head or each lane.
    pub fec_site: FecSite,
    /// Width of the sampling window, in source packets.
    pub sample_interval: u64,
    /// Task batch size used by the live appliers (1 = per-packet).
    pub batch_size: usize,
    /// Whether every link is clean again at the end of the run, so no FEC
    /// encoder may be left installed.
    pub expect_clean_finish: bool,
    /// Whether the run brackets the chains the FEC policy acts on with the
    /// AEAD secure-channel pair: an `encrypt` stage seals every payload and
    /// a `decrypt` stage verifies-then-strips it, with one key rotation
    /// spliced in at the run's midpoint.  The stages are installed before
    /// the first window, so FEC (which inserts at the front) ends up
    /// upstream of them and parity is sealed too.
    pub secure: bool,
}

impl ScenarioSpec {
    /// The one-lane multicast shape: one lane reaching every receiver, the
    /// paper's raplets adapting the shared head.
    fn multicast_base(name: &str, packets: u64, receivers: Vec<LossRegime>) -> Self {
        Self {
            name: name.to_string(),
            seed: 2001,
            packets,
            audio: AudioConfig::pcm_8khz_stereo_8bit(),
            head_filters: Vec::new(),
            lanes: vec![LaneSpec {
                expect_adaptation: true,
                ..LaneSpec::new(MULTICAST_LANE, receivers)
            }],
            fec: FecPolicy::Adaptive(RapletSet::paper_default()),
            fec_site: FecSite::Head,
            sample_interval: 50, // one second of audio per sample window
            batch_size: 8,
            expect_clean_finish: true,
            secure: false,
        }
    }

    /// The fanout shape: one receiver per lane, each lane adapting its own
    /// tail.
    pub(super) fn fanout_base(name: &str, packets: u64, lanes: Vec<LaneSpec>) -> Self {
        Self {
            lanes,
            fec_site: FecSite::Lanes,
            ..Self::multicast_base(name, packets, Vec::new())
        }
    }

    /// The one-lane multicast shape with its lane expected to stay quiet.
    fn quiet_multicast(name: &str, packets: u64, receivers: Vec<LossRegime>) -> Self {
        Self {
            lanes: vec![LaneSpec::new(MULTICAST_LANE, receivers)],
            ..Self::multicast_base(name, packets, Vec::new())
        }
    }

    /// Steady WLAN: one stationary receiver close to the access point.
    /// Loss stays far below the observer's threshold, so the control loop
    /// must stay quiet — the no-false-positive baseline.
    pub fn steady_wlan() -> Self {
        Self::quiet_multicast("steady-wlan", 1_500, vec![LossRegime::AtDistance { meters: 10.0 }])
    }

    /// Bursty Gilbert–Elliott interference: a clean lead-in, a long bursty
    /// middle, and a clean tail.  FEC must appear during the bursts and
    /// disappear after they end.
    pub fn bursty_gilbert_elliott() -> Self {
        Self::multicast_base(
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
        Self::multicast_base(
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
        Self::multicast_base("multicast-fanout-lossy-receiver", 2_200, receivers)
    }

    /// Congestion ramp: loss climbs in steps, peaks, and subsides — the
    /// adaptation should track it up (possibly upgrading the code) and back
    /// down to an empty chain.
    pub fn congestion_ramp() -> Self {
        Self::multicast_base(
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
        Self::multicast_base("flapping-link", 2_600, vec![LossRegime::Phased(phases)])
    }

    /// The built-in scenarios, in a stable order: the six one-lane
    /// multicast scenarios, then the three fanout scenarios.
    pub fn builtin_matrix() -> Vec<Self> {
        vec![
            Self::steady_wlan(),
            Self::bursty_gilbert_elliott(),
            Self::handoff_cliff(),
            Self::multicast_fanout_lossy_receiver(),
            Self::congestion_ramp(),
            Self::flapping_link(),
            Self::wired_plus_lossy_wlan(),
            Self::tiered_wireless(),
            Self::all_wired(),
        ]
    }

    /// The paper's Figure 7: 8 kHz stereo 8-bit PCM audio through a static
    /// FEC(6,4) encoder, multicast to three laptops 25 m from the access
    /// point (≈1.46 % loss each), 5,184 packets — twelve of the paper's
    /// 432-packet statistics windows.  The paper reports 98.54 % received
    /// and 99.98 % after reconstruction.
    pub fn figure7() -> Self {
        Self {
            fec: FecPolicy::Fixed(6, 4),
            expect_clean_finish: false,
            ..Self::quiet_multicast(
                "figure7",
                5_184,
                vec![LossRegime::AtDistance { meters: 25.0 }; 3],
            )
        }
    }

    /// The Figure 7 pipeline serving `receivers` laptops at 25 m instead of
    /// three, over 2,000 packets.  Losses are independent per receiver, so
    /// one parity packet repairs different packets at different receivers —
    /// the paper's argument for block erasure codes on multicast.
    pub fn multicast(receivers: usize) -> Self {
        Self {
            name: format!("multicast-{receivers}"),
            packets: 2_000,
            ..Self::figure7()
                .with_receivers(vec![LossRegime::AtDistance { meters: 25.0 }; receivers.max(1)])
        }
    }

    /// The Section 3 walk: one user starts near the access point and walks
    /// to a conference room down the hall while three minutes of audio
    /// play; the raplets splice FEC in once loss rises.  The walk ends in
    /// the lossy room, so FEC stays installed.
    pub fn adaptive_walk() -> Self {
        Self {
            expect_clean_finish: false,
            ..Self::multicast_base(
                "adaptive-walk",
                9_000,
                vec![LossRegime::Walking(LinearWalk::office_to_conference_room())],
            )
        }
    }

    /// Checks the spec for degenerate inputs that would otherwise panic
    /// deep inside the engine, the live session or the simulator: zero
    /// packets, no lanes, a lane without receivers, duplicate lane names,
    /// empty phase lists, nested walks, zero strides, head filters the
    /// registry cannot build, and FEC codes or raplet sets the codec or the
    /// observer reject.
    ///
    /// The engine calls this before it runs; callers constructing specs
    /// programmatically (the scenario generator does) can call it directly
    /// to reject a sample before running anything.
    pub fn validate(&self) -> Result<(), SpecError> {
        let scenario = || self.name.clone();
        if self.packets == 0 {
            return Err(SpecError::ZeroPackets { scenario: scenario() });
        }
        if self.lanes.is_empty() {
            return Err(SpecError::NoLanes { scenario: scenario() });
        }
        let mut seen = HashSet::new();
        for lane in &self.lanes {
            if !seen.insert(lane.name.as_str()) {
                return Err(SpecError::DuplicateLane {
                    scenario: scenario(),
                    lane: lane.name.clone(),
                });
            }
            if lane.receivers.is_empty() {
                return Err(SpecError::NoReceivers {
                    scenario: scenario(),
                    lane: lane.name.clone(),
                });
            }
            for (index, regime) in lane.receivers.iter().enumerate() {
                let context = format!("lane {} receiver {index}", lane.name);
                validate_regime(regime, &self.name, &context)?;
            }
        }
        let registry = FilterRegistry::with_builtins();
        for filter in &self.head_filters {
            if let Err(err) = registry.instantiate(filter) {
                return Err(SpecError::InvalidHeadFilter {
                    scenario: scenario(),
                    kind: filter.kind.clone(),
                    reason: err.to_string(),
                });
            }
        }
        self.fec.validate(&self.name)
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

    /// Replaces the first lane's receivers (the one-lane presets' whole
    /// audience).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no lanes.
    #[must_use]
    pub fn with_receivers(mut self, receivers: Vec<LossRegime>) -> Self {
        self.lanes[0].receivers = receivers;
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
        assert_eq!(matrix.len(), 9);
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
                "fanout-wired-plus-lossy-wlan",
                "fanout-tiered-wireless",
                "fanout-all-wired",
            ]
        );
        for spec in &matrix {
            assert!(!spec.lanes.is_empty(), "{} has no lanes", spec.name);
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
        let presets = [
            ScenarioSpec::figure7(),
            ScenarioSpec::multicast(16),
            ScenarioSpec::adaptive_walk(),
        ];
        for spec in ScenarioSpec::builtin_matrix().into_iter().chain(presets) {
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
        let spec = ScenarioSpec::steady_wlan().with_receivers(Vec::new());
        assert_eq!(
            spec.validate(),
            Err(SpecError::NoReceivers {
                scenario: "steady-wlan".into(),
                lane: "lan".into()
            })
        );
    }

    #[test]
    fn an_empty_phase_list_is_rejected_with_a_typed_error() {
        let spec = ScenarioSpec::steady_wlan()
            .with_receivers(vec![LossRegime::Perfect, LossRegime::Phased(Vec::new())]);
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            SpecError::EmptyPhases {
                scenario: "steady-wlan".into(),
                context: "lane lan receiver 1".into()
            }
        );
        assert!(err.to_string().contains("no phases"), "{err}");
    }

    #[test]
    fn a_walk_nested_inside_phases_is_rejected_with_a_typed_error() {
        let spec = ScenarioSpec::steady_wlan().with_receivers(vec![LossRegime::Phased(vec![(
            SimTime::ZERO,
            LossRegime::Walking(LinearWalk::office_to_conference_room()),
        )])]);
        assert!(matches!(spec.validate(), Err(SpecError::NestedWalk { .. })));
    }

    #[test]
    fn a_zero_stride_is_rejected_with_a_typed_error() {
        let spec = ScenarioSpec::steady_wlan().with_receivers(vec![LossRegime::Phased(vec![(
            SimTime::ZERO,
            LossRegime::Stride { every: 0 },
        )])]);
        assert!(matches!(spec.validate(), Err(SpecError::ZeroStride { .. })));
        let spec = spec.with_receivers(vec![LossRegime::Stride { every: 3 }]);
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
