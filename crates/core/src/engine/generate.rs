//! Property-based scenario generation.
//!
//! The built-in matrix covers six hand-written one-lane multicast
//! scenarios and three fanout scenarios — a vanishingly small slice of the
//! regime × topology × runtime space the engine supports.  This module
//! turns the deterministic trace/replay machinery into a *factory* for
//! reproducible regression tests: [`GeneratedSpec::sample`] derives a
//! complete scenario — loss phases with arbitrary boundaries, head chain,
//! lane topology and FEC site, lane-churn schedule, and runtime placement —
//! from a single `u64` seed, and everything downstream is a pure function
//! of that seed.
//!
//! Three properties make generated specs usable as regression artifacts:
//!
//! 1. **Replayability** — [`to_line`](GeneratedSpec::to_line) serializes a
//!    spec to one corpus line (`seed=… [shrink overrides…]`) and
//!    [`from_line`](GeneratedSpec::from_line) rebuilds it byte-identically:
//!    the line stores only the seed and the shrink state, never the derived
//!    scenario, so the corpus can never drift from the sampler.
//! 2. **Conformance** — [`conformance_problems`](GeneratedSpec::conformance_problems)
//!    runs the derived scenario on every applier (sync, pooled, plus the
//!    sampled placement) and checks the universal
//!    invariants no random regime can break: byte-identical canonical
//!    traces, equal reports, full per-receiver accounting
//!    (`delivered + recovered + lost + undelivered == packets`), zero
//!    undelivered, and trace-replay fidelity.
//! 3. **Shrinking** — on failure, [`shrink_to_minimal`](GeneratedSpec::shrink_to_minimal)
//!    greedily applies packet-halving, phase-truncation, lane/receiver
//!    dropping, and head-clearing overrides while the failure reproduces,
//!    yielding a minimal spec whose serialized line is the checked-in
//!    regression case.
//!
//! ```
//! use rapidware::engine::GeneratedSpec;
//!
//! let spec = GeneratedSpec::sample(7);
//! let line = spec.to_line();
//! let replayed = GeneratedSpec::from_line(&line).unwrap();
//! assert_eq!(spec, replayed);
//! assert_eq!(spec.reference_digest(), replayed.reference_digest());
//! ```

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidware_netsim::{sample_phase_boundaries, SimTime};
use rapidware_proxy::FilterSpec;

use super::spec::{LaneSpec, LossRegime, ScenarioSpec};
use super::{LiveIo, ScenarioEngine, POOLED_APPLIER_SHARDS};

/// Which applier family a generated run is placed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// The synchronous in-process applier.
    Sync,
    /// The sharded worker-pool applier.
    Pooled,
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementKind::Sync => write!(f, "sync"),
            PlacementKind::Pooled => write!(f, "pooled"),
        }
    }
}

/// The sampled runtime placement of a generated run: applier family, shard
/// count (pooled only), and per-stage batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementSpec {
    /// The applier family the spec nominates as its primary runtime.
    pub kind: PlacementKind,
    /// Worker-shard count for pooled placements.
    pub shards: usize,
    /// Per-stage batch size (also folded into the derived scenario spec).
    pub batch_size: usize,
}

/// One sampled lane-churn event: a short-lived extra lane that joins and
/// leaves mid-run.  Conformance runs ignore churn (the conformance appliers
/// run a fixed topology); the chaos and soak suites drive these against a
/// live pooled session and assert per-lane conservation on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Source-packet index at which the churn lane joins.
    pub join_at: u64,
    /// Source-packet index at which it leaves (always after `join_at`).
    pub leave_at: u64,
    /// Whether the churn lane carries a deterministic drop filter.
    pub lossy: bool,
}

/// Shrink overrides: post-sampling restrictions applied to the derived
/// scenario.  Kept separate from the sample so a shrunk spec still
/// serializes as `seed + overrides` and replays byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Shrink {
    packets: Option<u64>,
    max_phases: Option<usize>,
    max_lanes: Option<usize>,
    max_receivers: Option<usize>,
    drop_head: bool,
    /// Not a shrink: opts the spec into the shared-socket wire check
    /// (`run_udp_shared` vs sync).  Lives here so it serializes with the
    /// corpus line and survives shrinking like the true overrides —
    /// a shrunk reproduction of a shared-socket divergence must still
    /// exercise the shared-socket path.
    shared_udp: bool,
    /// Brackets the derived scenario with the AEAD secure-channel pair
    /// (FEC on the head: `ScenarioSpec::secure`, with a midpoint key
    /// rotation; FEC on the lanes: encrypt/decrypt appended to the head
    /// filters) and widens conformance
    /// with the shared-UDP appliers.  Unlike `shared_udp` this
    /// token is *shrinkable*: dropping it is the first candidate tried, so
    /// a failure that reproduces without crypto minimizes to a plaintext
    /// line.
    secure: bool,
}

/// A fully derived, serializable, shrinkable generated scenario.
///
/// Equality compares the generative state (seed + shrink overrides); the
/// derived scenario, placement, and churn schedule are pure functions of
/// it.
#[derive(Debug, Clone)]
pub struct GeneratedSpec {
    seed: u64,
    shrink: Shrink,
    spec: ScenarioSpec,
    placement: PlacementSpec,
    churn: Vec<ChurnEvent>,
}

impl PartialEq for GeneratedSpec {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.shrink == other.shrink
    }
}

impl Eq for GeneratedSpec {}

const BATCH_CHOICES: [usize; 4] = [1, 4, 8, 32];
const MIN_PACKETS: u64 = 50;

impl GeneratedSpec {
    /// Derives a complete generated scenario from a seed.
    pub fn sample(seed: u64) -> Self {
        Self::build(seed, Shrink::default())
    }

    /// The seed this spec derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The derived scenario.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The sampled runtime placement.
    pub fn placement(&self) -> PlacementSpec {
        self.placement
    }

    /// The sampled lane-churn schedule (always empty when FEC acts on the
    /// head).
    pub fn churn(&self) -> &[ChurnEvent] {
        &self.churn
    }

    /// `true` if this spec's corpus line carries the `shared_udp` token:
    /// conformance additionally runs the scenario over a shared-socket
    /// carrier ([`ScenarioEngine::run_udp_shared`]) and holds it to the
    /// sync applier's bytes.
    pub fn shared_udp(&self) -> bool {
        self.shrink.shared_udp
    }

    /// Returns a copy of this spec with the shared-socket wire check
    /// enabled (see [`shared_udp`](Self::shared_udp)).  The derived
    /// scenario is unchanged — the flag only widens conformance.
    #[must_use]
    pub fn with_shared_udp(&self) -> Self {
        Self::build(
            self.seed,
            Shrink {
                shared_udp: true,
                ..self.shrink
            },
        )
    }

    /// `true` if this spec's corpus line carries the `secure` token: the
    /// derived scenario runs under the AEAD secure-channel pair (sealed
    /// payloads, a midpoint key rotation when FEC acts on the head) and
    /// conformance
    /// additionally runs the shared-UDP appliers.
    pub fn secure(&self) -> bool {
        self.shrink.secure
    }

    /// Returns a copy of this spec with the secure channel enabled (see
    /// [`secure`](Self::secure)).
    #[must_use]
    pub fn with_secure(&self) -> Self {
        Self::build(
            self.seed,
            Shrink {
                secure: true,
                ..self.shrink
            },
        )
    }

    /// Rebuilds the spec from seed + overrides.  Every field below the
    /// shrink state is derived here and nowhere else, so `sample`,
    /// `from_line`, and `shrink_candidates` can never disagree about what a
    /// seed means.
    fn build(seed: u64, shrink: Shrink) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);

        // Fixed draw order: every sample consumes the same sequence of
        // draws regardless of overrides, which are applied afterwards as
        // pure edits of the derived spec.
        let flat = rng.gen_bool(0.5);
        let mut packets = rng.gen_range(4u64..=16) * MIN_PACKETS;
        let batch_size = BATCH_CHOICES[rng.gen_range(0usize..BATCH_CHOICES.len())];
        // Three-way draw kept from when a thread-per-filter placement
        // existed, so every corpus seed still derives the same shape.
        let kind = match rng.gen_range(0u32..3) {
            0 => PlacementKind::Sync,
            _ => PlacementKind::Pooled,
        };
        let shards = rng.gen_range(1usize..=8);
        if let Some(limit) = shrink.packets {
            packets = limit.max(MIN_PACKETS);
        }
        // 20 ms of simulated time per source packet (the PCM workload's
        // packet interval); boundaries land anywhere inside the run.
        let horizon = SimTime::from_micros(
            packets * rapidware_media::AudioConfig::pcm_8khz_stereo_8bit().packet_interval_us(),
        );

        // A flat draw is one lane reaching every receiver, with FEC on the
        // head; a fanout draw is one receiver per lane, FEC on each lane.
        let (spec, churn) = if flat {
            let receiver_count = rng.gen_range(1usize..=3);
            let mut receivers = vec![sample_phased_regime(&mut rng, horizon)];
            for _ in 1..receiver_count {
                receivers.push(sample_secondary_regime(&mut rng));
            }
            if let Some(max) = shrink.max_receivers {
                receivers.truncate(max.max(1));
            }
            if let Some(max) = shrink.max_phases {
                for regime in &mut receivers {
                    truncate_phases(regime, max.max(1));
                }
            }
            let spec = ScenarioSpec {
                name: format!("gen-flat-{seed}"),
                seed,
                packets,
                batch_size,
                // Random regimes can promise neither adaptation nor a
                // clean finish; the conformance harness checks universal
                // invariants instead of these expectation flags.
                expect_clean_finish: false,
                secure: shrink.secure,
                ..ScenarioSpec::steady_wlan().with_receivers(receivers)
            };
            (spec, Vec::new())
        } else {
            let lane_count = rng.gen_range(1usize..=4);
            let head_set = rng.gen_range(0u32..4);
            let mut lanes = Vec::with_capacity(lane_count);
            for index in 0..lane_count {
                let regime = sample_phased_regime(&mut rng, horizon);
                lanes.push(LaneSpec::new(&format!("lane-{index}"), vec![regime]));
            }
            let churn_count = rng.gen_range(0usize..=2);
            let mut churn = Vec::with_capacity(churn_count);
            for _ in 0..churn_count {
                let a = rng.gen_range(0.0f64..0.9);
                let span = rng.gen_range(0.05f64..0.5);
                let lossy = rng.gen_bool(0.5);
                let join_at = (a * packets as f64) as u64;
                let leave_at = (((a + span).min(1.0)) * packets as f64) as u64;
                churn.push(ChurnEvent {
                    join_at,
                    leave_at: leave_at.max(join_at + 1),
                    lossy,
                });
            }
            churn.sort_by_key(|event| event.join_at);
            if let Some(max) = shrink.max_lanes {
                lanes.truncate(max.max(1));
            }
            if let Some(max) = shrink.max_phases {
                for regime in lanes.iter_mut().flat_map(|lane| &mut lane.receivers) {
                    truncate_phases(regime, max.max(1));
                }
            }
            let head_filters = if shrink.drop_head { 0 } else { head_set };
            let mut head_filters = head_filter_set(head_filters);
            if shrink.secure {
                // The secure pair is an identity-preserving head stage
                // (seal then verify-and-strip), so every lane's accounting
                // is untouched while every fanout placement exercises it.
                head_filters.push(secure_filter_spec("encrypt"));
                head_filters.push(secure_filter_spec("decrypt"));
            }
            let spec = ScenarioSpec {
                name: format!("gen-fanout-{seed}"),
                seed,
                packets,
                head_filters,
                lanes,
                batch_size,
                expect_clean_finish: false,
                ..ScenarioSpec::all_wired()
            };
            (spec, churn)
        };

        Self {
            seed,
            shrink,
            spec,
            placement: PlacementSpec {
                kind,
                shards,
                batch_size,
            },
            churn,
        }
    }

    /// A one-line human summary for failure messages.
    pub fn describe(&self) -> String {
        let spec = &self.spec;
        let receivers: usize = spec.lanes.iter().map(|lane| lane.receivers.len()).sum();
        format!(
            "{} [FEC on {:?}, {} packets, {} lanes, {receivers} receivers, {} head filters, \
             {} churn events, batch {}, placement {}x{}]",
            spec.name,
            spec.fec_site,
            spec.packets,
            spec.lanes.len(),
            spec.head_filters.len(),
            self.churn.len(),
            spec.batch_size,
            self.placement.kind,
            self.placement.shards,
        )
    }

    /// Serializes the generative state to one corpus line.
    pub fn to_line(&self) -> String {
        let mut line = format!("seed={}", self.seed);
        if let Some(packets) = self.shrink.packets {
            line.push_str(&format!(" packets={packets}"));
        }
        if let Some(phases) = self.shrink.max_phases {
            line.push_str(&format!(" max_phases={phases}"));
        }
        if let Some(lanes) = self.shrink.max_lanes {
            line.push_str(&format!(" max_lanes={lanes}"));
        }
        if let Some(receivers) = self.shrink.max_receivers {
            line.push_str(&format!(" max_receivers={receivers}"));
        }
        if self.shrink.drop_head {
            line.push_str(" drop_head");
        }
        if self.shrink.shared_udp {
            line.push_str(" shared_udp");
        }
        if self.shrink.secure {
            line.push_str(" secure");
        }
        line
    }

    /// Rebuilds a spec from a corpus line, byte-identically: the line holds
    /// only the seed and shrink overrides, and the whole scenario is
    /// re-derived through the same sampler.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let mut seed = None;
        let mut shrink = Shrink::default();
        for token in line.split_whitespace() {
            if token == "drop_head" {
                shrink.drop_head = true;
                continue;
            }
            if token == "shared_udp" {
                shrink.shared_udp = true;
                continue;
            }
            if token == "secure" {
                shrink.secure = true;
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed token {token:?} in {line:?}"))?;
            let parse = |value: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("non-numeric value in token {token:?}"))
            };
            match key {
                "seed" => seed = Some(parse(value)?),
                "packets" => shrink.packets = Some(parse(value)?),
                "max_phases" => shrink.max_phases = Some(parse(value)? as usize),
                "max_lanes" => shrink.max_lanes = Some(parse(value)? as usize),
                "max_receivers" => shrink.max_receivers = Some(parse(value)? as usize),
                other => return Err(format!("unknown key {other:?} in {line:?}")),
            }
        }
        let seed = seed.ok_or_else(|| format!("missing seed in {line:?}"))?;
        Ok(Self::build(seed, shrink))
    }

    /// Parses a whole corpus file: one spec per line, `#` comments and
    /// blank lines skipped.
    pub fn parse_corpus(text: &str) -> Result<Vec<Self>, String> {
        text.lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(Self::from_line)
            .collect()
    }

    /// The digest of the reference (sync) run's canonical trace: the
    /// compact identity a corpus entry or failure report can quote, and the
    /// value a replay from [`from_line`](Self::from_line) must reproduce exactly.
    pub fn reference_digest(&self) -> u64 {
        ScenarioEngine::new(self.spec.clone()).run_sync().trace.digest()
    }

    /// Runs the derived scenario on every applier and returns one line per
    /// violated invariant (empty = conformant).
    ///
    /// Checked invariants, none of which depend on what the random regime
    /// happened to do:
    ///
    /// * the sync run is deterministic (two runs, identical bytes);
    /// * the pooled applier produces a byte-identical canonical trace and
    ///   an equal report;
    /// * a pooled run at the sampled placement shard count agrees too
    ///   (scheduler shape must be invisible);
    /// * with the `shared_udp` or `secure` token, a run over a
    ///   shared-socket carrier (demuxed by its carrier task, real loopback
    ///   sockets) matches the sync applier byte for byte too;
    /// * the [accounting invariants](super::ScenarioOutcome::accounting_problems):
    ///   every receiver accounts for every packet
    ///   (`delivered + recovered + lost + undelivered == packets`), nothing
    ///   delivered by the link fails to surface, and replaying the recorded
    ///   trace reproduces the report.
    pub fn conformance_problems(&self) -> Vec<String> {
        let engine = ScenarioEngine::new(self.spec.clone());
        let reference = match engine.try_run_sync() {
            Ok(outcome) => outcome,
            Err(err) => return vec![format!("sampled spec rejected: {err}")],
        };
        let text = reference.trace.canonical_text();
        let mut problems = Vec::new();
        if engine.run_sync().trace.canonical_text() != text {
            problems.push("sync applier is not deterministic per seed".to_string());
        }
        let mut placements = vec![("pooled".to_string(), LiveIo::Pipes, POOLED_APPLIER_SHARDS)];
        if self.shrink.shared_udp || self.shrink.secure {
            placements.push((
                "shared-udp".to_string(),
                LiveIo::Carrier,
                POOLED_APPLIER_SHARDS,
            ));
        }
        let shards = self.placement.shards;
        if self.placement.kind == PlacementKind::Pooled && shards != POOLED_APPLIER_SHARDS {
            placements.push((format!("pooled at {shards} shards"), LiveIo::Pipes, shards));
        }
        for (label, io, shards) in placements {
            let placed = engine.run_live(io, shards);
            if placed.trace.canonical_text() != text {
                problems.push(format!("{label} trace diverges from sync"));
            }
            if placed.report != reference.report {
                problems.push(format!("{label} report diverges from sync"));
            }
        }
        problems.extend(reference.accounting_problems(&self.spec));
        problems
    }

    /// Strictly smaller variants of this spec, most aggressive first.  Each
    /// candidate adds one more shrink override on top of the current state;
    /// the derived scenario shrinks while seed and sampler stay fixed.
    pub fn shrink_candidates(&self) -> Vec<Self> {
        let mut candidates = Vec::new();
        // Dropping the secure token comes first: if the failure reproduces
        // on plaintext, the minimal repro should not drag crypto along.
        if self.shrink.secure {
            candidates.push(Self::build(
                self.seed,
                Shrink {
                    secure: false,
                    ..self.shrink
                },
            ));
        }
        let spec = &self.spec;
        let packets = spec.packets;
        let phases = spec
            .lanes
            .iter()
            .flat_map(|lane| &lane.receivers)
            .map(phase_count)
            .max()
            .unwrap_or(1);
        let lanes = spec.lanes.len();
        let receivers = spec.lanes.iter().map(|lane| lane.receivers.len()).max().unwrap_or(1);
        let head = spec.head_filters.len();
        if packets > MIN_PACKETS {
            let halved = (packets / 2).max(MIN_PACKETS) / MIN_PACKETS * MIN_PACKETS;
            candidates.push(Self::build(
                self.seed,
                Shrink {
                    packets: Some(halved.max(MIN_PACKETS)),
                    ..self.shrink
                },
            ));
        }
        if lanes > 1 {
            candidates.push(Self::build(
                self.seed,
                Shrink {
                    max_lanes: Some(1),
                    ..self.shrink
                },
            ));
        }
        if receivers > 1 {
            candidates.push(Self::build(
                self.seed,
                Shrink {
                    max_receivers: Some(1),
                    ..self.shrink
                },
            ));
        }
        if phases > 1 {
            candidates.push(Self::build(
                self.seed,
                Shrink {
                    max_phases: Some(1),
                    ..self.shrink
                },
            ));
        }
        if head > 0 && !self.shrink.drop_head {
            candidates.push(Self::build(
                self.seed,
                Shrink {
                    drop_head: true,
                    ..self.shrink
                },
            ));
        }
        candidates
    }

    /// Greedy shrink loop: while any candidate still fails `fails`, adopt
    /// it and try to shrink further.  Returns the smallest failing spec —
    /// the one whose [`to_line`](Self::to_line) output belongs in the
    /// regression corpus.
    pub fn shrink_to_minimal(spec: Self, fails: &dyn Fn(&Self) -> bool) -> Self {
        let mut current = spec;
        'outer: loop {
            for candidate in current.shrink_candidates() {
                if fails(&candidate) {
                    current = candidate;
                    continue 'outer;
                }
            }
            return current;
        }
    }
}

/// Counts the phases of a regime (non-phased regimes count as one).
fn phase_count(regime: &LossRegime) -> usize {
    match regime {
        LossRegime::Phased(phases) => phases.len().max(1),
        _ => 1,
    }
}

/// Truncates a phased regime to its first `max` phases (no-op otherwise).
fn truncate_phases(regime: &mut LossRegime, max: usize) {
    if let LossRegime::Phased(phases) = regime {
        phases.truncate(max.max(1));
    }
}

/// Samples one time-phased regime with arbitrary boundaries inside
/// `horizon`: 1–4 phases, each independently drawn from the atomic regime
/// pool (perfect / Bernoulli / Gilbert–Elliott burst / stride).
fn sample_phased_regime(rng: &mut StdRng, horizon: SimTime) -> LossRegime {
    let phase_total = rng.gen_range(1usize..=4);
    let boundaries = sample_phase_boundaries(rng, phase_total - 1, horizon);
    let mut phases = vec![(SimTime::ZERO, sample_atomic_regime(rng))];
    for boundary in boundaries {
        phases.push((boundary, sample_atomic_regime(rng)));
    }
    LossRegime::Phased(phases)
}

/// Samples one phase's regime.
fn sample_atomic_regime(rng: &mut StdRng) -> LossRegime {
    match rng.gen_range(0u32..4) {
        0 => LossRegime::Perfect,
        1 => LossRegime::Bernoulli {
            rate: rng.gen_range(0.02f64..0.45),
        },
        2 => LossRegime::GilbertElliott {
            p_good_to_bad: rng.gen_range(0.01f64..0.10),
            p_bad_to_good: rng.gen_range(0.20f64..0.50),
            loss_good: rng.gen_range(0.0f64..0.01),
            loss_bad: rng.gen_range(0.40f64..0.90),
        },
        _ => LossRegime::Stride {
            every: rng.gen_range(2u64..=8),
        },
    }
}

/// A secondary (non-monitored) receiver's regime: quiet links that absorb
/// whatever the monitored link's adaptation produces.
fn sample_secondary_regime(rng: &mut StdRng) -> LossRegime {
    match rng.gen_range(0u32..3) {
        0 => LossRegime::Perfect,
        1 => LossRegime::AtDistance {
            meters: rng.gen_range(5.0f64..35.0),
        },
        _ => LossRegime::Bernoulli {
            rate: rng.gen_range(0.0f64..0.10),
        },
    }
}

/// The identity-preserving head-filter sets generated fanout specs draw
/// from.  Head filters run upstream of every lane's accounting, so they
/// must neither drop payloads nor emit parity — that is what the per-lane
/// tails are for; these sets exercise head-chain plumbing (pass-through,
/// observation, transform-and-restore) without perturbing delivery.
fn head_filter_set(index: u32) -> Vec<FilterSpec> {
    match index {
        0 => Vec::new(),
        1 => vec![FilterSpec::new("tap").with_param("name", "gen-head-tap")],
        2 => vec![FilterSpec::new("null")],
        _ => vec![FilterSpec::new("scrambler"), FilterSpec::new("descrambler")],
    }
}

/// One half of the secure-channel pair, keyed like the engine's own
/// bracket ([`super::SECURE_SCENARIO_KEY`]) so filter names agree across
/// every generated scenario.
fn secure_filter_spec(kind: &str) -> FilterSpec {
    FilterSpec::new(kind).with_param("key", super::SECURE_SCENARIO_KEY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FecSite;

    /// A small one-lane spec with FEC on the head, for cheap end-to-end
    /// conformance runs.
    fn small_flat_seed() -> u64 {
        (0..50u64)
            .find(|&seed| {
                let spec = GeneratedSpec::sample(seed);
                let spec = spec.spec();
                spec.fec_site == FecSite::Head
                    && spec.packets <= 300
                    && spec.lanes[0].receivers.len() == 1
            })
            .expect("small flat samples exist")
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        for seed in [0u64, 1, 42, 2001, u64::MAX] {
            let a = GeneratedSpec::sample(seed);
            let b = GeneratedSpec::sample(seed);
            assert_eq!(a, b);
            assert_eq!(a.spec(), b.spec(), "derived scenarios match at seed {seed}");
            assert_eq!(a.placement(), b.placement());
            assert_eq!(a.churn(), b.churn());
        }
    }

    #[test]
    fn sampled_specs_always_validate() {
        for seed in 0..200u64 {
            let spec = GeneratedSpec::sample(seed);
            assert_eq!(spec.spec().validate(), Ok(()), "{}", spec.describe());
            for event in spec.churn() {
                assert!(event.join_at < event.leave_at, "{}", spec.describe());
            }
        }
    }

    #[test]
    fn sampling_covers_the_whole_space() {
        let mut flat = 0usize;
        let mut fanout = 0usize;
        let mut placements = std::collections::HashSet::new();
        let mut batches = std::collections::HashSet::new();
        let mut multi_phase = 0usize;
        let mut churned = 0usize;
        for seed in 0..200u64 {
            let spec = GeneratedSpec::sample(seed);
            placements.insert(format!("{}", spec.placement().kind));
            batches.insert(spec.placement().batch_size);
            let inner = spec.spec();
            match inner.fec_site {
                FecSite::Head => flat += 1,
                FecSite::Lanes => fanout += 1,
            }
            if inner.lanes.iter().flat_map(|l| &l.receivers).any(|r| phase_count(r) > 1) {
                multi_phase += 1;
            }
            if !spec.churn().is_empty() {
                churned += 1;
            }
        }
        assert!(flat > 50 && fanout > 50, "both shapes sampled ({flat}/{fanout})");
        assert_eq!(placements.len(), 2, "both placements sampled");
        assert_eq!(batches.len(), BATCH_CHOICES.len(), "all batch sizes sampled");
        assert!(multi_phase > 50, "multi-phase regimes are common ({multi_phase})");
        assert!(churned > 10, "churn schedules are sampled ({churned})");
    }

    #[test]
    fn lines_round_trip_byte_identically() {
        for seed in [3u64, 77, 2001] {
            let spec = GeneratedSpec::sample(seed);
            let replayed = GeneratedSpec::from_line(&spec.to_line()).unwrap();
            assert_eq!(spec, replayed);
            assert_eq!(spec.spec(), replayed.spec());
        }
        // Shrunk specs round-trip too, overrides included.
        let spec = GeneratedSpec::build(
            9,
            Shrink {
                packets: Some(100),
                max_phases: Some(1),
                max_lanes: Some(1),
                max_receivers: Some(1),
                drop_head: true,
                shared_udp: true,
                secure: true,
            },
        );
        let line = spec.to_line();
        assert!(line.contains("packets=100") && line.contains("drop_head"), "{line}");
        assert!(line.contains("shared_udp"), "{line}");
        assert!(line.contains(" secure"), "{line}");
        let replayed = GeneratedSpec::from_line(&line).unwrap();
        assert_eq!(spec, replayed);
        assert_eq!(spec.spec(), replayed.spec());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(GeneratedSpec::from_line("").is_err(), "missing seed");
        assert!(GeneratedSpec::from_line("packets=10").is_err(), "missing seed");
        assert!(GeneratedSpec::from_line("seed=x").is_err(), "non-numeric");
        assert!(GeneratedSpec::from_line("seed=1 bogus=2").is_err(), "unknown key");
        assert!(GeneratedSpec::from_line("seed=1 lanes").is_err(), "flagless token");
    }

    #[test]
    fn corpus_parsing_skips_comments_and_blanks() {
        let corpus = "# regression corpus\n\nseed=1\n  seed=2 max_phases=1  \n# tail\n";
        let specs = GeneratedSpec::parse_corpus(corpus).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].seed(), 1);
        assert_eq!(specs[1].seed(), 2);
        assert!(GeneratedSpec::parse_corpus("seed=1\ngarbage\n").is_err());
    }

    #[test]
    fn shrinking_produces_a_minimal_replayable_spec() {
        // Find a fanout sample with multiple lanes and phases so every
        // shrink dimension is exercised.
        let seed = (0..200u64)
            .find(|&seed| {
                let spec = GeneratedSpec::sample(seed);
                let f = spec.spec();
                f.lanes.len() > 1 && f.packets > 2 * MIN_PACKETS && !f.head_filters.is_empty()
            })
            .expect("the sampler covers multi-lane fanouts");
        let spec = GeneratedSpec::sample(seed);
        // A predicate that keeps failing all the way down: every spec
        // "fails", so the shrinker must bottom out at the global minimum.
        let minimal = GeneratedSpec::shrink_to_minimal(spec, &|_| true);
        let inner = minimal.spec();
        assert_eq!(inner.fec_site, FecSite::Lanes, "shrinking never moves the FEC site");
        assert_eq!(inner.packets, MIN_PACKETS);
        assert_eq!(inner.lanes.len(), 1);
        assert!(inner.head_filters.is_empty());
        assert!(inner.lanes.iter().all(|l| phase_count(&l.receivers[0]) == 1));
        // The minimal spec replays byte-identically from its line.
        let replayed = GeneratedSpec::from_line(&minimal.to_line()).unwrap();
        assert_eq!(minimal.spec(), replayed.spec());

        // A predicate that stops failing once packets shrink must leave
        // everything else untouched.
        let spec = GeneratedSpec::sample(seed);
        let original_lanes = spec.spec().lanes.len();
        let picky = GeneratedSpec::shrink_to_minimal(spec, &|candidate| {
            candidate.spec().lanes.len() > 1
        });
        let inner = picky.spec();
        assert_eq!(inner.lanes.len(), 2, "shrunk to the smallest still-failing lane count");
        assert!(original_lanes > 2 || inner.lanes.len() <= original_lanes);
    }

    #[test]
    fn a_sampled_flat_spec_passes_conformance() {
        // One cheap end-to-end conformance run as a unit test; the full
        // ≥64-spec sweep lives in the generated_scenarios integration
        // suite.
        let spec = GeneratedSpec::sample(small_flat_seed());
        assert_eq!(spec.conformance_problems(), Vec::<String>::new(), "{}", spec.describe());
    }

    #[test]
    fn the_shared_udp_token_survives_shrinking_and_widens_conformance() {
        let spec = GeneratedSpec::from_line("seed=4 shared_udp").unwrap();
        assert!(spec.shared_udp());
        assert_eq!(spec.spec(), GeneratedSpec::sample(4).spec(), "flag leaves the scenario alone");
        // Shrinking keeps the flag: a minimized shared-socket failure still
        // reproduces over the shared socket.
        let minimal = GeneratedSpec::shrink_to_minimal(spec, &|_| true);
        assert!(minimal.shared_udp());
        assert!(minimal.to_line().contains("shared_udp"), "{}", minimal.to_line());

        // One cheap end-to-end shared-socket conformance run as a unit
        // test; the corpus sweep lives in the generated_scenarios suite.
        let spec = GeneratedSpec::sample(small_flat_seed()).with_shared_udp();
        assert_eq!(spec.conformance_problems(), Vec::<String>::new(), "{}", spec.describe());
    }

    #[test]
    fn the_secure_token_installs_the_channel_and_shrinks_away() {
        let spec = GeneratedSpec::from_line("seed=4 secure").unwrap();
        assert!(spec.secure());
        let inner = spec.spec();
        match inner.fec_site {
            FecSite::Head => assert!(inner.secure),
            FecSite::Lanes => assert!(inner.head_filters.iter().any(|f| f.kind == "encrypt")),
        }

        // Unlike shared_udp, the token is itself a shrink dimension — and
        // the first one tried, so a crypto-independent failure minimizes
        // to a plaintext line.
        let first = spec.shrink_candidates().into_iter().next().unwrap();
        assert!(!first.secure());
        let minimal = GeneratedSpec::shrink_to_minimal(spec, &|_| true);
        assert!(!minimal.secure());
        assert!(!minimal.to_line().contains("secure"), "{}", minimal.to_line());

        // But a failure that needs the crypto keeps it: shrinking under a
        // predicate that only fails while secure is set preserves the
        // token.
        let secure_only = GeneratedSpec::shrink_to_minimal(
            GeneratedSpec::from_line("seed=4 secure").unwrap(),
            &|candidate| candidate.secure(),
        );
        assert!(secure_only.secure());
        assert!(secure_only.to_line().contains("secure"));

        // One cheap end-to-end secure conformance run as a unit test; the
        // corpus sweep lives in the generated_scenarios suite.
        let spec = GeneratedSpec::sample(small_flat_seed()).with_secure();
        assert_eq!(spec.conformance_problems(), Vec::<String>::new(), "{}", spec.describe());
    }

    #[test]
    fn reference_digest_is_stable_and_seed_sensitive() {
        let spec = GeneratedSpec::sample(5);
        assert_eq!(spec.reference_digest(), spec.reference_digest());
        assert_ne!(
            GeneratedSpec::sample(5).reference_digest(),
            GeneratedSpec::sample(6).reference_digest(),
            "different seeds explore different scenarios"
        );
    }
}
