//! The generated-conformance harness: property-based scenario sampling,
//! replayed from a checked-in seed corpus.
//!
//! Each line of `tests/corpus/generated_scenarios.txt` is a
//! [`GeneratedSpec`] — a whole closed-loop scenario (loss regimes, chain
//! shape, fanout topology, runtime placement) derived from one `u64` seed.
//! For every corpus entry the harness asserts the generated-spec contract:
//!
//! * the spec **validates** (the sampler never emits a degenerate spec),
//! * the sync applier is **deterministic** per seed (two runs, identical
//!   canonical traces),
//! * every other applier — pooled, and the sampled placement's own shard
//!   count — produces a **byte-identical** report and canonical
//!   trace,
//! * conservation holds per receiver/lane: everything sent is delivered,
//!   recovered, lost, or undelivered — and undelivered is zero, and
//! * the recorded trace **replays** into the identical report.
//!
//! A failing spec is shrunk ([`GeneratedSpec::shrink_to_minimal`]) and the
//! panic message carries the minimal spec's corpus line, so the regression
//! can be replayed byte-identically with
//! `RAPIDWARE_GENERATED_ONLY='<line>' cargo test …` or pinned by pasting
//! the line into the corpus.
//!
//! `RAPIDWARE_GENERATED_SPECS=<n>` trims the run to the first `n` corpus
//! entries (the CI reduced profile) or extends it past the corpus with
//! freshly sampled seeds when `n` exceeds the corpus size.

mod common;

use std::time::Duration;

use rapidware::engine::GeneratedSpec;

use common::{env_profile, watchdog};

/// The checked-in seed corpus (compiled in, so the harness cannot silently
/// run against a stale or missing file).
const CORPUS: &str = include_str!("corpus/generated_scenarios.txt");

/// Wall-clock bound for the full conformance sweep.
const CONFORMANCE_WALL_CLOCK: Duration = Duration::from_secs(480);

/// Seed base for specs sampled beyond the corpus when the profile asks for
/// more than the file holds.
const EXTENSION_SEED_BASE: u64 = 10_000;

/// The corpus, resized to the active profile: `RAPIDWARE_GENERATED_SPECS`
/// trims to a prefix (CI) or extends with fresh seeds (deep local runs).
fn profiled_corpus() -> Vec<GeneratedSpec> {
    let mut specs = GeneratedSpec::parse_corpus(CORPUS).expect("the checked-in corpus parses");
    assert!(
        specs.len() >= 64,
        "the corpus must hold at least 64 specs, found {}",
        specs.len()
    );
    let budget = env_profile("RAPIDWARE_GENERATED_SPECS", specs.len());
    if budget <= specs.len() {
        specs.truncate(budget);
    } else {
        let extra = (budget - specs.len()) as u64;
        specs.extend((0..extra).map(|index| GeneratedSpec::sample(EXTENSION_SEED_BASE + index)));
    }
    specs
}

#[test]
fn the_corpus_parses_and_round_trips_byte_identically() {
    let specs = GeneratedSpec::parse_corpus(CORPUS).expect("the checked-in corpus parses");
    assert!(specs.len() >= 64);
    for spec in &specs {
        let line = spec.to_line();
        let replayed = GeneratedSpec::from_line(&line)
            .unwrap_or_else(|err| panic!("corpus line {line:?} does not round-trip: {err}"));
        assert_eq!(spec, &replayed, "round-tripped spec differs for {line:?}");
        assert_eq!(replayed.to_line(), line, "serialisation is not a fixed point");
        assert!(!spec.describe().is_empty());
    }
}

#[test]
fn every_corpus_spec_conforms_across_all_appliers() {
    watchdog("generated-conformance", CONFORMANCE_WALL_CLOCK, || {
        let specs = match std::env::var("RAPIDWARE_GENERATED_ONLY") {
            // Replay exactly one spec line — the seed-walkthrough path the
            // README documents for reproducing a shrunken failure.
            Ok(line) => vec![GeneratedSpec::from_line(&line)
                .unwrap_or_else(|err| panic!("RAPIDWARE_GENERATED_ONLY {line:?}: {err}"))],
            Err(_) => profiled_corpus(),
        };
        let mut failures = Vec::new();
        for spec in &specs {
            let problems = spec.conformance_problems();
            if problems.is_empty() {
                continue;
            }
            // Shrink before reporting: the minimal spec still failing the
            // same predicate is the line worth pasting into the corpus.
            let minimal = GeneratedSpec::shrink_to_minimal(spec.clone(), &|candidate| {
                !candidate.conformance_problems().is_empty()
            });
            failures.push(format!(
                "{} [{}]: {problems:?}\n  minimal repro: {}",
                spec.to_line(),
                spec.describe(),
                minimal.to_line(),
            ));
        }
        assert!(
            failures.is_empty(),
            "{} of {} generated specs failed conformance:\n{}",
            failures.len(),
            specs.len(),
            failures.join("\n")
        );
    });
}

#[test]
fn sampled_digests_are_reproducible_within_the_harness() {
    // The digest a spec reports is the determinism anchor the docs point
    // users at; two derivations in one process must agree, and distinct
    // seeds must not collide on the first few corpus entries.
    let specs: Vec<GeneratedSpec> =
        GeneratedSpec::parse_corpus(CORPUS).expect("corpus parses").into_iter().take(4).collect();
    let mut digests = Vec::new();
    for spec in &specs {
        let first = spec.reference_digest();
        let second = spec.reference_digest();
        assert_eq!(first, second, "{}: digest is not stable", spec.to_line());
        digests.push(first);
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), specs.len(), "distinct seeds collided on digest");
}
