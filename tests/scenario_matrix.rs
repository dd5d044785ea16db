//! The scenario-matrix harness: every built-in closed-loop scenario, run
//! end-to-end at fixed seeds, on both appliers.
//!
//! This is the executable form of the paper's headline claim — observer and
//! responder raplets reconfigure a running proxy chain in response to
//! wireless loss — checked as a matrix of properties rather than a few
//! hand-wired examples:
//!
//! * every scenario runs to completion without a panic,
//! * every non-lost data packet is delivered to the application,
//! * the loss-driven scenarios insert FEC after the spike and remove it
//!   after recovery, converging back to an empty chain,
//! * the same spec and seed produce a byte-identical trace on every run,
//! * the sync and pooled (sharded worker-pool) appliers agree byte for
//!   byte, and
//! * replaying a recorded trace reproduces the identical report.
//!
//! The per-run health criteria live in `ScenarioOutcome::health_problems`,
//! shared with the `scenario_matrix` bench binary so this harness and the
//! CI report job can never drift apart.

mod common;

use rapidware::engine::{
    FanoutEngine, FanoutSpec, LiveApplier, LiveIo, ScenarioEngine, ScenarioSpec, MATRIX_SEEDS,
};

use common::assert_same_outcome;

#[test]
fn every_builtin_scenario_closes_the_loop_on_both_appliers_at_both_seeds() {
    for seed in MATRIX_SEEDS {
        for spec in ScenarioSpec::builtin_matrix() {
            let spec = spec.with_seed(seed);
            let engine = ScenarioEngine::new(spec.clone());
            let outcome = engine.run_sync();
            let context = format!("{} @ seed {seed}", spec.name);

            let problems = outcome.health_problems(&spec);
            assert!(
                problems.is_empty(),
                "{context}: {problems:?}\ntimeline: {:?}",
                outcome.report.timeline
            );

            // The pooled applier — the whole chain as one cooperative task
            // on a sharded worker pool, reconfigured through the live
            // proxy's control surface — must agree with the sync run byte
            // for byte, which transitively gives it every property checked
            // above.
            let pooled = engine.run_pooled();
            assert_same_outcome(
                &context,
                "pooled",
                &outcome.trace.canonical_text(),
                &outcome.report,
                &pooled.trace.canonical_text(),
                &pooled.report,
            );
        }
    }
}

#[test]
fn same_spec_and_seed_yield_byte_identical_traces() {
    for spec in ScenarioSpec::builtin_matrix() {
        let engine = ScenarioEngine::new(spec.clone());
        let first = engine.run_sync();
        let second = engine.run_sync();
        assert_eq!(
            first.trace.canonical_text(),
            second.trace.canonical_text(),
            "{}: two runs of the same spec+seed differ",
            spec.name
        );
        assert_eq!(first.report, second.report);
    }
}

#[test]
fn different_seeds_change_the_trace_but_not_the_guarantees() {
    let spec = ScenarioSpec::handoff_cliff();
    let a = ScenarioEngine::new(spec.clone().with_seed(1)).run_sync();
    let b = ScenarioEngine::new(spec.with_seed(2)).run_sync();
    assert_ne!(
        a.trace.canonical_text(),
        b.trace.canonical_text(),
        "different seeds must explore different loss patterns"
    );
    for outcome in [a, b] {
        assert_eq!(outcome.report.undelivered_total(), 0);
        assert!(outcome.report.fec_inserted_then_removed());
    }
}

#[test]
fn every_fanout_scenario_closes_its_per_lane_loops_on_both_appliers_at_both_seeds() {
    for seed in MATRIX_SEEDS {
        for spec in FanoutSpec::fanout_matrix() {
            let spec = spec.with_seed(seed);
            let engine = FanoutEngine::new(spec.clone());
            let outcome = engine.run_sync();
            let context = format!("{} @ seed {seed}", spec.name);

            // Per-lane health: full accounting, zero undelivered, FEC
            // cycles only on the lanes whose loss schedule demands them,
            // no parity on quiet lanes, convergence, trace replay.
            let problems = outcome.health_problems(&spec);
            assert!(problems.is_empty(), "{context}: {problems:?}");

            // The live session applier — shared head chain, fanout stage,
            // one tail chain per lane, all tasks on a fixed worker pool,
            // reconfigured lane by lane while packets flow — must agree
            // with the sync run byte for byte.
            let pooled = engine.run_pooled();
            assert_same_outcome(
                &context,
                "pooled fanout",
                &outcome.trace.canonical_text(),
                &outcome.report,
                &pooled.trace.canonical_text(),
                &pooled.report,
            );
        }
    }
}

#[test]
fn fanout_traces_are_byte_identical_per_spec_and_seed() {
    for spec in FanoutSpec::fanout_matrix() {
        let engine = FanoutEngine::new(spec.clone());
        let first = engine.run_sync();
        let second = engine.run_sync();
        assert_eq!(
            first.trace.canonical_text(),
            second.trace.canonical_text(),
            "{}: two runs of the same spec+seed differ",
            spec.name
        );
        assert_eq!(first.report, second.report);
    }
}

#[test]
fn a_fixed_seed_scenario_over_a_shared_socket_carrier_matches_the_sync_applier() {
    // The wire must be invisible to the closed loop: the same scenario at
    // the same seed, run with every packet crossing two real loopback UDP
    // sockets (app socket → carrier demuxed by stream id onto the worker
    // pool → app socket, via `Proxy::add_stream_udp_shared`), must produce
    // the sync applier's report — delivered + recovered totals exactly —
    // and the identical canonical trace, byte for byte, at both matrix
    // seeds.
    for seed in MATRIX_SEEDS {
        let spec = ScenarioSpec::handoff_cliff().with_seed(seed);
        let engine = ScenarioEngine::new(spec);
        let sync = engine.run_sync();
        let shared = engine.run_udp_shared();
        assert_same_outcome(
            &format!("handoff-cliff @ seed {seed}"),
            "shared-udp",
            &sync.trace.canonical_text(),
            &sync.report,
            &shared.trace.canonical_text(),
            &shared.report,
        );
    }

    // Same bar for a fanout spec: every lane multiplexed back out of the
    // one carrier socket towards its own app-side peer.
    let fanout = FanoutSpec::fanout_matrix()
        .into_iter()
        .next()
        .expect("the fanout matrix is non-empty")
        .with_seed(MATRIX_SEEDS[0]);
    let engine = FanoutEngine::new(fanout);
    let sync = engine.run_sync();
    let shared = engine.run_udp_shared();
    assert_same_outcome(
        "fanout @ shared carrier",
        "shared-udp fanout",
        &sync.trace.canonical_text(),
        &sync.report,
        &shared.trace.canonical_text(),
        &shared.report,
    );
}

#[test]
fn batch_size_does_not_change_the_closed_loop() {
    // PR 1's batched data plane must be invisible to the control plane:
    // per-packet and batch-32 live chains produce the same trace.
    let spec = ScenarioSpec::handoff_cliff().with_packets(1_200);
    let per_packet = ScenarioEngine::new(spec.clone().with_batch_size(1)).run_pooled();
    let batched = ScenarioEngine::new(spec.with_batch_size(32)).run_pooled();
    assert_eq!(per_packet.trace.canonical_text(), batched.trace.canonical_text());
    assert_eq!(per_packet.report, batched.report);
}

#[test]
fn scheduler_shape_does_not_change_the_closed_loop() {
    // The sharded runtime must be invisible to the control plane too:
    // worker count and step batch size are pure execution details, so a
    // 1-shard batch-1 pool and an 8-shard batch-32 pool produce the same
    // trace as each other (and, via the matrix test, as the sync run) —
    // for a flat stream and for a fanout session alike.
    let spec = ScenarioSpec::handoff_cliff().with_packets(1_200);
    let engine = ScenarioEngine::new(spec);
    let window = 50usize;
    let single = engine.run_with(&mut LiveApplier::stream(LiveIo::Pipes, 1, 1, window));
    let wide = engine.run_with(&mut LiveApplier::stream(LiveIo::Pipes, 8, 32, window));
    assert_eq!(single.trace.canonical_text(), wide.trace.canonical_text());
    assert_eq!(single.report, wide.report);

    let spec = FanoutSpec::wired_plus_lossy_wlan().with_packets(600);
    let lanes: Vec<String> = spec.lanes.iter().map(|lane| lane.name.clone()).collect();
    let session = |shards, batch_size| {
        LiveApplier::session(
            LiveIo::Pipes,
            &spec.name,
            &spec.head_filters,
            &lanes,
            shards,
            batch_size,
            spec.sample_interval as usize,
        )
    };
    let engine = FanoutEngine::new(spec.clone());
    let single = engine.run_with(&mut session(1, 1));
    let wide = engine.run_with(&mut session(8, 32));
    assert_eq!(single.trace.canonical_text(), wide.trace.canonical_text());
    assert_eq!(single.report, wide.report);
}

/// Canonical-trace digests of every built-in sync run — the six flat
/// scenarios and the three fanout scenarios, each at both matrix seeds —
/// recorded once and checked on every commit.  Every other equality in
/// this file compares two appliers within one build; this one pins the
/// sync applier's traces across builds, so a change to how the sync path
/// batches, flushes or orders packets cannot shift every placement at
/// once unnoticed.
const PINNED_SYNC_DIGESTS: [(&str, u64, u64); 18] = [
    ("steady-wlan", 2001, 0xfb7f5926e4342c1e),
    ("bursty-gilbert-elliott", 2001, 0xe5c2fce1ae06a497),
    ("handoff-cliff", 2001, 0xa0fb18c787d3d70b),
    ("multicast-fanout-lossy-receiver", 2001, 0xb61881688249289f),
    ("congestion-ramp", 2001, 0x4121e8b5c8ba4f1e),
    ("flapping-link", 2001, 0x53587772b17a3add),
    ("fanout-wired-plus-lossy-wlan", 2001, 0x318b80c516339848),
    ("fanout-tiered-wireless", 2001, 0xb81bc1cb6847ef17),
    ("fanout-all-wired", 2001, 0x632596ead5e376d1),
    ("steady-wlan", 42, 0x1d80ac8ce23800bd),
    ("bursty-gilbert-elliott", 42, 0xf716bbd455047150),
    ("handoff-cliff", 42, 0x350c5b7452bc2bfc),
    ("multicast-fanout-lossy-receiver", 42, 0x51b44d10e376f68d),
    ("congestion-ramp", 42, 0x7615c5e47832a725),
    ("flapping-link", 42, 0xa43aafd4a239b9a1),
    ("fanout-wired-plus-lossy-wlan", 42, 0xbaa9bda0c483200a),
    ("fanout-tiered-wireless", 42, 0xc600200defc54443),
    ("fanout-all-wired", 42, 0x8916c8af5d4e956c),
];

#[test]
fn builtin_sync_trace_digests_are_pinned() {
    let mut actual = Vec::new();
    for seed in MATRIX_SEEDS {
        for spec in ScenarioSpec::builtin_matrix() {
            let outcome = ScenarioEngine::new(spec.clone().with_seed(seed)).run_sync();
            actual.push((spec.name, seed, outcome.trace.digest()));
        }
        for spec in FanoutSpec::fanout_matrix() {
            let outcome = FanoutEngine::new(spec.clone().with_seed(seed)).run_sync();
            actual.push((spec.name, seed, outcome.trace.digest()));
        }
    }
    let pinned: Vec<(String, u64, u64)> = PINNED_SYNC_DIGESTS
        .iter()
        .map(|&(name, seed, digest)| (name.to_string(), seed, digest))
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(name, seed, digest)| format!("    ({name:?}, {seed}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(actual, pinned, "sync trace digests moved; now:\n{rendered}");
}
