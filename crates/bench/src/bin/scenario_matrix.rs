//! Scenario-matrix runner: executes every built-in closed-loop scenario —
//! the one-lane multicast scenarios and the fanout scenarios — at two fixed
//! seeds and fails (exit code 1) on any panic, non-convergence, undelivered
//! data, spurious per-lane adaptation, or trace diff between repeated runs.
//!
//! This is the tooling face of the `tests/scenario_matrix.rs` harness: the
//! per-run pass/fail criteria are the shared
//! `ScenarioOutcome::health_problems`, and the seeds are the shared
//! `MATRIX_SEEDS`, so this report and the test assertions cannot drift
//! apart.  Run it for a human-readable health check:
//!
//! ```text
//! cargo run -p rapidware-bench --bin scenario_matrix
//! ```

use rapidware::engine::{ScenarioEngine, ScenarioSpec, MATRIX_SEEDS};

fn main() {
    let mut failures = 0u32;
    for seed in MATRIX_SEEDS {
        println!("== seed {seed} ==");
        for spec in ScenarioSpec::builtin_matrix() {
            let spec = spec.with_seed(seed);
            let engine = ScenarioEngine::new(spec.clone());
            let outcome = engine.run_sync();
            let rerun = engine.run_sync();
            let mut problems = outcome.health_problems(&spec);
            if outcome.trace.canonical_text() != rerun.trace.canonical_text() {
                problems.push("trace diff between identical runs".to_string());
            }
            println!("{}", outcome.report);
            if problems.is_empty() {
                println!("  OK");
            } else {
                failures += 1;
                for problem in &problems {
                    println!("  FAIL: {problem}");
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} scenario(s) failed");
        std::process::exit(1);
    }
    println!("scenario matrix clean");
}
