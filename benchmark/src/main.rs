//! `proxybench`: drives a real `rapidware` `Proxy` socket to socket (or
//! pipe to pipe) under four named workloads and prints what its users
//! would feel — forwarding capacity, added latency, delivery, CPU and
//! memory, and the cost of a live splice — plus, in a separate traced run,
//! an outside-in ledger of where each layer's time goes.
//!
//! See `README.md` for the glossary and `../BENCHMARK.json` for the
//! contract the numbers are gated against.

mod harness;
mod probes;
mod report;
mod stats;
mod sys;
mod verify;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rapidware::proxy::{FilterSpec, HistogramSnapshot, Proxy, TelemetrySnapshot};

use harness::{Bench, Drive, Host, PhaseConfig, PhaseOutcome, TransportDelta, ALIGN, WINDOW};
use report::{Metric, RunReport, END_TO_END, PER_LAYER};
use stats::{median, quartile_spread, rank_percentile};
use workload::{Shape, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_010_416;
/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;
/// A run whose generator sent a tenth of its packets later than this in its
/// median window did not offer the schedule it claims.
const MAX_GEN_LAG: Duration = Duration::from_millis(2);
/// The open-loop sender may end this share of its schedule late, plus
/// `FINISH_SLACK` for a host freeze near the end, and still have held the
/// frozen rate.
const RATE_SLACK: f64 = 0.01;
/// See [`RATE_SLACK`].
const FINISH_SLACK: Duration = Duration::from_millis(100);
/// Lowest delivered ratio an open-loop phase may show.
const MIN_DELIVERED_RATIO: f64 = 0.99;

/// How long and how often each part of a run goes.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Set-ups per run (`setup_s` is their median); the first one is measured.
    setups: usize,
    /// Warm-up sources each set-up must deliver in full.
    warmup: u64,
    /// Length of a closed-loop capacity phase.
    capacity: Duration,
    /// Length of the open-loop latency phase.
    latency: Duration,
    /// Width of a statistics window.
    window: Duration,
    /// Alternating insert/remove splices (`fanout-mixed` only).
    splices: usize,
    /// Pause between splices.
    splice_gap: Duration,
    /// Sources recorded per lane and phase for the heavy checks.
    sample: u64,
}

impl Plan {
    /// An untraced run measures for `seconds`: half capacity, half latency.
    fn untraced(seconds: u64) -> Self {
        let half = Duration::from_secs_f64(seconds as f64 / 2.0);
        Self {
            setups: 7,
            warmup: 20_000u64.next_multiple_of(ALIGN),
            capacity: half,
            latency: half,
            window: Self::window_for(half),
            splices: 200,
            splice_gap: Duration::from_millis(10),
            sample: 1024,
        }
    }

    /// A traced run spends a quarter each on untraced capacity, traced
    /// capacity and traced latency, and the rest on the probes.
    fn traced(seconds: u64) -> Self {
        let quarter = Duration::from_secs_f64(seconds as f64 / 4.0);
        Self {
            setups: 1,
            capacity: quarter,
            latency: quarter,
            window: Self::window_for(quarter),
            ..Self::untraced(seconds)
        }
    }

    /// All four workloads in under ten seconds, same verifier.
    fn smoke() -> Self {
        Self {
            setups: 1,
            warmup: 2048,
            capacity: Duration::from_millis(600),
            latency: Duration::from_millis(600),
            window: Duration::from_millis(50),
            splices: 20,
            splice_gap: Duration::from_millis(5),
            sample: 256,
        }
    }

    /// 100-ms windows — a hundred per ten-second phase — or ten per phase
    /// when the phase is short.
    fn window_for(phase: Duration) -> Duration {
        Duration::from_millis(100).min(phase / 10)
    }

    fn phase(&self, drive: Drive, length: Duration) -> PhaseConfig {
        PhaseConfig {
            drive,
            window: self.window,
            windows: (length.as_nanos() / self.window.as_nanos()) as usize,
            sample_sources: self.sample,
        }
    }

    fn warmup_phase(&self) -> PhaseConfig {
        PhaseConfig {
            sample_sources: 0,
            ..self.phase(Drive::Count(self.warmup), Duration::ZERO)
        }
    }

    fn capacity_phase(&self) -> PhaseConfig {
        self.phase(Drive::For(self.capacity), self.capacity)
    }

    fn latency_phase(&self, workload: &Workload) -> PhaseConfig {
        let drive = Drive::Paced {
            rate_pps: workload.rate_pps,
            length: self.latency,
        };
        self.phase(drive, self.latency)
    }
}

/// Failures and validity of a run, gathered phase by phase.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// Why the outputs are not correct (empty when they are).
    incorrect: Vec<String>,
    /// Why the run measured something other than it claims.
    invalid: Vec<String>,
    /// Ungated context printed with the report.
    notes: Vec<String>,
}

impl Ledger {
    /// Books a phase.  `lossless` phases (closed loop: the window keeps the
    /// kernel from dropping) must deliver everything.
    fn book(&mut self, name: &str, phase: &PhaseOutcome, lossless: bool) {
        let lost = phase.sent - phase.delivered;
        self.attempted += phase.sent;
        self.failed += lost + phase.violations.total() + phase.sample_failed;
        if phase.violations.total() > 0 {
            self.incorrect
                .push(format!("{name}: {:?}", phase.violations));
        }
        if phase.sample_failed > 0 {
            let (failed, checked) = (phase.sample_failed, phase.sample_checked);
            self.incorrect
                .push(format!("{name}: {failed} of {checked} heavy checks failed"));
        }
        if lossless && lost > 0 {
            self.incorrect.push(format!(
                "{name}: {lost} of {} not delivered (per lane {:?}; {:?})",
                phase.sent, phase.lane_delivered, phase.transport
            ));
        }
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

/// Sets up (proxy, sockets, chains) and warms up; the time this takes is
/// one `setup_s` sample.
fn set_up<'w>(
    workload: &'w Workload,
    host: &'w Host,
    plan: &Plan,
    traced: bool,
) -> Result<(Bench<'w>, f64), String> {
    let start = Instant::now();
    let mut bench = Bench::set_up(workload, host, traced)?;
    let warmup = bench.run_phase(&plan.warmup_phase(), |_| ())?;
    if warmup.delivered != warmup.sent || warmup.violations.total() > 0 {
        return Err(format!(
            "warm-up delivered {} of {} (per lane {:?}; {:?}; {:?})",
            warmup.delivered,
            warmup.sent,
            warmup.lane_delivered,
            warmup.violations,
            warmup.transport
        ));
    }
    Ok((bench, start.elapsed().as_secs_f64()))
}

/// Capacity: delivered sources per second in the phase's median window.
fn capacity_pps(phase: &PhaseOutcome, plan: &Plan) -> f64 {
    let rates: Vec<f64> = phase
        .window_counts
        .iter()
        .map(|&count| count as f64 / plan.window.as_secs_f64())
        .collect();
    median(&rates)
}

/// Each window's `p` latency in µs; infinite where the rank falls among the
/// undelivered.
fn window_latencies_us(phase: &PhaseOutcome, p: f64) -> Vec<f64> {
    phase
        .window_latencies
        .iter()
        .zip(&phase.window_offered)
        .map(|(latencies, &offered)| {
            rank_percentile(latencies, offered as usize, p).map_or(f64::INFINITY, micros)
        })
        .collect()
}

/// The median window's `p` latency in µs.  If half the windows lost that
/// rank to undelivered packets the run measured nothing.
fn windowed_latency_us(phase: &PhaseOutcome, p: f64, ledger: &mut Ledger) -> f64 {
    let windows = window_latencies_us(phase, p);
    let middle = median(&windows);
    if middle.is_infinite() {
        ledger
            .invalid
            .push(format!("half the windows lost their p{:.0}", p * 100.0));
    }
    let best = windows.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = windows.iter().copied().fold(0.0, f64::max);
    ledger.notes.push(format!(
        "latency window p{:.0} (us): best {best:.0}, median {middle:.0}, worst {worst:.0}",
        p * 100.0
    ));
    middle
}

/// Checks the open-loop phase offered what it claims, and returns the
/// generator's whole-phase p99 lateness in µs.
///
/// The gated latency is the median over the windows, so the few windows
/// the host froze in do not move it; what would corrupt it is a generator
/// that is late in its median window too, or one that never catches up
/// with its schedule.  Those make the run invalid.
fn check_generator(phase: &PhaseOutcome, workload: &Workload, ledger: &mut Ledger) -> f64 {
    let late_p90: Vec<f64> = phase
        .window_gen_lag
        .iter()
        .map(|lag| micros(rank_percentile(lag, lag.len(), 0.9).unwrap_or(0)))
        .collect();
    let typical = median(&late_p90);
    if typical > micros(MAX_GEN_LAG.as_nanos() as u64) {
        ledger.invalid.push(format!(
            "generator p90 lateness {typical:.0} us in its median window"
        ));
    }
    // The window rule lets the sender fall behind a proxy that cannot keep
    // up; a schedule that ends late was not offered at the frozen rate.
    let scheduled = Duration::from_nanos(stats::due_offset_ns(phase.wire_sent, workload.rate_pps));
    if phase.active > scheduled.mul_f64(1.0 + RATE_SLACK) + FINISH_SLACK {
        ledger.invalid.push(format!(
            "sender took {:.3} s for a {:.3} s schedule",
            phase.active.as_secs_f64(),
            scheduled.as_secs_f64()
        ));
    }
    let all = sorted(phase.window_gen_lag.concat());
    let at = |p| micros(rank_percentile(&all, all.len(), p).unwrap_or(0));
    ledger.notes.push(format!(
        "generator lateness p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, max {:.0} us; p90 in its median window {typical:.0} us",
        at(0.5),
        at(0.9),
        at(0.99),
        at(1.0)
    ));
    at(0.99)
}

/// The splice phase: alternating `insert_lane_filter`/`remove_lane_filter`
/// of a `tap` on the `plain` lane while the closed loop keeps flowing.
/// Returns each call's duration and how many calls failed.
fn splice(proxy: &Proxy, plan: &Plan) -> (Vec<u64>, u64) {
    let (mut times, mut failed) = (Vec::with_capacity(plan.splices), 0);
    let Ok(session) = proxy.pooled_session("fanout") else {
        return (times, plan.splices as u64);
    };
    let tap = FilterSpec::new("tap");
    for index in 0..plan.splices {
        std::thread::sleep(plan.splice_gap);
        let start = Instant::now();
        let result = if index % 2 == 0 {
            session.insert_lane_filter("plain", 0, &tap)
        } else {
            session.remove_lane_filter("plain", 0).map(drop)
        };
        times.push(start.elapsed().as_nanos() as u64);
        failed += u64::from(result.is_err());
    }
    (times, failed)
}

/// Runs the splice phase on `fanout-mixed` (no other workload has lanes).
fn splice_phase(
    bench: &mut Bench<'_>,
    plan: &Plan,
    ledger: &mut Ledger,
) -> Result<(PhaseOutcome, Vec<u64>, u64), String> {
    let mut spliced = (Vec::new(), 0);
    let config = plan.phase(Drive::UntilStopped, Duration::ZERO);
    let phase = bench.run_phase(&config, |proxy| spliced = splice(proxy, plan))?;
    ledger.book("splice", &phase, true);
    if spliced.1 > 0 {
        ledger
            .incorrect
            .push(format!("{} splice calls failed", spliced.1));
    }
    Ok((phase, sorted(spliced.0), spliced.1))
}

/// Process CPU minus the two generator threads', per delivered source: at
/// the latency phase's fixed rate this makes the idle reactor tick visible.
fn cpu_us_per_pkt(phase: &PhaseOutcome) -> f64 {
    micros(phase.proxy_cpu_ns) / phase.delivered.max(1) as f64
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The untraced run: every end-to-end metric of one workload.
fn run_untraced(
    workload: &Workload,
    host: &Host,
    plan: &Plan,
) -> Result<(RunReport, Ledger), String> {
    let mut ledger = Ledger::default();
    let (mut bench, first_setup) = set_up(workload, host, plan, false)?;
    let mut setups = vec![first_setup];

    let capacity = bench.run_phase(&plan.capacity_phase(), |_| ())?;
    ledger.book("capacity", &capacity, true);
    let counts: Vec<f64> = capacity
        .window_counts
        .iter()
        .map(|&count| count as f64)
        .collect();
    ledger.notes.push(format!(
        "capacity windows (pkt per window): worst {:.0}, median {:.0}, best {:.0}; proxy cpu {:.2} us/pkt",
        counts.iter().copied().fold(f64::INFINITY, f64::min),
        median(&counts),
        counts.iter().copied().fold(0.0, f64::max),
        cpu_us_per_pkt(&capacity)
    ));
    let latency = bench.run_phase(&plan.latency_phase(workload), |_| ())?;
    ledger.book("latency", &latency, false);
    check_generator(&latency, workload, &mut ledger);
    let (mut offered, mut delivered) = (latency.sent, latency.delivered);
    if workload.shape == Shape::Fanout {
        let (phase, _, _) = splice_phase(&mut bench, plan, &mut ledger)?;
        offered += phase.sent;
        delivered += phase.delivered;
    }
    // The peak of one set-up and its phases.  The other set-ups come after
    // it: what several proxies' worth of freed memory leaves behind in the
    // allocator varied the peak by a third from run to run.
    let rss_mb = sys::vm_hwm_kib() as f64 / 1024.0;
    bench.tear_down()?;
    while setups.len() < plan.setups {
        let (again, seconds) = set_up(workload, host, plan, false)?;
        again.tear_down()?;
        setups.push(seconds);
    }

    let delivered_ratio = delivered as f64 / offered as f64;
    if delivered_ratio < MIN_DELIVERED_RATIO {
        ledger
            .incorrect
            .push(format!("delivered ratio {delivered_ratio:.4}"));
    }
    let values = [
        median(&setups),
        capacity_pps(&capacity, plan),
        windowed_latency_us(&latency, 0.5, &mut ledger),
        delivered_ratio,
        rss_mb,
    ];
    // Shown here as notes only (see README, "Measured steadiness"); the
    // traced run reports them as `bench.latency_p90_us`/`bench.cpu_us_per_pkt`.
    windowed_latency_us(&latency, 0.9, &mut ledger);
    ledger.notes.push(format!(
        "latency-phase proxy cpu {:.2} us/pkt",
        cpu_us_per_pkt(&latency)
    ));
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, value)| metric(spec.name, value, spec.unit))
        .collect();
    let report = RunReport {
        correct: ledger.incorrect.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    };
    Ok((report, ledger))
}

/// Every histogram whose name ends in `suffix`, merged.
fn merged_suffix(snapshot: &TelemetrySnapshot, suffix: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for (name, histogram) in &snapshot.histograms {
        if name.ends_with(suffix) {
            merged.merge(histogram);
        }
    }
    merged
}

/// The traced run: the per-layer ledger of one workload.
fn run_traced(
    workload: &Workload,
    host: &Host,
    plan: &Plan,
) -> Result<(RunReport, Ledger), String> {
    let mut ledger = Ledger::default();
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));

    // Same capacity phase with the proxy's telemetry off, then on: the
    // ratio is the tracing overhead, and feeds no gated number.
    let (mut bench, _) = set_up(workload, host, plan, false)?;
    let untraced = bench.run_phase(&plan.capacity_phase(), |_| ())?;
    ledger.book("capacity", &untraced, true);
    bench.tear_down()?;

    let (mut bench, _) = set_up(workload, host, plan, true)?;
    let capacity = bench.run_phase(&plan.capacity_phase(), |_| ())?;
    ledger.book("traced capacity", &capacity, true);
    let latency = bench.run_phase(&plan.latency_phase(workload), |_| ())?;
    ledger.book("latency", &latency, false);
    put(
        "bench.gen_lag_p99_us",
        check_generator(&latency, workload, &mut ledger),
    );

    let (splice_times, splice_failed) = match workload.shape {
        Shape::Fanout => {
            let (_, times, failed) = splice_phase(&mut bench, plan, &mut ledger)?;
            (times, failed)
        }
        _ => (Vec::new(), 0),
    };
    let splice_us = |p| rank_percentile(&splice_times, splice_times.len(), p).map_or(0.0, micros);
    put("proxy.splice_us_p50", splice_us(0.5));
    put("proxy.splice_us_p90", splice_us(0.9));
    put("proxy.splice_failed", splice_failed as f64);

    let start = Instant::now();
    let snapshot = bench.proxy().telemetry().ok_or("telemetry was enabled")?;
    put(
        "telemetry.snapshot_us",
        micros(start.elapsed().as_nanos() as u64),
    );
    bench.tear_down()?;

    let histogram = |name: &str| snapshot.histogram(name).cloned().unwrap_or_default();
    let queue_wait = histogram("runtime.queue_wait_ns");
    put("proxy.queue_wait_ns_p50", queue_wait.percentile(0.5) as f64);
    put(
        "proxy.queue_wait_ns_p99",
        queue_wait.percentile(0.99) as f64,
    );
    put(
        "proxy.poll_ns_p50",
        histogram("runtime.poll_ns").percentile(0.5) as f64,
    );
    put(
        "proxy.reactor_scan_ns_p50",
        histogram("runtime.reactor.scan_ns").percentile(0.5) as f64,
    );
    put(
        "proxy.drain_batch_mean",
        merged_suffix(&snapshot, ".drain_batch").mean() as f64,
    );
    put(
        "proxy.steals",
        snapshot.stat("runtime.steals").unwrap_or(0) as f64,
    );
    put(
        "proxy.e2e_ns_p50",
        merged_suffix(&snapshot, ".e2e_ns").percentile(0.5) as f64,
    );

    let over_phases = |count: fn(&TransportDelta) -> u64| {
        (count(&capacity.transport) + count(&latency.transport)) as f64
    };
    put("transport.kernel_drops", over_phases(|t| t.kernel_drops));
    put("transport.route_drops", over_phases(|t| t.route_drops));
    put("transport.decode_errors", over_phases(|t| t.decode_errors));
    put(
        "transport.unknown_streams",
        over_phases(|t| t.unknown_streams),
    );

    let waits = sorted(latency.repair_waits.clone());
    put(
        "fec.recovery_wait_us_p50",
        rank_percentile(&waits, waits.len(), 0.5).map_or(0.0, micros),
    );
    let whole_phase = sorted(latency.window_latencies.concat());
    let offered: u64 = latency.window_offered.iter().sum();
    let p99 = rank_percentile(&whole_phase, offered as usize, 0.99);
    put("bench.latency_p99_us", p99.map_or(0.0, micros));
    put(
        "bench.latency_p90_us",
        windowed_latency_us(&latency, 0.9, &mut ledger),
    );
    put("bench.cpu_us_per_pkt", cpu_us_per_pkt(&latency));
    put(
        "telemetry.overhead_ratio",
        capacity_pps(&capacity, plan) / capacity_pps(&untraced, plan),
    );
    let cpu_ns_per_pkt = cpu_us_per_pkt(&untraced) * 1e3;
    put("bench.cpu_ns_per_pkt", cpu_ns_per_pkt);

    let probes = probes::run(workload, host)?;
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    // The probes on this workload's packet path, per delivered source.
    let wire_per_source = untraced.wire_sent as f64 / untraced.sent.max(1) as f64;
    let path_ns = match workload.shape {
        Shape::Relay => {
            probe("transport.ingress_drain_ns")
                + probe("proxy.runtime_hop_ns")
                + probe("filters.chain_ns")
                + probe("transport.egress_flush_ns")
        }
        Shape::PipeSecureFec => probe("proxy.runtime_hop_ns") + probe("filters.chain_ns"),
        Shape::Fanout => {
            probe("transport.ingress_drain_ns")
                + probe("proxy.session_fanout_ns")
                + probe("filters.chain_ns")
                + probe("transport.egress_flush_ns") * probe("filters.chain_out_per_in")
        }
        Shape::MuxRepair => {
            (probe("transport.ingress_drain_ns") + probe("filters.chain_ns")) * wire_per_source
                + probe("proxy.runtime_hop_ns")
                + probe("transport.egress_flush_ns")
        }
    };
    put(
        "bench.ledger_residual_ratio",
        1.0 - path_ns / cpu_ns_per_pkt,
    );
    values.extend(probes);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            value
                .map(|value| metric(name, value, unit))
                .ok_or(format!("{name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let report = RunReport {
        correct: ledger.incorrect.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    };
    Ok((report, ledger))
}

/// Commit of the tree under test: `PROXYBENCH_COMMIT`, else what `.git`
/// says, else unknown (the driver's checkout is not a repository).
fn commit() -> String {
    if let Ok(commit) = std::env::var("PROXYBENCH_COMMIT") {
        return commit;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".to_string(),
        commit => commit.chars().take(12).collect(),
    }
}

/// Run metadata and the metric table, for people; the last line is for the
/// driver.
fn describe(
    workload: &Workload,
    host: &Host,
    seed: u64,
    traced: bool,
    plan: &Plan,
    report: &RunReport,
    ledger: &Ledger,
) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "proxybench {} seed={seed} trace={} commit={} nproc={} kernel={} gf256={} rmem_default={}",
        workload.name,
        u8::from(traced),
        commit(),
        host.nproc(),
        sys::kernel_release(),
        rapidware::fec::gf256::active_kernel().name(),
        sys::rmem_default(),
    );
    let _ = writeln!(
        text,
        "  loopback UDP or in-process pipes: no real link. One sender and one receiver thread share the host with the proxy: {}.",
        host.describe()
    );
    let _ = writeln!(
        text,
        "  set-up x{} (warm-up {} pkt); capacity {:.2} s closed loop, window {WINDOW}; latency {:.2} s open loop at {} slots/s; windows of {:.2} s",
        plan.setups,
        plan.warmup,
        plan.capacity.as_secs_f64(),
        plan.latency.as_secs_f64(),
        workload.rate_pps,
        plan.window.as_secs_f64(),
    );
    let windows = plan.capacity_phase().windows;
    for metric in &report.metrics {
        let _ = write!(
            text,
            "  {:<30} {:>16.4} {:<6}",
            metric.name, metric.value, metric.unit
        );
        if let Some(spec) = END_TO_END.iter().find(|spec| spec.name == metric.name) {
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let samples = if spec.name == "setup_s" {
                plan.setups
            } else {
                windows
            };
            let _ = write!(
                text,
                " {better:<6} is better, bound {:.2}, n={samples}",
                spec.bound
            );
        }
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "  ops_attempted={} ops_failed={}",
        report.attempted, report.failed
    );
    for note in &ledger.notes {
        let _ = writeln!(text, "  {note}");
    }
    for reason in &ledger.incorrect {
        let _ = writeln!(text, "  INCORRECT: {reason}");
    }
    for reason in &ledger.invalid {
        let _ = writeln!(text, "  INVALID RUN: {reason}");
    }
    text
}

/// Runs one workload; prints the description and the result line, and
/// returns whether the outputs were correct.
fn run_one(
    name: &str,
    host: &Host,
    seed: u64,
    traced: bool,
    plan: &Plan,
    out: &mut String,
) -> Result<bool, String> {
    let workload = Workload::build(name, seed).ok_or(format!("unknown workload {name}"))?;
    let (report, ledger) = if traced {
        run_traced(&workload, host, plan)?
    } else {
        run_untraced(&workload, host, plan)?
    };
    print!(
        "{}",
        describe(&workload, host, seed, traced, plan, &report, &ledger)
    );
    let line = report.to_json_line();
    println!("{line}");
    out.push_str(&format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"result\": {line}}}\n",
        workload.name
    ));
    // An invalid run is flagged above, not failed: what makes a run invalid
    // here is the shared host freezing the generator, and whoever compares
    // runs takes medians over many, which one such run does not move.
    Ok(report.correct)
}

/// Runs this executable once on one workload and reads its result line.
fn child_run(name: &str, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|err| err.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout.lines().last().and_then(RunReport::from_json_line);
    match report {
        Some(report) if output.status.success() => Ok(report),
        _ => Err(format!("run of {name} with seed {seed} failed:\n{stdout}")),
    }
}

/// Two back-to-back sets of `runs` runs per workload, each run on another
/// seed; per metric the two medians, their difference in the worsening
/// direction, each set's quartile spread, and PASS/FAIL against the bound.
fn repeat(names: &[&str], runs: usize, seed: u64, seconds: u64) -> Result<bool, String> {
    let mut all_pass = true;
    for name in names {
        let mut sets: [Vec<RunReport>; 2] = [Vec::new(), Vec::new()];
        let mut failures = 0;
        for (set, reports) in sets.iter_mut().enumerate() {
            for run in 0..runs {
                match child_run(name, seed + (set * runs + run) as u64, seconds) {
                    Ok(report) => reports.push(report),
                    Err(problem) => {
                        failures += 1;
                        eprintln!("{problem}");
                    }
                }
                eprintln!("{name}: set {} run {} of {runs} done", set + 1, run + 1);
            }
        }
        all_pass &= failures == 0;
        println!("{name}: two sets of {runs} runs, {seconds} s each, {failures} failed");
        println!(
            "  {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
            "metric", "median 1", "median 2", "worse", "spread1", "spread2", "bound"
        );
        for spec in END_TO_END {
            let column = |reports: &[RunReport]| -> Vec<f64> {
                reports
                    .iter()
                    .filter_map(|report| report.value(spec.name))
                    .collect()
            };
            let (first, second) = (column(&sets[0]), column(&sets[1]));
            let (m1, m2) = (median(&first), median(&second));
            let worse = if spec.higher_is_better {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let spreads = [&first, &second].map(|set| quartile_spread(set).unwrap_or(0.0));
            // The set-up time's spread is reported, not gated.
            let steady = spec.name == "setup_s" || spreads.iter().all(|&s| s <= spec.bound);
            let pass = worse <= spec.bound && steady;
            all_pass &= pass;
            println!(
                "  {:<18} {m1:>14.4} {m2:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}% {}",
                spec.name,
                worse * 100.0,
                spreads[0] * 100.0,
                spreads[1] * 100.0,
                spec.bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
            );
        }
    }
    Ok(all_pass)
}

const USAGE: &str = "usage: proxybench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                  [--smoke] [--repeat RUNS] [--out FILE]
  workloads: relay-small pipe-secure-fec fanout-mixed mux-fec-repair (default: all)
  --trace 0   end-to-end metrics, proxy telemetry off (default)
  --trace 1   per-layer ledger: telemetry on, plus probes of each crate
  --smoke     all four workloads in under ten seconds, same verifier
  --repeat N  two sets of N untraced runs per workload; medians, spreads, PASS/FAIL
  --out FILE  also write each run's result as a JSON line to FILE";

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: workload::NAMES.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        repeat: None,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {text}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let known = workload::NAMES.iter().find(|known| *known == name);
                    options.workloads = vec![known.ok_or(format!("unknown workload {name}"))?];
                }
            }
            "--seed" => options.seed = number(value()?)?,
            "--seconds" => options.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => options.traced = number(value()?)? != 0,
            "--smoke" => options.smoke = true,
            "--repeat" => options.repeat = Some(number(value()?)?.max(2) as usize),
            "--out" => options.out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.repeat {
        Some(runs) => repeat(&options.workloads, runs, options.seed, options.seconds),
        None => {
            let plan = match (options.smoke, options.traced) {
                (true, _) => Plan::smoke(),
                (false, true) => Plan::traced(options.seconds),
                (false, false) => Plan::untraced(options.seconds),
            };
            let host = Host::claim();
            let mut results = String::new();
            let good = options.workloads.iter().try_fold(true, |good, name| {
                run_one(
                    name,
                    &host,
                    options.seed,
                    options.traced,
                    &plan,
                    &mut results,
                )
                .map(|ok| good && ok)
            });
            good.and_then(|good| match &options.out {
                Some(path) => std::fs::write(path, &results)
                    .map(|()| good)
                    .map_err(|err| format!("{path}: {err}")),
                None => Ok(good),
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("proxybench: {problem}");
            ExitCode::FAILURE
        }
    }
}
