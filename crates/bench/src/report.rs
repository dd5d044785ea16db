//! Machine-readable bench reports: `BENCH_<name>.json` at the repo root.
//!
//! The throughput benches print human-readable tables; CI and the
//! dashboards want numbers.  [`BenchReport`] collects repeated samples per
//! measurement and serialises a criterion-style summary — median, min,
//! max, and the raw samples — as one JSON file per bench:
//!
//! ```json
//! {
//!   "bench": "chain_batch",
//!   "measurements": [
//!     { "name": "threaded/batch-32", "unit": "packets/s",
//!       "median": 1234567.0, "min": 1200000.0, "max": 1300000.0,
//!       "samples": [1200000.0, 1234567.0, 1300000.0] }
//!   ]
//! }
//! ```
//!
//! Every report also carries a `meta` object ([`RunMeta`]) — commit, date,
//! host, and kernel/feature flags — so the checked-in files form a
//! *comparable series*: two `BENCH_*.json` files can be diffed knowing
//! which build produced each.  Commit and date come from the
//! `RAPIDWARE_BENCH_COMMIT` / `RAPIDWARE_BENCH_DATE` environment variables
//! (the regeneration command in the README passes them from `git` — the
//! harness never reads ambient clocks itself, keeping runs reproducible).
//!
//! Files land in the workspace root by default (so a single
//! `cargo bench -p rapidware-bench --bench …` invocation leaves
//! `BENCH_chain_batch.json`, `BENCH_runtime_scaling.json`,
//! `BENCH_udp_throughput.json`, and `BENCH_fanout.json` next to
//! `Cargo.toml`); set `RAPIDWARE_BENCH_DIR` to redirect them.  JSON is
//! hand-rolled — the schema is flat and the bench crate stays
//! dependency-free.

use std::io;
use std::path::PathBuf;

use rapidware::fec::gf256;
use rapidware::filters::Keystream;
use rapidware::packet::cpu::Cpu;
use rapidware::packet::CrcKernel;

/// Provenance for one bench run, embedded as the report's `meta` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Git commit the run was built from (`RAPIDWARE_BENCH_COMMIT`, or
    /// `"unknown"` when not passed in).
    pub commit: String,
    /// ISO date of the run (`RAPIDWARE_BENCH_DATE`, or `"unknown"`); passed
    /// in by the regeneration command rather than read from a clock.
    pub date: String,
    /// Host description: architecture, OS, and logical CPU count.
    pub host: String,
    /// Feature flags that affect the numbers — the GF(2⁸), CRC-32, ChaCha20
    /// keystream and Poly1305 kernels of `Cpu::active()`, and whether
    /// `RAPIDWARE_FORCE_SCALAR` emptied it.
    pub flags: String,
}

impl RunMeta {
    /// Captures run metadata from the environment.
    pub fn capture() -> Self {
        let env_or_unknown = |key: &str| {
            std::env::var(key)
                .ok()
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().to_string())
            .unwrap_or_else(|_| "?".to_string());
        let cpu = Cpu::active();
        let aead = Keystream::new(cpu);
        Self {
            commit: env_or_unknown("RAPIDWARE_BENCH_COMMIT"),
            date: env_or_unknown("RAPIDWARE_BENCH_DATE"),
            host: format!(
                "{}-{} ({threads} cpus)",
                std::env::consts::ARCH,
                std::env::consts::OS
            ),
            flags: format!(
                "gf256-kernel={} crc-kernel={} chacha-kernel={} mac-kernel={} force-scalar={}",
                gf256::Kernel::new(cpu).name(),
                CrcKernel::new(cpu).name(),
                aead.name(),
                aead.mac_name(),
                cpu.forced_scalar()
            ),
        }
    }
}

/// One named measurement: repeated samples of the same quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// What was measured (e.g. `threaded/batch-32`).
    pub name: String,
    /// The unit every sample is in (e.g. `packets/s`).
    pub unit: String,
    /// The raw samples, in run order.
    pub samples: Vec<f64>,
}

impl Measurement {
    /// The median sample (criterion's headline statistic): the middle
    /// sample, or the midpoint of the middle pair for even counts.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The median of `samples`.
///
/// # Panics
///
/// Panics on an empty slice — a measurement with no samples is a harness
/// bug, not a value.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of zero samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A bench run's collected measurements, serialisable as
/// `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    bench: String,
    meta: RunMeta,
    measurements: Vec<Measurement>,
}

impl BenchReport {
    /// An empty report for the bench called `name` (the file stem:
    /// `BENCH_<name>.json`), with run metadata captured from the
    /// environment (see [`RunMeta::capture`]).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            bench: name.into(),
            meta: RunMeta::capture(),
            measurements: Vec::new(),
        }
    }

    /// The run metadata this report will serialise.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Records one measurement's samples.
    pub fn record(&mut self, name: impl Into<String>, unit: &str, samples: &[f64]) {
        self.measurements.push(Measurement {
            name: name.into(),
            unit: unit.to_string(),
            samples: samples.to_vec(),
        });
    }

    /// The JSON document, pretty-printed with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string(&self.bench)));
        out.push_str("  \"meta\": {\n");
        out.push_str(&format!("    \"commit\": {},\n", json_string(&self.meta.commit)));
        out.push_str(&format!("    \"date\": {},\n", json_string(&self.meta.date)));
        out.push_str(&format!("    \"host\": {},\n", json_string(&self.meta.host)));
        out.push_str(&format!("    \"flags\": {}\n", json_string(&self.meta.flags)));
        out.push_str("  },\n");
        out.push_str("  \"measurements\": [\n");
        for (index, m) in self.measurements.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&m.name)));
            out.push_str(&format!("      \"unit\": {},\n", json_string(&m.unit)));
            out.push_str(&format!("      \"median\": {},\n", json_number(m.median())));
            out.push_str(&format!("      \"min\": {},\n", json_number(m.min())));
            out.push_str(&format!("      \"max\": {},\n", json_number(m.max())));
            let samples: Vec<String> = m.samples.iter().map(|&s| json_number(s)).collect();
            out.push_str(&format!("      \"samples\": [{}]\n", samples.join(", ")));
            out.push_str(if index + 1 == self.measurements.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<bench>.json` into `RAPIDWARE_BENCH_DIR` (or the
    /// workspace root) and returns the path.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = std::env::var_os("RAPIDWARE_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(workspace_root);
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite sample as a JSON number (always with a decimal point,
/// one decimal of precision — throughput numbers do not need more).
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "bench samples must be finite, got {value}");
    format!("{value:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn median_of_nothing_is_a_bug() {
        let _ = median(&[]);
    }

    #[test]
    fn reports_serialise_the_criterion_style_summary() {
        let mut report = BenchReport::new("demo");
        report.record("a/b", "packets/s", &[2.0, 1.0, 3.0]);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"name\": \"a/b\""));
        assert!(json.contains("\"median\": 2.0"));
        assert!(json.contains("\"min\": 1.0"));
        assert!(json.contains("\"max\": 3.0"));
        assert!(json.contains("\"samples\": [2.0, 1.0, 3.0]"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn reports_embed_run_metadata() {
        let report = BenchReport::new("demo");
        let json = report.to_json();
        assert!(json.contains("\"meta\": {"));
        assert!(json.contains("\"commit\": "));
        assert!(json.contains("\"date\": "));
        assert!(json.contains(&format!(
            "\"host\": {}",
            json_string(&report.meta().host)
        )));
        for flag in ["gf256-kernel=", "crc-kernel=", "chacha-kernel=", "mac-kernel=", "force-scalar="] {
            assert!(json.contains(flag), "{flag} missing from {json}");
        }
    }

    #[test]
    fn captured_flags_name_a_known_kernel() {
        let meta = RunMeta::capture();
        let kernel = meta
            .flags
            .split_once("gf256-kernel=")
            .map(|(_, rest)| rest.split(' ').next().unwrap_or(""))
            .unwrap_or("");
        assert!(
            matches!(kernel, "avx2" | "ssse3" | "scalar"),
            "unexpected kernel flag in {:?}",
            meta.flags
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
