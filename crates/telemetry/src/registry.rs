//! The histogram registry and its merged snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};

/// A process-local histogram registry.
///
/// [`histogram`] is get-or-register: the first call for a name allocates
/// the histogram, later calls return the same handle, so independently
/// wired subsystems can share one series.  The map is behind a plain
/// mutex — registration and snapshots are control-plane operations; the
/// data plane only ever touches the `Arc` handles it captured at
/// registration.  [`snapshot`] merges everything into a
/// [`TelemetrySnapshot`].
///
/// [`histogram`]: Self::histogram
/// [`snapshot`]: Self::snapshot
#[derive(Debug, Default)]
pub struct Registry {
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry behind an `Arc`, ready to be shared.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The histogram called `name`, registering it on first use.
    pub fn histogram(&self, name: impl Into<String>) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("registry mutex");
        Arc::clone(histograms.entry(name.into()).or_insert_with(|| Arc::new(Histogram::new())))
    }

    /// Merges every histogram into a point-in-time snapshot (with no
    /// `stats`: those are the owner's to fold in).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let histograms = self.histograms.lock().expect("registry mutex");
        TelemetrySnapshot {
            histograms: histograms
                .iter()
                .map(|(name, hist)| (name.clone(), hist.snapshot()))
                .collect(),
            stats: Vec::new(),
        }
    }
}

/// One named count, read from the object that owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Dotted scope and key (e.g. `stream.audio.packets_in`).
    pub name: String,
    /// The reading.
    pub value: u64,
}

/// One coherent view of every registered histogram plus the counts the
/// proxy folds in from its status (`Proxy::telemetry`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Counts with a scope prefix, in the order the proxy folded them.
    pub stats: Vec<Metric>,
}

impl TelemetrySnapshot {
    /// The histogram called `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The count called `name`, if present.
    pub fn stat(&self, name: &str) -> Option<u64> {
        self.stats.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every histogram whose name starts with `prefix`, merged into one.
    pub fn merged_histogram(&self, prefix: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (name, hist) in &self.histograms {
            if name.starts_with(prefix) {
                merged.merge(hist);
            }
        }
        merged
    }

    /// The snapshot as a pretty-printed JSON document (hand-rolled, like
    /// the bench reports — the schema is flat and this crate stays
    /// dependency-free).  Histograms serialise count/sum/min/max, the
    /// p50/p90/p99 estimates, and only their non-empty buckets as
    /// `[bucket_index, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"histograms\": {");
        for (index, (name, hist)) in self.histograms.iter().enumerate() {
            let sep = if index == 0 { "\n" } else { ",\n" };
            let min = if hist.is_empty() { 0 } else { hist.min };
            let _ = write!(
                out,
                "{sep}    {}: {{ \"count\": {}, \"sum\": {}, \"min\": {min}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                json_string(name),
                hist.count(),
                hist.sum,
                hist.max,
                hist.percentile(0.50),
                hist.percentile(0.90),
                hist.percentile(0.99),
            );
            let mut first = true;
            for (bucket, &count) in hist.buckets.iter().enumerate() {
                if count > 0 {
                    if !first {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{bucket}, {count}]");
                    first = false;
                }
            }
            out.push_str("] }");
        }
        out.push_str(if self.histograms.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"stats\": {");
        for (index, metric) in self.stats.iter().enumerate() {
            let sep = if index == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {}", json_string(&metric.name), metric.value);
        }
        out.push_str(if self.stats.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }
}

fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_instrument() {
        let registry = Registry::new();
        assert!(Arc::ptr_eq(&registry.histogram("h"), &registry.histogram("h")));
    }

    #[test]
    fn snapshot_merges_all_kinds() {
        let registry = Registry::new();
        registry.histogram("h").record(1_000);
        let mut snapshot = registry.snapshot();
        assert!(snapshot.stats.is_empty(), "the registry holds no counts");
        snapshot.stats.push(Metric { name: "scope.items".to_string(), value: 9 });
        assert_eq!(snapshot.histogram("h").map(|h| h.count()), Some(1));
        assert_eq!(snapshot.stat("scope.items"), Some(9));
        assert!(snapshot.histogram("missing").is_none());
        assert_eq!(snapshot.stat("missing"), None);
    }

    #[test]
    fn merged_histogram_folds_a_prefix_family() {
        let registry = Registry::new();
        registry.histogram("lane.0.e2e_ns").record(100);
        registry.histogram("lane.1.e2e_ns").record(200);
        registry.histogram("other").record(999);
        let merged = registry.snapshot().merged_histogram("lane.");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max, 200);
    }

    #[test]
    fn json_has_all_sections_and_escapes() {
        let registry = Registry::new();
        registry.histogram("h").record(7);
        let mut snapshot = registry.snapshot();
        snapshot.stats.push(Metric { name: "a\"b".to_string(), value: 1 });
        snapshot.stats.push(Metric { name: "s.v".to_string(), value: 2 });
        let json = snapshot.to_json();
        assert!(json.starts_with("{\n  \"histograms\": {"), "{json}");
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"buckets\": [[3, 1]]"));
        assert!(json.contains("\"s.v\": 2"));
        assert!(json.ends_with("}\n"));
        // An empty snapshot is still a valid document.
        let empty = TelemetrySnapshot::default().to_json();
        assert!(empty.contains("\"histograms\": {}"));
        assert!(empty.contains("\"stats\": {}"));
    }
}
