//! Lightweight transfer statistics for a detachable pipe.
//!
//! Statistics are kept on both halves of a pipe and are used by the proxy's
//! observer raplets (e.g. a loss-rate observer compares what a sender
//! delivered with what a downstream endpoint received) and by the benchmark
//! harness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, lock-free counters describing the lifetime activity of one pipe
/// half.
///
/// A [`PipeStats`] is cheap to clone (it is an `Arc` of atomics) and can be
/// handed to monitoring code while the pipe continues to run.
#[derive(Debug, Clone, Default)]
pub struct PipeStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    items: AtomicU64,
    blocked_sends: AtomicU64,
}

impl PipeStats {
    /// Creates a fresh, zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_items(&self, count: u64) {
        self.inner.items.fetch_add(count, Ordering::Relaxed);
    }

    pub(crate) fn record_blocked_send(&self) {
        self.inner.blocked_sends.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of items successfully transferred so far.
    pub fn items(&self) -> u64 {
        self.inner.items.load(Ordering::Relaxed)
    }

    /// Number of `send` calls that had to block before completing.
    pub fn blocked_sends(&self) -> u64 {
        self.inner.blocked_sends.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let stats = PipeStats::new();
        assert_eq!([stats.items(), stats.blocked_sends()], [0; 2]);
    }

    #[test]
    fn counters_accumulate() {
        let stats = PipeStats::new();
        stats.record_items(2);
        stats.record_blocked_send();
        assert_eq!(stats.items(), 2);
        assert_eq!(stats.blocked_sends(), 1);
    }

    #[test]
    fn clones_share_counters() {
        let stats = PipeStats::new();
        let clone = stats.clone();
        clone.record_items(1);
        assert_eq!(stats.items(), 1);
    }
}
