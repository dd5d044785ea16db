//! Receipt and reconstruction accounting.
//!
//! Figure 7 of the paper plots, for every window of 432 packets, the
//! percentage of packets *received* over the wireless link and the
//! percentage *reconstructed* after FEC decoding.  [`ReceiptStats`] performs
//! exactly that bookkeeping: the experiment harness feeds it one
//! [`LossEvent`] per source packet and reads back per-window and aggregate
//! percentages.

use std::fmt;

use crate::id::SeqNo;

/// The fate of one source packet at a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossEvent {
    /// The packet arrived over the network.
    Received,
    /// The packet was lost on the network but recovered by FEC decoding.
    Reconstructed,
    /// The packet was lost and could not be recovered.
    Lost,
}

/// Aggregated statistics for one window of consecutive source packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Sequence number of the first packet in the window.
    pub start_seq: u64,
    /// Number of packets accounted for in this window.
    pub total: u64,
    /// Packets that arrived over the network.
    pub received: u64,
    /// Packets recovered by FEC (in addition to those received).
    pub reconstructed: u64,
}

impl WindowStats {
    /// Percentage of packets received over the network (0–100).
    pub fn received_pct(&self) -> f64 {
        percentage(self.received, self.total)
    }

    /// Percentage of packets available after FEC reconstruction (0–100).
    pub fn reconstructed_pct(&self) -> f64 {
        percentage(self.received + self.reconstructed, self.total)
    }
}

impl fmt::Display for WindowStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq {:>6}: received {:6.2}%  reconstructed {:6.2}%",
            self.start_seq,
            self.received_pct(),
            self.reconstructed_pct()
        )
    }
}

/// Accumulates per-packet outcomes into fixed-size windows, mirroring the
/// x-axis of the paper's Figure 7.
#[derive(Debug, Clone)]
pub struct ReceiptStats {
    window_size: u64,
    windows: Vec<WindowStats>,
    total: u64,
    received: u64,
    reconstructed: u64,
}

impl ReceiptStats {
    /// Creates an accumulator with the given window size (in packets).
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero.
    pub fn new(window_size: u64) -> Self {
        assert!(window_size > 0, "window size must be non-zero");
        Self {
            window_size,
            windows: Vec::new(),
            total: 0,
            received: 0,
            reconstructed: 0,
        }
    }

    /// Window size in packets.
    pub fn window_size(&self) -> u64 {
        self.window_size
    }

    /// Records the outcome of the source packet with sequence number `seq`.
    pub fn record(&mut self, seq: SeqNo, event: LossEvent) {
        let window_index = (seq.value() / self.window_size) as usize;
        if self.windows.len() <= window_index {
            self.windows.resize_with(window_index + 1, WindowStats::default);
            for (i, window) in self.windows.iter_mut().enumerate() {
                if window.total == 0 && window.start_seq == 0 {
                    window.start_seq = i as u64 * self.window_size;
                }
            }
        }
        let window = &mut self.windows[window_index];
        window.start_seq = window_index as u64 * self.window_size;
        window.total += 1;
        self.total += 1;
        match event {
            LossEvent::Received => {
                window.received += 1;
                self.received += 1;
            }
            LossEvent::Reconstructed => {
                window.reconstructed += 1;
                self.reconstructed += 1;
            }
            LossEvent::Lost => {}
        }
    }

    /// Per-window statistics, in sequence order.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Total number of packets recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Overall percentage of packets received over the network.
    pub fn received_pct(&self) -> f64 {
        percentage(self.received, self.total)
    }

    /// Overall percentage of packets available after FEC reconstruction.
    pub fn reconstructed_pct(&self) -> f64 {
        percentage(self.received + self.reconstructed, self.total)
    }

    /// Number of packets that were neither received nor reconstructed.
    pub fn unrecovered(&self) -> u64 {
        self.total - self.received - self.reconstructed
    }
}

fn percentage(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_reception_is_100_percent() {
        let mut stats = ReceiptStats::new(10);
        for seq in 0..30u64 {
            stats.record(SeqNo::new(seq), LossEvent::Received);
        }
        assert_eq!(stats.total(), 30);
        assert!((stats.received_pct() - 100.0).abs() < f64::EPSILON);
        assert!((stats.reconstructed_pct() - 100.0).abs() < f64::EPSILON);
        assert_eq!(stats.windows().len(), 3);
    }

    #[test]
    fn fec_recovery_raises_reconstructed_above_received() {
        let mut stats = ReceiptStats::new(100);
        for seq in 0..100u64 {
            let event = if seq % 10 == 0 {
                LossEvent::Reconstructed
            } else {
                LossEvent::Received
            };
            stats.record(SeqNo::new(seq), event);
        }
        assert!((stats.received_pct() - 90.0).abs() < 1e-9);
        assert!((stats.reconstructed_pct() - 100.0).abs() < 1e-9);
        assert_eq!(stats.unrecovered(), 0);
    }

    #[test]
    fn unrecovered_losses_are_counted() {
        let mut stats = ReceiptStats::new(4);
        stats.record(SeqNo::new(0), LossEvent::Received);
        stats.record(SeqNo::new(1), LossEvent::Lost);
        stats.record(SeqNo::new(2), LossEvent::Lost);
        stats.record(SeqNo::new(3), LossEvent::Reconstructed);
        assert_eq!(stats.unrecovered(), 2);
        assert!((stats.received_pct() - 25.0).abs() < 1e-9);
        assert!((stats.reconstructed_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn windows_follow_sequence_numbers() {
        let mut stats = ReceiptStats::new(432);
        stats.record(SeqNo::new(0), LossEvent::Received);
        stats.record(SeqNo::new(431), LossEvent::Received);
        stats.record(SeqNo::new(432), LossEvent::Lost);
        stats.record(SeqNo::new(900), LossEvent::Received);
        let windows = stats.windows();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].start_seq, 0);
        assert_eq!(windows[0].total, 2);
        assert_eq!(windows[1].start_seq, 432);
        assert!((windows[1].received_pct() - 0.0).abs() < 1e-9);
        assert_eq!(windows[2].start_seq, 864);
    }

    #[test]
    fn window_display_mentions_both_percentages() {
        let window = WindowStats {
            start_seq: 0,
            total: 4,
            received: 3,
            reconstructed: 1,
        };
        let text = window.to_string();
        assert!(text.contains("received"));
        assert!(text.contains("reconstructed"));
    }

    #[test]
    fn empty_stats_report_zero() {
        let stats = ReceiptStats::new(10);
        assert_eq!(stats.received_pct(), 0.0);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    #[should_panic(expected = "window size must be non-zero")]
    fn zero_window_panics() {
        let _ = ReceiptStats::new(0);
    }
}
