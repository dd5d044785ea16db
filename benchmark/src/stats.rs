//! The arithmetic every reported number goes through: medians, rank
//! percentiles that count undelivered packets, fixed-width windows, the
//! open-loop schedule and the closed-loop window rule.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
///
/// This is how a phase's windows are summarised: the windows a shared host
/// froze in (rate 0, latency unbounded) are few, and sit at one end.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p` quantile of `sorted` delivered latencies out of `offered`
/// attempts, by nearest rank.  An undelivered packet has no latency and so
/// sorts after every delivered one: it misses every percentile.  `None`
/// when the rank falls among the undelivered (or nothing was offered).
pub fn rank_percentile(sorted: &[u64], offered: usize, p: f64) -> Option<u64> {
    if offered == 0 {
        return None;
    }
    let rank = ((p * offered as f64).ceil() as usize).clamp(1, offered);
    sorted.get(rank - 1).copied()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method), so `repeat` reports the same spread the
/// acceptance rule is written in.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (slot, quartile) in out.iter_mut().zip(1..=3usize) {
        let j = (quartile * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quartile * (n + 1)) as f64 - (4 * j) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Index of the fixed-width window that `offset_ns` (time since the phase
/// started) falls in, or `None` past the last full window.
pub fn window_of(offset_ns: u64, window_ns: u64, windows: usize) -> Option<usize> {
    let index = (offset_ns / window_ns) as usize;
    (index < windows).then_some(index)
}

/// Open-loop schedule: slot `i` at `rate_pps` is due this many nanoseconds
/// after the phase started.  A pure function of the slot, so the receiver
/// can time a packet from when it was *due*, not from when it was sent.
pub fn due_offset_ns(slot: u64, rate_pps: u64) -> u64 {
    (u128::from(slot) * 1_000_000_000 / u128::from(rate_pps)) as u64
}

/// Closed-loop window rule: how many more packets may be sent when `sent`
/// have gone out, `acked` of them are accounted for downstream, and at most
/// `window` may be outstanding.  `floor` writes off packets the sender gave
/// up on after a stall, so one loss cannot wedge the loop.
pub fn window_room(sent: u64, acked: u64, floor: u64, window: u64) -> u64 {
    let outstanding = sent.saturating_sub(acked.max(floor));
    window.saturating_sub(outstanding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Windows the host froze in move it by a rank or two, no further.
        assert_eq!(median(&[3.0, 1.0, f64::INFINITY, 2.0, 4.0]), 3.0);
    }

    #[test]
    fn rank_percentile_counts_the_undelivered_as_slowest() {
        let delivered: Vec<u64> = (1..=90).collect();
        // All delivered: plain nearest rank.
        assert_eq!(rank_percentile(&delivered, 90, 0.5), Some(45));
        // Ten of a hundred lost: p50 shifts up, p90 is the last delivered,
        // p99 falls among the lost.
        assert_eq!(rank_percentile(&delivered, 100, 0.5), Some(50));
        assert_eq!(rank_percentile(&delivered, 100, 0.9), Some(90));
        assert_eq!(rank_percentile(&delivered, 100, 0.99), None);
        assert_eq!(rank_percentile(&[], 0, 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartile_spread(&values), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windows_are_half_open_and_bounded() {
        assert_eq!(window_of(0, 1_000, 3), Some(0));
        assert_eq!(window_of(999, 1_000, 3), Some(0));
        assert_eq!(window_of(1_000, 1_000, 3), Some(1));
        assert_eq!(window_of(2_999, 1_000, 3), Some(2));
        assert_eq!(window_of(3_000, 1_000, 3), None);
    }

    #[test]
    fn open_loop_schedule_is_a_pure_function_of_the_slot() {
        assert_eq!(due_offset_ns(0, 10_000), 0);
        assert_eq!(due_offset_ns(1, 10_000), 100_000);
        assert_eq!(due_offset_ns(10_000, 10_000), 1_000_000_000);
        // No drift from accumulating a rounded interval: 3 pps is not a
        // whole number of nanoseconds per slot.
        assert_eq!(due_offset_ns(3_000_000, 3), 1_000_000_000_000_000);
        // Monotone.
        assert!((0..1000).all(|i| due_offset_ns(i, 4_000) < due_offset_ns(i + 1, 4_000)));
    }

    #[test]
    fn window_rule_never_lets_more_than_the_window_out() {
        assert_eq!(window_room(0, 0, 0, 128), 128);
        assert_eq!(window_room(128, 0, 0, 128), 0);
        assert_eq!(window_room(200, 100, 0, 128), 28);
        // Acked ahead of sent (counter read races) is not an underflow.
        assert_eq!(window_room(10, 12, 0, 128), 128);
        // A write-off floor frees the window after a stall.
        assert_eq!(window_room(300, 100, 300, 128), 128);
        assert_eq!(window_room(300, 100, 250, 128), 78);
    }
}
