//! Observer raplets: turn raw link samples into adaptation events.

use std::collections::VecDeque;
use std::fmt;

use crate::sample::LinkSample;

/// An event raised by an observer when a monitored condition changes in a
/// way responders may need to act on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptationEvent {
    /// The smoothed loss rate crossed above the observer's high threshold.
    LossRoseAbove {
        /// The smoothed loss rate at the crossing.
        rate: f64,
        /// The threshold that was crossed.
        threshold: f64,
    },
    /// The smoothed loss rate fell back below the observer's low threshold.
    LossFellBelow {
        /// The smoothed loss rate at the crossing.
        rate: f64,
        /// The threshold that was crossed.
        threshold: f64,
    },
    /// Estimated link throughput fell below the observer's floor.
    ThroughputDropped {
        /// Estimated bits per second.
        bits_per_second: u64,
        /// The configured floor.
        floor_bps: u64,
    },
    /// Estimated link throughput recovered above the observer's floor.
    ThroughputRecovered {
        /// Estimated bits per second.
        bits_per_second: u64,
        /// The configured floor.
        floor_bps: u64,
    },
}

/// An observer raplet: consumes link samples, raises [`AdaptationEvent`]s.
pub trait Observer: Send + fmt::Debug {
    /// Short display name.
    fn name(&self) -> &str;

    /// Feeds one sample; returns any events this sample triggered.
    fn sample(&mut self, sample: &LinkSample) -> Vec<AdaptationEvent>;
}

/// Watches the packet loss rate with exponential smoothing and hysteresis.
///
/// Hysteresis (separate high and low thresholds) prevents the responder
/// from thrashing — repeatedly inserting and removing the FEC filter — when
/// the loss rate hovers near a single threshold, which matters because each
/// reconfiguration costs a splice on the live stream.
#[derive(Debug, Clone)]
pub struct LossRateObserver {
    name: String,
    high_threshold: f64,
    low_threshold: f64,
    smoothing: f64,
    smoothed: Option<f64>,
    above: bool,
    window: VecDeque<f64>,
    window_len: usize,
}

impl LossRateObserver {
    /// Creates an observer with explicit thresholds (loss fractions in
    /// `[0, 1]`).  `high_threshold` must be at least `low_threshold`.
    ///
    /// Equal thresholds are allowed (no hysteresis band); even then a single
    /// sample raises at most one event, an estimate exactly on the shared
    /// threshold raises none, and rise/fall events strictly alternate.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are out of range or inverted.
    pub fn with_thresholds(high_threshold: f64, low_threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&high_threshold));
        assert!((0.0..=1.0).contains(&low_threshold));
        assert!(
            high_threshold >= low_threshold,
            "high threshold must be at least the low threshold"
        );
        Self {
            name: format!("loss-observer({high_threshold:.3}/{low_threshold:.3})"),
            high_threshold,
            low_threshold,
            smoothing: 0.5,
            smoothed: None,
            above: false,
            window: VecDeque::new(),
            window_len: 16,
        }
    }

    /// The paper's FEC scenario: insert FEC when loss exceeds 2 %, remove it
    /// again only when loss drops below 0.5 %.
    pub fn paper_default() -> Self {
        Self::with_thresholds(0.02, 0.005)
    }

    /// Adjusts the exponential smoothing factor (0 = frozen, 1 = no
    /// smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `smoothing` is outside `(0, 1]`.
    #[must_use]
    pub fn with_smoothing(mut self, smoothing: f64) -> Self {
        assert!(smoothing > 0.0 && smoothing <= 1.0, "smoothing must be in (0, 1]");
        self.smoothing = smoothing;
        self
    }

    /// The current smoothed loss estimate (`None` before the first sample).
    pub fn smoothed_loss(&self) -> Option<f64> {
        self.smoothed
    }

    /// Whether the observer currently considers the link lossy.
    pub fn is_above(&self) -> bool {
        self.above
    }

    /// Evaluates the (at most one) threshold crossing for the new smoothed
    /// estimate and updates the lossy/clear state.
    ///
    /// The two crossings are mutually exclusive *by construction*: a rise is
    /// only possible while the observer is in the clear state and a fall only
    /// while it is in the lossy state, and whichever fires flips the state —
    /// so one sample can never emit both `LossRoseAbove` and `LossFellBelow`.
    /// This matters in the degenerate configuration `high == low`, where a
    /// naive pair of independent comparisons would raise both events for any
    /// estimate on the wrong side of the shared threshold and flood the
    /// responders with a reconfiguration storm.  Comparisons are strict in
    /// both directions, so an estimate sitting *exactly on* the shared
    /// threshold raises nothing at all.
    fn crossing(&mut self, smoothed: f64) -> Option<AdaptationEvent> {
        if !self.above && smoothed > self.high_threshold {
            self.above = true;
            Some(AdaptationEvent::LossRoseAbove {
                rate: smoothed,
                threshold: self.high_threshold,
            })
        } else if self.above && smoothed < self.low_threshold {
            self.above = false;
            Some(AdaptationEvent::LossFellBelow {
                rate: smoothed,
                threshold: self.low_threshold,
            })
        } else {
            None
        }
    }
}

impl Observer for LossRateObserver {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, sample: &LinkSample) -> Vec<AdaptationEvent> {
        let raw = sample.loss_rate();
        let smoothed = match self.smoothed {
            Some(previous) => previous * (1.0 - self.smoothing) + raw * self.smoothing,
            None => raw,
        };
        self.smoothed = Some(smoothed);
        self.window.push_back(raw);
        while self.window.len() > self.window_len {
            self.window.pop_front();
        }
        self.crossing(smoothed).into_iter().collect()
    }
}

/// Watches delivered throughput against a floor, with hysteresis supplied by
/// a recovery margin.
#[derive(Debug, Clone)]
pub struct ThroughputObserver {
    name: String,
    floor_bps: u64,
    recovery_margin: f64,
    below: bool,
}

impl ThroughputObserver {
    /// Creates an observer that raises [`AdaptationEvent::ThroughputDropped`]
    /// when the sampled bandwidth falls below `floor_bps`, and
    /// [`AdaptationEvent::ThroughputRecovered`] once it exceeds the floor by
    /// 25 %.
    pub fn new(floor_bps: u64) -> Self {
        Self {
            name: format!("throughput-observer({floor_bps}bps)"),
            floor_bps,
            recovery_margin: 1.25,
            below: false,
        }
    }

    /// Whether the observer currently considers the link constrained.
    pub fn is_below(&self) -> bool {
        self.below
    }
}

impl Observer for ThroughputObserver {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, sample: &LinkSample) -> Vec<AdaptationEvent> {
        // Prefer an explicit link-capacity estimate; fall back to the
        // throughput measured over the sample window.  Either source may be
        // absent (a zero-duration window yields no rate at all), in which
        // case the sample carries no throughput information and is skipped.
        let Some(bits_per_second) =
            sample.bandwidth_bps.or_else(|| sample.delivered_throughput_bps())
        else {
            return Vec::new();
        };
        let mut events = Vec::new();
        if !self.below && bits_per_second < self.floor_bps {
            self.below = true;
            events.push(AdaptationEvent::ThroughputDropped {
                bits_per_second,
                floor_bps: self.floor_bps,
            });
        } else if self.below
            && (bits_per_second as f64) > self.floor_bps as f64 * self.recovery_margin
        {
            self.below = false;
            events.push(AdaptationEvent::ThroughputRecovered {
                bits_per_second,
                floor_bps: self.floor_bps,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_netsim::SimTime;

    fn sample(sent: u64, delivered: u64) -> LinkSample {
        LinkSample::new(SimTime::ZERO, sent, delivered)
    }

    #[test]
    fn loss_observer_raises_once_per_crossing() {
        let mut observer = LossRateObserver::with_thresholds(0.02, 0.005).with_smoothing(1.0);
        assert!(observer.sample(&sample(1000, 999)).is_empty());
        // Loss jumps to 10%: one event.
        let events = observer.sample(&sample(1000, 900));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], AdaptationEvent::LossRoseAbove { .. }));
        assert!(observer.is_above());
        // Still lossy: no repeated events.
        assert!(observer.sample(&sample(1000, 920)).is_empty());
        // Loss between thresholds: hysteresis holds, no event.
        assert!(observer.sample(&sample(1000, 990)).is_empty());
        // Loss clears below the low threshold: one event.
        let events = observer.sample(&sample(1000, 1000));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], AdaptationEvent::LossFellBelow { .. }));
        assert!(!observer.is_above());
    }

    #[test]
    fn loss_observer_smoothing_delays_reaction() {
        let mut observer = LossRateObserver::paper_default().with_smoothing(0.2);
        assert!(observer.sample(&sample(1000, 1000)).is_empty());
        // One noisy window of 4% loss is not enough with heavy smoothing.
        assert!(observer.sample(&sample(1000, 960)).is_empty());
        assert!(observer.smoothed_loss().unwrap() < 0.02);
        // Sustained loss eventually crosses.
        let mut fired = false;
        for _ in 0..10 {
            if !observer.sample(&sample(1000, 960)).is_empty() {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained loss must eventually raise the event");
    }

    #[test]
    #[should_panic(expected = "high threshold")]
    fn inverted_thresholds_panic() {
        let _ = LossRateObserver::with_thresholds(0.01, 0.05);
    }

    #[test]
    fn equal_thresholds_emit_at_most_one_event_per_sample() {
        // Degenerate hysteresis: high == low == 25% (0.25 is exactly
        // representable, so "exactly on the threshold" is meaningful).  A
        // sample must never yield both a rise and a fall, and a sample
        // exactly on the shared threshold must yield nothing.
        let mut observer = LossRateObserver::with_thresholds(0.25, 0.25).with_smoothing(1.0);
        // Exactly on the threshold from the clear state: no event.
        assert!(observer.sample(&sample(100, 75)).is_empty());
        assert!(!observer.is_above());
        // Above: exactly one rise.
        let events = observer.sample(&sample(100, 50));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], AdaptationEvent::LossRoseAbove { .. }));
        // Exactly on the threshold from the lossy state: still no event.
        assert!(observer.sample(&sample(100, 75)).is_empty());
        assert!(observer.is_above());
        // Below: exactly one fall.
        let events = observer.sample(&sample(100, 100));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], AdaptationEvent::LossFellBelow { .. }));
    }

    #[test]
    fn equal_thresholds_alternate_under_oscillation() {
        // An oscillating link with no hysteresis band thrashes as fast as
        // the samples come in, but the events still strictly alternate —
        // never two rises or two falls in a row, never two events at once.
        let mut observer = LossRateObserver::with_thresholds(0.05, 0.05).with_smoothing(1.0);
        let mut kinds = Vec::new();
        for round in 0..20 {
            let delivered = if round % 2 == 0 { 80 } else { 100 };
            let events = observer.sample(&sample(100, delivered));
            assert!(events.len() <= 1, "one sample, at most one event");
            kinds.extend(events);
        }
        assert_eq!(kinds.len(), 20);
        for pair in kinds.windows(2) {
            let alternates = matches!(
                (pair[0], pair[1]),
                (AdaptationEvent::LossRoseAbove { .. }, AdaptationEvent::LossFellBelow { .. })
                    | (AdaptationEvent::LossFellBelow { .. }, AdaptationEvent::LossRoseAbove { .. })
            );
            assert!(alternates, "events must strictly alternate: {pair:?}");
        }
    }

    #[test]
    fn throughput_observer_hysteresis() {
        let mut observer = ThroughputObserver::new(1_000_000);
        // Samples without bandwidth are ignored.
        assert!(observer.sample(&sample(10, 10)).is_empty());
        let low = sample(10, 10).with_bandwidth(500_000);
        let events = observer.sample(&low);
        assert!(matches!(events[0], AdaptationEvent::ThroughputDropped { .. }));
        assert!(observer.is_below());
        // Just above the floor is not enough to recover (hysteresis).
        let barely = sample(10, 10).with_bandwidth(1_100_000);
        assert!(observer.sample(&barely).is_empty());
        let healthy = sample(10, 10).with_bandwidth(2_000_000);
        let events = observer.sample(&healthy);
        assert!(matches!(
            events[0],
            AdaptationEvent::ThroughputRecovered { .. }
        ));
        assert!(!observer.is_below());
    }

    #[test]
    fn throughput_observer_falls_back_to_the_window_estimate() {
        let mut observer = ThroughputObserver::new(1_000_000);
        // 25_000 bytes over one second = 200_000 bps, well below the floor.
        let starved = LinkSample::new(SimTime::from_secs(3), 100, 100)
            .with_window(SimTime::from_secs(2), 25_000);
        let events = observer.sample(&starved);
        assert!(matches!(events[0], AdaptationEvent::ThroughputDropped { .. }));
        // A zero-duration window carries no rate: the sample is skipped and
        // the observer state is untouched (the zero-division guard at work).
        let now = SimTime::from_secs(4);
        let degenerate = LinkSample::new(now, 10, 10).with_window(now, 4_096);
        assert!(observer.sample(&degenerate).is_empty());
        assert!(observer.is_below());
        // An explicit capacity estimate wins over the window measurement.
        let recovered = LinkSample::new(SimTime::from_secs(5), 100, 100)
            .with_window(SimTime::from_secs(4), 25_000)
            .with_bandwidth(2_000_000);
        let events = observer.sample(&recovered);
        assert!(matches!(events[0], AdaptationEvent::ThroughputRecovered { .. }));
    }

    #[test]
    fn observer_names_are_descriptive() {
        assert!(LossRateObserver::paper_default().name().contains("loss"));
        assert!(ThroughputObserver::new(128_000).name().contains("128000"));
    }
}
