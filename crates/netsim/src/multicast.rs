//! A multicast wireless LAN: one access point, many receivers.
//!
//! This models the physical configuration of the paper's Figure 3: a proxy
//! node multicasts a stream over a wireless LAN to several mobile receivers.
//! Every receiver experiences **independent** loss (its own radio, position,
//! and interference), which is exactly the situation in which a single FEC
//! parity packet can repair different losses at different receivers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

use crate::link::{LinkConfig, TransmitOutcome};
use crate::loss::{DistanceLossModel, LossModel};
use crate::mobility::LinearWalk;
use crate::time::SimTime;

/// Identifies one receiver attached to a [`WirelessLan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReceiverId(usize);

impl ReceiverId {
    /// Raw index of the receiver within its LAN.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ReceiverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiver-{}", self.0)
    }
}

/// Per-receiver outcome of one broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Which receiver this record describes.
    pub receiver: ReceiverId,
    /// Delivery outcome (arrival time or loss).
    pub outcome: TransmitOutcome,
}

impl DeliveryRecord {
    /// Returns `true` if the packet reached this receiver.
    pub fn is_delivered(&self) -> bool {
        self.outcome.is_delivered()
    }
}

#[derive(Debug)]
enum ReceiverLoss {
    Fixed(Box<dyn LossModel>),
    Mobile {
        loss: DistanceLossModel,
        mobility: LinearWalk,
    },
}

#[derive(Debug)]
struct Receiver {
    id: ReceiverId,
    name: String,
    loss: ReceiverLoss,
    sent: u64,
    delivered: u64,
}

/// One access point multicasting to a set of wireless receivers.
#[derive(Debug)]
pub struct WirelessLan {
    config: LinkConfig,
    receivers: Vec<Receiver>,
    rng: StdRng,
    busy_until: SimTime,
}

impl WirelessLan {
    /// Creates a LAN with the given radio configuration and RNG seed.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Self {
            config,
            receivers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            busy_until: SimTime::ZERO,
        }
    }

    /// Creates the paper's testbed: a 2 Mbps WaveLAN access point.
    pub fn wavelan_2mbps(seed: u64) -> Self {
        Self::new(LinkConfig::wavelan_2mbps(), seed)
    }

    /// Adds a receiver with a fixed (position-independent) loss model.
    pub fn add_receiver(&mut self, name: impl Into<String>, loss: Box<dyn LossModel>) -> ReceiverId {
        let id = ReceiverId(self.receivers.len());
        self.receivers.push(Receiver {
            id,
            name: name.into(),
            loss: ReceiverLoss::Fixed(loss),
            sent: 0,
            delivered: 0,
        });
        id
    }

    /// Adds a stationary receiver at a fixed distance, using the WaveLAN
    /// distance-loss calibration.
    pub fn add_receiver_at_distance(&mut self, name: impl Into<String>, distance_m: f64) -> ReceiverId {
        let mut loss = DistanceLossModel::wavelan_2mbps();
        loss.set_distance(distance_m);
        self.add_receiver(name, Box::new(loss))
    }

    /// Adds a mobile receiver whose distance follows `mobility` and whose
    /// loss follows `loss` evaluated at that distance.
    pub fn add_mobile_receiver(
        &mut self,
        name: impl Into<String>,
        loss: DistanceLossModel,
        mobility: LinearWalk,
    ) -> ReceiverId {
        let id = ReceiverId(self.receivers.len());
        self.receivers.push(Receiver {
            id,
            name: name.into(),
            loss: ReceiverLoss::Mobile { loss, mobility },
            sent: 0,
            delivered: 0,
        });
        id
    }

    /// Identifiers of every attached receiver.
    pub fn receiver_ids(&self) -> Vec<ReceiverId> {
        self.receivers.iter().map(|r| r.id).collect()
    }

    /// Name of a receiver.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this LAN.
    pub fn receiver_name(&self, id: ReceiverId) -> &str {
        &self.receivers[id.0].name
    }

    /// Number of receivers on the LAN.
    pub fn receiver_count(&self) -> usize {
        self.receivers.len()
    }

    /// The radio configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Current distance of a receiver, if it is distance-modelled.
    pub fn receiver_distance(&self, id: ReceiverId, now: SimTime) -> Option<f64> {
        match &self.receivers[id.0].loss {
            ReceiverLoss::Mobile { mobility, .. } => Some(mobility.distance_at(now)),
            ReceiverLoss::Fixed(_) => None,
        }
    }

    /// Current nominal loss rate of a receiver's channel.
    pub fn receiver_nominal_loss(&self, id: ReceiverId, now: SimTime) -> f64 {
        match &self.receivers[id.0].loss {
            ReceiverLoss::Fixed(model) => model.nominal_loss_rate(),
            ReceiverLoss::Mobile { loss, mobility } => {
                loss.loss_probability(mobility.distance_at(now))
            }
        }
    }

    /// Observed delivery rate (delivered / sent) of a receiver so far.
    pub fn receiver_delivery_rate(&self, id: ReceiverId) -> f64 {
        let receiver = &self.receivers[id.0];
        if receiver.sent == 0 {
            1.0
        } else {
            receiver.delivered as f64 / receiver.sent as f64
        }
    }

    /// Multicasts a packet of `len` bytes at time `now` to every receiver,
    /// returning one delivery record per receiver.
    pub fn broadcast(&mut self, now: SimTime, len: usize) -> Vec<DeliveryRecord> {
        let everyone = self.receiver_ids();
        self.transmit(&everyone, now, len)
    }

    /// Transmits a packet of `len` bytes at time `now` to the receivers in
    /// `group`, returning one delivery record per group member, in group
    /// order.
    ///
    /// The access point serialises the packet once (the medium is shared,
    /// so a transmission also queues behind earlier ones); each member then
    /// independently loses or receives it, with its own jitter.  A fanout
    /// lane sends its *own* adapted stream to its own group, so a group of
    /// one is a unicast.  Loss and jitter draw from the LAN's single seeded
    /// RNG in group order, so runs are exactly reproducible as long as the
    /// call sequence is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if a member of `group` does not belong to this LAN.
    pub fn transmit(
        &mut self,
        group: &[ReceiverId],
        now: SimTime,
        len: usize,
    ) -> Vec<DeliveryRecord> {
        let start = if self.busy_until > now { self.busy_until } else { now };
        let serialization = self.config.serialization_delay_us(len);
        self.busy_until = start + serialization;
        let ready = self.busy_until + self.config.base_latency_us;

        let mut records = Vec::with_capacity(group.len());
        for id in group {
            let receiver = &mut self.receivers[id.0];
            receiver.sent += 1;
            let dropped = match &mut receiver.loss {
                ReceiverLoss::Fixed(model) => model.should_drop(&mut self.rng, now, len),
                ReceiverLoss::Mobile { loss, mobility } => {
                    loss.set_distance(mobility.distance_at(now));
                    loss.should_drop(&mut self.rng, now, len)
                }
            };
            let outcome = if dropped {
                TransmitOutcome::Lost
            } else {
                receiver.delivered += 1;
                let jitter = if self.config.jitter_us == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=self.config.jitter_us)
                };
                TransmitOutcome::Delivered {
                    arrival: ready + jitter,
                }
            };
            records.push(DeliveryRecord {
                receiver: receiver.id,
                outcome,
            });
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{BernoulliLoss, PerfectLink};

    #[test]
    fn broadcast_reaches_every_receiver_with_perfect_links() {
        let mut lan = WirelessLan::wavelan_2mbps(1);
        let a = lan.add_receiver("laptop-a", Box::new(PerfectLink));
        let b = lan.add_receiver("laptop-b", Box::new(PerfectLink));
        let records = lan.broadcast(SimTime::ZERO, 500);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(DeliveryRecord::is_delivered));
        assert_eq!(records[0].receiver, a);
        assert_eq!(records[1].receiver, b);
        assert_eq!(lan.receiver_name(a), "laptop-a");
        assert_eq!(lan.receiver_count(), 2);
    }

    #[test]
    fn one_group_call_draws_like_a_broadcast_and_like_unicasts_in_order() {
        let lan = |seed| {
            let mut lan = WirelessLan::wavelan_2mbps(seed);
            let ids: Vec<_> = (0..3)
                .map(|i| lan.add_receiver(format!("r{i}"), Box::new(BernoulliLoss::new(0.4))))
                .collect();
            (lan, ids)
        };
        let (mut grouped, ids) = lan(3);
        let (mut broadcast, _) = lan(3);
        let (mut one_by_one, _) = lan(3);
        for i in 0..500u64 {
            let now = SimTime::from_micros(i * 5_000);
            let group = grouped.transmit(&ids, now, 300);
            assert_eq!(group, broadcast.broadcast(now, 300));
            let singles: Vec<_> =
                ids.iter().map(|id| one_by_one.transmit(&[*id], now, 300)[0]).collect();
            let delivered = |records: &[DeliveryRecord]| {
                records.iter().map(DeliveryRecord::is_delivered).collect::<Vec<_>>()
            };
            assert_eq!(delivered(&group), delivered(&singles), "same draws, same losses");
        }
    }

    #[test]
    fn receivers_lose_packets_independently() {
        let mut lan = WirelessLan::wavelan_2mbps(7);
        let a = lan.add_receiver("a", Box::new(BernoulliLoss::new(0.3)));
        let b = lan.add_receiver("b", Box::new(BernoulliLoss::new(0.3)));
        let mut a_only = 0u32;
        let mut b_only = 0u32;
        for i in 0..20_000u64 {
            let records = lan.broadcast(SimTime::from_micros(i * 4_000), 200);
            let a_ok = records[a.index()].is_delivered();
            let b_ok = records[b.index()].is_delivered();
            if a_ok && !b_ok {
                a_only += 1;
            }
            if b_ok && !a_ok {
                b_only += 1;
            }
        }
        // Independent losses: plenty of packets received by exactly one of
        // the two receivers (the case FEC parities repair for multicast).
        assert!(a_only > 1000, "a_only = {a_only}");
        assert!(b_only > 1000, "b_only = {b_only}");
        assert!((lan.receiver_delivery_rate(a) - 0.7).abs() < 0.02);
        assert!((lan.receiver_delivery_rate(b) - 0.7).abs() < 0.02);
    }

    #[test]
    fn stationary_receiver_at_25m_loses_about_1_5_percent() {
        let mut lan = WirelessLan::wavelan_2mbps(25);
        let id = lan.add_receiver_at_distance("laptop-25m", 25.0);
        for i in 0..100_000u64 {
            lan.broadcast(SimTime::from_micros(i * 2_500), 432);
        }
        let delivery = lan.receiver_delivery_rate(id);
        assert!(
            (0.975..=0.995).contains(&delivery),
            "delivery rate at 25 m should be ≈98.5% (got {delivery})"
        );
    }

    #[test]
    fn mobile_receiver_gets_lossier_as_it_walks_away() {
        let mut lan = WirelessLan::wavelan_2mbps(11);
        let id = lan.add_mobile_receiver(
            "walker",
            DistanceLossModel::wavelan_2mbps(),
            LinearWalk::new(5.0, 45.0, SimTime::ZERO, 1.0),
        );
        // Near the start of the walk the loss is tiny...
        let early = lan.receiver_nominal_loss(id, SimTime::from_secs(1));
        // ...and near the end it is large.
        let late = lan.receiver_nominal_loss(id, SimTime::from_secs(39));
        assert!(early < 0.01, "early loss {early}");
        assert!(late > 0.15, "late loss {late}");
        assert_eq!(lan.receiver_distance(id, SimTime::from_secs(20)), Some(25.0));

        // Measured delivery over the whole walk sits between the extremes.
        for i in 0..40_000u64 {
            lan.broadcast(SimTime::from_micros(i * 1_000), 432);
        }
        let rate = lan.receiver_delivery_rate(id);
        assert!(rate < 0.999 && rate > 0.5, "rate {rate}");
    }

    #[test]
    fn unicast_reaches_only_its_receiver_and_shares_the_medium() {
        let mut lan = WirelessLan::new(
            LinkConfig {
                jitter_us: 0,
                ..LinkConfig::wavelan_2mbps()
            },
            5,
        );
        let a = lan.add_receiver("a", Box::new(PerfectLink));
        let b = lan.add_receiver("b", Box::new(PerfectLink));
        let first = lan.transmit(&[a], SimTime::ZERO, 500)[0];
        assert_eq!(first.receiver, a);
        assert!(first.is_delivered());
        // Only receiver a saw traffic.
        assert_eq!(lan.receiver_delivery_rate(b), 1.0);
        // The medium serialises: a back-to-back transmission to b queues
        // behind the one to a.
        let second = lan.transmit(&[b], SimTime::ZERO, 500)[0];
        let gap = second.outcome.arrival().unwrap() - first.outcome.arrival().unwrap();
        assert_eq!(gap, 2_000);
    }

    #[test]
    fn unicast_applies_the_receivers_own_loss_model() {
        let mut lan = WirelessLan::wavelan_2mbps(9);
        let lossy = lan.add_receiver("lossy", Box::new(BernoulliLoss::new(0.4)));
        let clean = lan.add_receiver("clean", Box::new(PerfectLink));
        for i in 0..5_000u64 {
            lan.transmit(&[lossy], SimTime::from_micros(i * 2_000), 200);
            lan.transmit(&[clean], SimTime::from_micros(i * 2_000), 200);
        }
        assert!((lan.receiver_delivery_rate(lossy) - 0.6).abs() < 0.05);
        assert_eq!(lan.receiver_delivery_rate(clean), 1.0);
    }

    #[test]
    fn serialization_makes_broadcasts_queue() {
        let mut lan = WirelessLan::new(
            LinkConfig {
                jitter_us: 0,
                ..LinkConfig::wavelan_2mbps()
            },
            3,
        );
        let id = lan.add_receiver("r", Box::new(PerfectLink));
        let first = lan.broadcast(SimTime::ZERO, 500)[id.index()]
            .outcome
            .arrival()
            .unwrap();
        let second = lan.broadcast(SimTime::ZERO, 500)[id.index()]
            .outcome
            .arrival()
            .unwrap();
        assert_eq!(second - first, 2_000);
    }

    #[test]
    fn fixed_receivers_have_no_distance() {
        let mut lan = WirelessLan::wavelan_2mbps(1);
        let id = lan.add_receiver("fixed", Box::new(PerfectLink));
        assert_eq!(lan.receiver_distance(id, SimTime::ZERO), None);
        assert_eq!(lan.receiver_nominal_loss(id, SimTime::ZERO), 0.0);
        assert_eq!(lan.receiver_delivery_rate(id), 1.0);
    }

    #[test]
    fn same_seed_reproduces_the_same_run() {
        let run = |seed: u64| -> Vec<bool> {
            let mut lan = WirelessLan::wavelan_2mbps(seed);
            let id = lan.add_receiver_at_distance("r", 30.0);
            (0..2_000u64)
                .map(|i| lan.broadcast(SimTime::from_micros(i * 3_000), 300)[id.index()].is_delivered())
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
