//! [`UdpConfig`]: the tuning both halves of a UDP endpoint
//! ([`SharedUdpIngress`](crate::SharedUdpIngress) /
//! [`SharedUdpEgress`](crate::SharedUdpEgress)) are built from.

/// Tuning for a UDP endpoint.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Capacity (in packets) of the pipe behind each owned ingress route;
    /// this is the window a consumer may fall behind before the route
    /// sheds frames.
    pub capacity: usize,
    /// How many datagrams one drain or flush pass moves.
    pub batch_size: usize,
}

impl Default for UdpConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            batch_size: 32,
        }
    }
}

impl UdpConfig {
    /// Overrides the pipe capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "endpoint pipe capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Overrides the batch size (clamped to at least 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// Socket-boundary behaviour of the endpoint pair in its simplest shape —
/// one egress lane aimed at one ingress route, the "dedicated socket" —
/// complementing the multiplexing tests in `shared.rs`.
#[cfg(test)]
mod tests {
    use std::net::UdpSocket;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    use rapidware_streams::{
        pipe, DetachableReceiver, DetachableSender, PipeWatcher, RecvError, TryRecvError,
    };

    use super::UdpConfig;
    use crate::{SharedUdpEgress, SharedUdpIngress, MAX_DATAGRAM_LEN};

    const STREAM: u32 = 7;

    fn packet(seq: u64) -> Packet {
        Packet::new(StreamId::new(STREAM), SeqNo::new(seq), PacketKind::AudioData, vec![seq as u8; 48])
    }

    /// An egress with one lane aimed at an ingress with one route, both
    /// hand-driven by the test.
    struct Pair {
        ingress: SharedUdpIngress,
        route: DetachableReceiver<Packet>,
        egress: SharedUdpEgress,
        lane: DetachableSender<Packet>,
    }

    impl Pair {
        fn new(config: &UdpConfig) -> Self {
            let ingress = SharedUdpIngress::bind("127.0.0.1:0", config).unwrap();
            let route = ingress.open_stream(StreamId::new(STREAM)).unwrap();
            let egress = SharedUdpEgress::bind("127.0.0.1:0", config).unwrap();
            let (lane, source) = pipe::<Packet>(config.capacity);
            egress.attach(StreamId::new(STREAM), ingress.local_addr(), source);
            Self {
                ingress,
                route,
                egress,
                lane,
            }
        }

        /// Flushes and drains until `done` holds; the deadline only bounds
        /// a genuine hang.
        fn drive_until(&self, done: impl Fn(&Self) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !done(self) {
                assert!(Instant::now() < deadline, "the endpoint pair made no progress");
                self.egress.flush_batch();
                self.ingress.drain_batch();
            }
        }
    }

    #[test]
    fn loopback_round_trip_preserves_packets_in_order() {
        let pair = Pair::new(&UdpConfig::default());
        let sent: Vec<Packet> = (0..64).map(packet).collect();
        pair.lane.send_batch(sent.clone()).unwrap();
        pair.drive_until(|pair| pair.ingress.stats().rx_packets() == 64);
        assert_eq!(pair.route.try_recv_up_to(64).unwrap(), sent);
        assert_eq!(pair.egress.stats().tx_packets(), 64);
        assert_eq!(pair.ingress.stats().decode_errors(), 0);
        assert_eq!(pair.ingress.unknown_streams(), 0);
    }

    #[test]
    fn closing_the_egress_sends_fin_and_ends_the_stream() {
        let pair = Pair::new(&UdpConfig::default());
        pair.lane.send(packet(1)).unwrap();
        pair.lane.close();
        pair.drive_until(|pair| pair.ingress.route_count() == 0);
        assert_eq!(pair.route.recv().unwrap().seq().value(), 1);
        assert_eq!(pair.route.recv().unwrap_err(), RecvError::Eof);
        assert_eq!(pair.egress.lane_count(), 0, "a finished lane is pruned");
    }

    #[test]
    fn garbage_datagrams_count_as_decode_errors_without_breaking_the_stream() {
        let pair = Pair::new(&UdpConfig::default());
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(b"definitely not a packet", pair.ingress.local_addr()).unwrap();
        pair.drive_until(|pair| pair.ingress.stats().rx_datagrams() == 1);
        pair.lane.send(packet(9)).unwrap();
        pair.drive_until(|pair| pair.ingress.stats().rx_datagrams() == 2);
        assert_eq!(pair.route.try_recv().unwrap().seq().value(), 9);
        assert_eq!(pair.ingress.stats().decode_errors(), 1);
        assert_eq!(pair.ingress.stats().rx_packets(), 1);
    }

    #[test]
    fn oversized_packets_are_dropped_at_the_egress() {
        let pair = Pair::new(&UdpConfig::default());
        let oversized = Packet::new(
            StreamId::new(STREAM),
            SeqNo::new(0),
            PacketKind::Data,
            vec![0u8; MAX_DATAGRAM_LEN],
        );
        pair.lane.send(oversized).unwrap();
        pair.lane.send(packet(3)).unwrap();
        pair.drive_until(|pair| pair.ingress.stats().rx_packets() == 1);
        // The oversized packet vanished; the next one flows.
        assert_eq!(pair.route.try_recv().unwrap().seq().value(), 3);
        assert_eq!(pair.egress.stats().dropped(), 1);
        assert_eq!(pair.egress.stats().tx_packets(), 1);
    }

    #[test]
    fn try_surfaces_work_over_sockets() {
        let pair = Pair::new(&UdpConfig::default().with_capacity(4));
        // try_send_batch on the lane: everything fits eventually because
        // each pass drains the capacity-4 pipe onto the socket, and
        // try_recv_up_to keeps the capacity-4 route from shedding.
        let mut pending: Vec<Packet> = (0..32).map(packet).collect();
        let mut received = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while received.len() < 32 {
            assert!(Instant::now() < deadline, "the endpoint pair stalled");
            if !pending.is_empty() {
                pending = pair.lane.try_send_batch(pending).unwrap();
            }
            pair.egress.flush_batch();
            pair.ingress.drain_batch();
            match pair.route.try_recv_up_to(8) {
                Ok(batch) => received.extend(batch.iter().map(|p| p.seq().value())),
                Err(TryRecvError::Empty) => {}
                Err(other) => panic!("unexpected receive error: {other}"),
            }
        }
        assert_eq!(received, (0..32).collect::<Vec<_>>());
        assert_eq!(pair.ingress.stats().dropped(), 0);
    }

    #[test]
    fn data_watcher_fires_for_socket_arrivals() {
        struct Flag(std::sync::atomic::AtomicBool);
        impl PipeWatcher for Flag {
            fn notify(&self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let pair = Pair::new(&UdpConfig::default());
        let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        pair.route.set_data_watcher(flag.clone());
        assert!(!flag.0.load(std::sync::atomic::Ordering::SeqCst), "nothing has arrived yet");
        pair.lane.send(packet(0)).unwrap();
        pair.drive_until(|pair| pair.ingress.stats().rx_packets() == 1);
        assert!(
            flag.0.load(std::sync::atomic::Ordering::SeqCst),
            "the drain that routed the datagram must wake the route's consumer"
        );
        assert_eq!(pair.route.available(), 1);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let pair = Pair::new(&UdpConfig::default());
        assert!(format!("{:?}", pair.ingress).contains("SharedUdpIngress"));
        assert!(format!("{:?}", pair.egress).contains("SharedUdpEgress"));
    }

    #[test]
    fn shutdown_releases_a_producer_blocked_on_a_back_pressured_egress() {
        // The egress owns the only receiving end of each lane pipe, so
        // tearing it down must release a producer parked on a full lane —
        // a back-pressured egress can never hang a shutdown.
        let Pair { egress, lane, .. } = Pair::new(&UdpConfig::default().with_capacity(2));
        let stats = lane.stats();
        std::thread::scope(|scope| {
            // Nothing flushes the lane, so the third send parks on the
            // capacity-2 pipe; only the teardown can end the loop.
            let producer = scope.spawn(|| (0..).take_while(|seq| lane.send(packet(*seq)).is_ok()).count());
            let deadline = Instant::now() + Duration::from_secs(30);
            while stats.blocked_sends() == 0 {
                assert!(Instant::now() < deadline, "the producer never hit back-pressure");
                std::thread::yield_now();
            }
            drop(egress);
            assert_eq!(producer.join().unwrap(), 2, "exactly the pipe's capacity was accepted");
        });
    }

    #[test]
    fn shutdown_releases_a_consumer_blocked_on_an_owned_ingress() {
        // `close_all_streams` is the ingress half of `Proxy::shutdown`: a
        // consumer parked on an owned route must be released by it, not
        // left waiting for a datagram that can no longer be routed.
        let pair = Pair::new(&UdpConfig::default());
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                parked_tx.send(()).unwrap();
                pair.route.recv()
            });
            parked_rx.recv().unwrap();
            pair.ingress.close_all_streams();
            assert!(consumer.join().unwrap().is_err(), "the closed route must end the blocked recv");
        });
        assert_eq!(pair.ingress.route_count(), 0);
    }
}
