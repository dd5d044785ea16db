//! Fanout sessions: one upstream source, a shared head chain, and N
//! independently adapted receiver lanes.
//!
//! The paper's proxy serves one media source to *heterogeneous* receivers:
//! wired peers want the raw stream, while each wireless receiver wants its
//! own adaptation (FEC strength, rate, transforms) matched to its link.  A
//! [`PooledSession`](crate::PooledSession) is that unit of fanout — one
//! pool task that runs each batch to completion: a head chain does the
//! shared work once per packet, the batch is cloned to every lane
//! (zero-copy: payloads are `Arc`-backed, and a lane filter that rewrites
//! bytes copies on write), and one live-reconfigurable lane chain per
//! receiver writes straight into that receiver's delivery pipe.  This
//! module holds what a session *reports* ([`SessionStatus`],
//! [`LaneStatus`]); the session itself lives in
//! [`runtime`](crate::runtime).
//!
//! ```
//! use rapidware_proxy::runtime::{Runtime, RuntimeConfig};
//! use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
//!
//! # fn main() -> Result<(), rapidware_proxy::ProxyError> {
//! let runtime = Runtime::start(RuntimeConfig::default());
//! let session = runtime.add_session("audio");
//! let wired = session.add_lane("wired")?;
//! let wlan = session.add_lane("wlan")?;
//!
//! let input = session.input();
//! input.send(Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![7; 64]))
//!     .expect("session accepts packets");
//!
//! // Both lanes receive the packet; the payloads share one allocation.
//! let a = wired.recv().expect("wired lane delivers");
//! let b = wlan.recv().expect("wlan lane delivers");
//! assert!(a.shares_payload_with(&b), "fanout is zero-copy");
//! session.shutdown()?;
//! runtime.shutdown()?;
//! # Ok(())
//! # }
//! ```

use rapidware_filters::SecureChannelSnapshot;

/// Counters describing one chain of a session: its shared head chain or
/// one receiver lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Number of filters currently installed.
    pub filters: usize,
    /// Packets accepted at the chain input so far.
    pub packets_in: u64,
    /// Packets delivered at the chain output so far.
    pub packets_out: u64,
    /// Number of completed splice operations (inserts, removals and moves).
    pub splices: u64,
    /// Packets dropped because a filter reported an error.
    pub filter_errors: u64,
}

/// A status snapshot of one receiver lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStatus {
    /// Lane name.
    pub name: String,
    /// Filters installed on this lane's tail chain, in stream order.
    pub filters: Vec<String>,
    /// Packets this lane has delivered to its receiver endpoint.
    pub delivered: u64,
    /// Source packets reconstructed by FEC decoders while they sat on this
    /// lane, however they were inserted (cumulative over the lane's
    /// lifetime, even across decoder removal).
    pub recovered: u64,
    /// Packets buffered at the lane's delivery endpoint, waiting for the
    /// receiver to read them.
    pub queue_depth: usize,
    /// Full tail-chain counters.
    pub stats: ChainStats,
}

/// A status snapshot of a whole fanout session: the shared head chain plus
/// one entry per receiver lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStatus {
    /// Session name.
    pub name: String,
    /// Filters installed on the shared head chain, in stream order.
    pub head_filters: Vec<String>,
    /// Head-chain counters.
    pub head_stats: ChainStats,
    /// Per-lane snapshots, in lane-creation order.
    pub lanes: Vec<LaneStatus>,
    /// Secure-channel counters summed over the head chain and every lane
    /// (zero everywhere when no encrypt/decrypt filter is installed).
    pub secure: SecureChannelSnapshot,
}

#[cfg(test)]
mod tests {
    //! Session behaviour, driven through [`PooledSession`] on a default
    //! pool.

    use crate::error::ProxyError;
    use crate::registry::{FilterRegistry, FilterSpec};
    use crate::runtime::{PooledSession, Runtime, RuntimeConfig};
    use rapidware_filters::FecDecoderFilter;
    use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    use rapidware_streams::DetachableReceiver;

    fn session(name: &str) -> PooledSession {
        Runtime::start(RuntimeConfig::default()).add_session(name)
    }

    fn session_with(name: &str, capacity: usize, batch_size: usize) -> PooledSession {
        Runtime::start(RuntimeConfig::default()).add_session_with(
            name,
            FilterRegistry::with_builtins(),
            capacity,
            batch_size,
        )
    }

    fn packet(seq: u64) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![seq as u8; 64])
    }

    fn collect_all(rx: &DetachableReceiver<Packet>) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Ok(p) = rx.recv() {
            out.push(p);
        }
        out
    }

    #[test]
    fn fanout_delivers_every_packet_to_every_lane_in_order() {
        let session = session("s");
        let lanes: Vec<_> = (0..4).map(|i| session.add_lane(format!("lane-{i}")).unwrap()).collect();
        let input = session.input();
        // Stay under the per-lane pipe capacity so the sequential drain
        // below cannot deadlock against fanout backpressure (lanes are
        // normally drained concurrently; see the stress test).
        for seq in 0..100u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        for lane in &lanes {
            let received = collect_all(lane);
            assert_eq!(received.len(), 100);
            for (i, p) in received.iter().enumerate() {
                assert_eq!(p.seq().value(), i as u64);
            }
        }
        session.shutdown().unwrap();
    }

    #[test]
    fn concurrent_lane_drains_sustain_heavy_fanout() {
        let session = session("stress");
        let consumers: Vec<_> = (0..4)
            .map(|i| {
                let rx = session.add_lane(format!("lane-{i}")).unwrap();
                std::thread::spawn(move || collect_all(&rx))
            })
            .collect();
        let input = session.input();
        for seq in 0..5_000u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        for consumer in consumers {
            let received = consumer.join().unwrap();
            assert_eq!(received.len(), 5_000);
            for (i, p) in received.iter().enumerate() {
                assert_eq!(p.seq().value(), i as u64, "order preserved under backpressure");
            }
        }
        session.shutdown().unwrap();
    }

    #[test]
    fn fanout_is_zero_copy_across_lanes() {
        let session = session("s");
        let a = session.add_lane("a").unwrap();
        let b = session.add_lane("b").unwrap();
        session.input().send(packet(0)).unwrap();
        let from_a = a.recv().unwrap();
        let from_b = b.recv().unwrap();
        assert!(from_a.shares_payload_with(&from_b));
        session.shutdown().unwrap();
    }

    #[test]
    fn lane_filters_only_affect_their_own_lane() {
        let session = session("s");
        let plain = session.add_lane("plain").unwrap();
        let scrambled = session.add_lane("scrambled").unwrap();
        session
            .insert_lane_filter("scrambled", 0, &FilterSpec::new("scrambler").with_param("key", "7"))
            .unwrap();
        assert_eq!(session.lane_filter_names("plain").unwrap(), Vec::<String>::new());
        assert_eq!(session.lane_filter_names("scrambled").unwrap().len(), 1);

        let input = session.input();
        for seq in 0..32u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        let plain_out = collect_all(&plain);
        let scrambled_out = collect_all(&scrambled);
        assert_eq!(plain_out.len(), 32);
        assert_eq!(scrambled_out.len(), 32);
        for (p, s) in plain_out.iter().zip(&scrambled_out) {
            // The scrambler's copy-on-write rewrite never leaks into the
            // sibling lane.
            assert_eq!(p.payload(), packet(p.seq().value()).payload());
            assert_ne!(s.payload(), p.payload());
        }
        session.shutdown().unwrap();
    }

    #[test]
    fn head_filters_run_once_for_all_lanes() {
        let session = session("s");
        let a = session.add_lane("a").unwrap();
        let b = session.add_lane("b").unwrap();
        session
            .insert_head_filter(0, &FilterSpec::new("tap").with_param("name", "head-tap"))
            .unwrap();
        assert_eq!(session.head_filter_names(), vec!["head-tap"]);
        let input = session.input();
        for seq in 0..16u64 {
            input.send(packet(seq)).unwrap();
        }
        // Head filters splice out live, like on any stream.
        let removed = session.remove_head_filter(0).unwrap();
        assert_eq!(removed.name(), "head-tap");
        session.close_input();
        assert_eq!(collect_all(&a).len(), 16);
        assert_eq!(collect_all(&b).len(), 16);
        // The head chain accepted each packet exactly once despite two lanes.
        let status = session.status();
        assert_eq!(status.head_stats.packets_in, 16);
        session.shutdown().unwrap();
    }

    #[test]
    fn status_reports_per_lane_delivery_and_queue_depth() {
        let session = session("status");
        let fast = session.add_lane("fast").unwrap();
        let _slow = session.add_lane("slow").unwrap();
        let input = session.input();
        for seq in 0..8u64 {
            input.send(packet(seq)).unwrap();
        }
        // Drain only the fast lane; the slow lane's queue builds up.
        for _ in 0..8 {
            fast.recv().unwrap();
        }
        // Wait (bounded) for the session task to finish pushing into the
        // slow lane, then snapshot.
        let mut waited = 0;
        let status = loop {
            let status = session.status();
            if status.lanes[1].queue_depth == 8 || waited > 400 {
                break status;
            }
            waited += 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(status.name, "status");
        assert_eq!(status.lanes.len(), 2);
        let fast_status = &status.lanes[0];
        let slow_status = &status.lanes[1];
        assert_eq!(fast_status.name, "fast");
        assert_eq!(fast_status.delivered, 8);
        assert_eq!(fast_status.queue_depth, 0);
        assert_eq!(slow_status.delivered, 8, "all packets arrived at the slow lane endpoint");
        assert_eq!(slow_status.queue_depth, 8, "nothing consumed: the backlog is visible");
        session.shutdown().unwrap();
    }

    #[test]
    fn lane_fec_decoder_reports_recovered_packets() {
        let session = session("fec");
        let lane = session.add_lane("lossy").unwrap();
        // Encode on the lane, drop every 5th packet, decode again — the
        // decoder's reconstructions surface in the lane status.
        session
            .insert_lane_filter("lossy", 0, &FilterSpec::new("fec-encoder"))
            .unwrap();
        session
            .insert_lane_filter("lossy", 1, &FilterSpec::new("drop-every").with_param("n", "5"))
            .unwrap();
        session
            .insert_lane_filter("lossy", 2, &FilterSpec::new("fec-decoder"))
            .unwrap();
        let consumer = std::thread::spawn(move || collect_all(&lane));
        let input = session.input();
        for seq in 0..400u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        let received = consumer.join().unwrap();
        assert!(received.len() >= 395, "near-complete recovery, got {}", received.len());
        let status = session.status();
        assert!(status.lanes[0].recovered > 0, "decoder stats wired into the lane status");
        session.shutdown().unwrap();
    }

    /// Adds lane `name` behind an FEC(6,4) encoder and a drop of every
    /// fifth wire packet: a decoder spliced in at position 2 has repairs
    /// to make.
    fn lossy_lane(session: &PooledSession, name: &str) -> DetachableReceiver<Packet> {
        let lane = session.add_lane(name).unwrap();
        session.insert_lane_filter(name, 0, &FilterSpec::new("fec-encoder")).unwrap();
        session
            .insert_lane_filter(name, 1, &FilterSpec::new("drop-every").with_param("n", "5"))
            .unwrap();
        lane
    }

    #[test]
    fn a_registry_override_of_the_decoder_kind_is_installed_as_built() {
        let mut registry = FilterRegistry::with_builtins();
        registry.register("fec-decoder", |_spec| {
            let decoder = FecDecoderFilter::new(6, 4).map_err(ProxyError::Filter)?;
            Ok(Box::new(decoder.forwarding_parity()))
        });
        let runtime = Runtime::start(RuntimeConfig::default());
        let session = runtime.add_session_with("override", registry, 1024, 8);
        let lane = lossy_lane(&session, "lossy");
        session.insert_lane_filter("lossy", 2, &FilterSpec::new("fec-decoder")).unwrap();
        let input = session.input();
        for seq in 0..40u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        let received = collect_all(&lane);
        let parities = received.iter().filter(|p| !p.kind().is_payload()).count();
        assert_eq!(received.len() - parities, 40, "every source delivered or rebuilt");
        assert!(parities > 0, "the override forwards parity");
        assert!(session.status().lanes[0].recovered > 0, "the override's repairs are counted");
        session.shutdown().unwrap();
    }

    #[test]
    fn a_boxed_decoder_counts_its_recoveries_on_its_lane() {
        let session = session_with("boxed", 1024, 8);
        let lane = lossy_lane(&session, "lossy");
        let decoder = FecDecoderFilter::new(6, 4).unwrap();
        let stats = decoder.stats();
        session.insert_lane_filter_boxed("lossy", 2, Box::new(decoder)).unwrap();
        let consumer = std::thread::spawn(move || collect_all(&lane));
        let input = session.input();
        for seq in 0..400u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        assert_eq!(consumer.join().unwrap().len(), 400);
        let recovered = session.status().lanes[0].recovered;
        assert!(recovered > 0, "a boxed decoder's repairs reach the lane status");
        assert_eq!(recovered, stats.recovered());
        session.shutdown().unwrap();
    }

    #[test]
    fn a_decoder_moved_to_another_lane_counts_each_recovery_once() {
        let session = session_with("moved", 1024, 8);
        let a = lossy_lane(&session, "a");
        let b = lossy_lane(&session, "b");
        let decoder = FecDecoderFilter::new(6, 4).unwrap();
        let stats = decoder.stats();
        session.insert_lane_filter_boxed("a", 2, Box::new(decoder)).unwrap();
        let input = session.input();
        for seq in 0..200u64 {
            input.send(packet(seq)).unwrap();
        }
        // A rebuilt source leaves behind the rest of its block.
        let mut first: Vec<u64> = (0..200).map(|_| a.recv().unwrap().seq().value()).collect();
        first.sort_unstable();
        assert_eq!(first, (0..200).collect::<Vec<_>>(), "lane a repairs every loss");
        let decoder = session.remove_lane_filter("a", 2).unwrap();
        let on_a = stats.recovered();
        assert!(on_a > 0);
        session.insert_lane_filter_boxed("b", 2, decoder).unwrap();
        for seq in 200..400u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        collect_all(&a);
        let later = |p: &&Packet| p.kind().is_payload() && p.seq().value() >= 200;
        let second = collect_all(&b).iter().filter(later).count();
        assert_eq!(second, 200, "lane b repairs every later loss");
        let status = session.status();
        let on_b = stats.recovered() - on_a;
        assert!(on_b > 0, "the decoder kept repairing on lane b");
        assert_eq!(status.lanes[0].recovered, on_a, "lane a keeps what it repaired, and no more");
        assert_eq!(status.lanes[1].recovered, on_b, "lane b counts only its own repairs");
        session.shutdown().unwrap();
    }

    #[test]
    fn unknown_lanes_are_reported() {
        let session = session("s");
        assert!(matches!(
            session.lane_filter_names("nope"),
            Err(ProxyError::UnknownLane(_))
        ));
        assert!(matches!(
            session.insert_lane_filter("nope", 0, &FilterSpec::new("null")),
            Err(ProxyError::UnknownLane(_))
        ));
        assert!(matches!(session.lane_output("nope"), Err(ProxyError::UnknownLane(_))));
        session.shutdown().unwrap();
    }

    #[test]
    fn duplicate_lane_names_are_rejected_and_shutdown_is_idempotent() {
        let session = session("s");
        session.add_lane("a").unwrap();
        assert!(session.add_lane("a").is_err());
        session.shutdown().unwrap();
        session.shutdown().unwrap();
        assert!(matches!(session.add_lane("b"), Err(ProxyError::ChainClosed)));
    }

    #[test]
    fn shutdown_with_undrained_lanes_does_not_deadlock() {
        // More packets than the lane pipes can hold, never drained: the
        // session task is parked against full lane pipes when shutdown
        // begins, and shutdown must still complete by discarding the
        // backlog.
        let session = session_with("abandoned", 16, 4);
        let _never_drained = session.add_lane("a").unwrap();
        let _also_never_drained = session.add_lane("b").unwrap();
        // A lane with a filter too, so the lane chain's flush path is
        // exercised as well.
        session
            .insert_lane_filter("b", 0, &FilterSpec::new("fec-encoder"))
            .unwrap();
        // Produce from a separate thread: with nobody draining the lanes,
        // the session back-pressures all the way to this sender, which
        // must not wedge the test (it stops once shutdown closes the
        // input).
        let input = session.input();
        let producer = std::thread::spawn(move || {
            for seq in 0..300u64 {
                if input.send(packet(seq)).is_err() {
                    break;
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&done);
        let shutter = std::thread::spawn(move || {
            session.shutdown().unwrap();
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        for _ in 0..1_000 {
            if done.load(std::sync::atomic::Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(
            done.load(std::sync::atomic::Ordering::SeqCst),
            "shutdown hung on an undrained lane"
        );
        shutter.join().unwrap();
        producer.join().unwrap();
    }

    #[test]
    fn add_lane_while_worker_is_backpressured_does_not_deadlock() {
        // One stalled consumer must not wedge the control surface: while
        // the session task is parked against lane a's full pipe, add_lane
        // (which touches the same lane list) has to complete.
        let session = session_with("bp", 8, 2);
        let stalled = session.add_lane("a").unwrap();
        let input = session.input();
        let producer = std::thread::spawn(move || {
            for seq in 0..100u64 {
                if input.send(packet(seq)).is_err() {
                    break;
                }
            }
        });
        // Give the session task time to fill lane a's pipe and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let added = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                session.add_lane("late").unwrap();
                added.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            for _ in 0..500 {
                if added.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(
                added.load(std::sync::atomic::Ordering::SeqCst),
                "add_lane deadlocked behind a stalled lane consumer"
            );
            // Unblock the session task so the scope's spawned thread
            // (already done) and the producer can wind down.
            stalled.close();
        });
        session.shutdown().unwrap();
        producer.join().unwrap();
    }

    #[test]
    fn lane_added_mid_stream_sees_only_later_packets() {
        let session = session("s");
        let first = session.add_lane("first").unwrap();
        let input = session.input();
        input.send(packet(0)).unwrap();
        // Wait until the packet has fanned out, so the join point is after it.
        assert_eq!(first.recv().unwrap().seq().value(), 0);
        let late = session.add_lane("late").unwrap();
        input.send(packet(1)).unwrap();
        session.close_input();
        let late_seqs: Vec<u64> = collect_all(&late).iter().map(|p| p.seq().value()).collect();
        assert_eq!(late_seqs, vec![1]);
        session.shutdown().unwrap();
    }
}
