//! COW fanout isolation: a tail filter that rewrites payload bytes on one
//! lane of a [`PooledSession`] must leave every other lane byte-identical to the
//! serial per-receiver baseline.
//!
//! The session task hands every lane the *same* `Arc`-backed payload
//! buffers (zero-copy).  The property under test is that copy-on-write is
//! the only way a lane-local mutation can happen: lane A's scrambler
//! rewrites bytes in place when it owns the buffer and copies first when it
//! does not, so lanes B..N must observe exactly the bytes a fully
//! independent per-receiver pipeline (deep-copied input, no sharing at all)
//! would deliver.

use proptest::prelude::*;
use rapidware_filters::{EncryptFilter, Filter, ScramblerFilter, TAG_LEN};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{FilterSpec, PooledSession, Runtime, RuntimeConfig};

/// A session on a pool of its own; the session keeps the pool alive.
fn session(name: &str) -> PooledSession {
    Runtime::start(RuntimeConfig::default()).add_session(name)
}

fn packet(seq: u64, payload: Vec<u8>) -> Packet {
    Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, payload)
}

/// The serial baseline for the mutating lane: one scrambler fed deep
/// copies of the payloads, sharing nothing with anyone.
fn serial_scrambled(payloads: &[Vec<u8>], key: u64) -> Vec<Packet> {
    let mut filter = ScramblerFilter::new(key);
    let mut out: Vec<Packet> = Vec::with_capacity(payloads.len());
    for (seq, payload) in payloads.iter().enumerate() {
        filter
            .process(packet(seq as u64, payload.clone()), &mut out)
            .expect("the scrambler never fails");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lane A mutates, lanes B..N must match the serial per-receiver
    /// baseline byte for byte — and the mutating lane itself must match
    /// *its* serial baseline (COW never under- or over-copies).
    #[test]
    fn mutating_one_lane_never_leaks_into_the_others(
        lane_count in 2usize..6,
        key in any::<u64>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96),
            1..40,
        ),
    ) {
        let session = session("cow");
        let mut lanes = Vec::with_capacity(lane_count);
        for index in 0..lane_count {
            lanes.push(session.add_lane(format!("lane-{index}")).expect("unique lane names"));
        }
        // Lane 0 is the mutator; the rest are plain forwarding lanes.
        session
            .insert_lane_filter("lane-0", 0, &FilterSpec::new("scrambler").with_param("key", key.to_string()))
            .expect("the scrambler kind is registered");

        let input = session.input();
        for (seq, payload) in payloads.iter().enumerate() {
            input.send(packet(seq as u64, payload.clone())).expect("session accepts packets");
        }
        session.close_input();

        // Drain lanes concurrently: lanes are independently flow
        // controlled, and a serial drain could deadlock on backpressure.
        let outputs: Vec<Vec<Packet>> = lanes
            .into_iter()
            .map(|rx| std::thread::spawn(move || -> Vec<Packet> {
                std::iter::from_fn(|| rx.recv().ok()).collect()
            }))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("lane drain does not panic"))
            .collect();

        // The mutating lane equals its fully independent serial baseline.
        let baseline = serial_scrambled(&payloads, key);
        prop_assert_eq!(outputs[0].len(), baseline.len());
        for (got, want) in outputs[0].iter().zip(&baseline) {
            prop_assert_eq!(got, want);
        }

        // Every other lane equals the untouched input (its serial baseline
        // is the identity pipeline), byte for byte.
        for lane in &outputs[1..] {
            prop_assert_eq!(lane.len(), payloads.len());
            for (got, original) in lane.iter().zip(&payloads) {
                prop_assert_eq!(got.payload(), &original[..]);
            }
        }
        session.shutdown().expect("clean shutdown");
    }

    /// A lane that *grows* the payload — the AEAD seal appending its
    /// 16-byte tag through the length-changing COW path — must never leak
    /// the growth into sibling lanes or diverge from its serial baseline.
    #[test]
    fn growing_one_lane_never_leaks_into_the_others(
        lane_count in 2usize..6,
        key in any::<u64>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96),
            1..40,
        ),
    ) {
        let session = session("cow-grow");
        let mut lanes = Vec::with_capacity(lane_count);
        for index in 0..lane_count {
            lanes.push(session.add_lane(format!("lane-{index}")).expect("unique lane names"));
        }
        // Lane 0 seals every frame in place (payload grows by TAG_LEN).
        session
            .insert_lane_filter("lane-0", 0, &FilterSpec::new("encrypt").with_param("key", key.to_string()))
            .expect("the encrypt kind is registered");

        let input = session.input();
        for (seq, payload) in payloads.iter().enumerate() {
            input.send(packet(seq as u64, payload.clone())).expect("session accepts packets");
        }
        session.close_input();

        let outputs: Vec<Vec<Packet>> = lanes
            .into_iter()
            .map(|rx| std::thread::spawn(move || -> Vec<Packet> {
                std::iter::from_fn(|| rx.recv().ok()).collect()
            }))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("lane drain does not panic"))
            .collect();

        // The sealing lane equals its fully independent serial baseline:
        // same ciphertext, same tag, payload exactly TAG_LEN longer.
        let mut serial = EncryptFilter::new(key);
        let mut baseline: Vec<Packet> = Vec::with_capacity(payloads.len());
        for (seq, payload) in payloads.iter().enumerate() {
            serial
                .process(packet(seq as u64, payload.clone()), &mut baseline)
                .expect("the seal never fails");
        }
        prop_assert_eq!(outputs[0].len(), baseline.len());
        for ((got, want), original) in outputs[0].iter().zip(&baseline).zip(&payloads) {
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                got.payload_len(),
                original.len() + TAG_LEN,
                "sealed payloads grow by exactly one tag"
            );
        }

        // Sibling lanes observe the original bytes at the original length:
        // the grow happened in a private buffer, never in the shared one.
        for lane in &outputs[1..] {
            prop_assert_eq!(lane.len(), payloads.len());
            for (got, original) in lane.iter().zip(&payloads) {
                prop_assert_eq!(got.payload(), &original[..]);
            }
        }
        session.shutdown().expect("clean shutdown");
    }
}
