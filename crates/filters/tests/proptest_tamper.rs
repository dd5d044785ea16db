//! Tamper-rejection hardening for the secure-channel pair, alongside the
//! wire-decode hardening suite in `rapidware-packet`.
//!
//! The decoder's CRC catches accidental corruption; these tests cover the
//! *adversarial* layer above it — frames that are structurally valid
//! packets but fail authentication:
//!
//! * flipping any single bit of a sealed payload (ciphertext or tag) makes
//!   [`DecryptFilter`] reject the frame — a counted drop, never a panic,
//!   never a forwarded corrupt payload;
//! * forging any AAD-covered header field (stream, seq, timestamp, kind)
//!   around an intact sealed payload is likewise rejected, even though the
//!   frame's CRC is dutifully valid;
//! * truncating a sealed payload anywhere is rejected;
//! * replaying a frame sealed under a superseded epoch after the decryptor
//!   has rotated past it is rejected (the stale-key replay);
//! * a tampered frame in the middle of a batch never disturbs its
//!   neighbours: the good frames open in order, bit-exact;
//! * `Encrypt ∘ Decrypt` obeys the batch/serial parity contract across the
//!   built-in chain shapes, with FEC placed before *and* after the crypto
//!   stage, including loss-and-recovery of sealed frames, and with a rekey
//!   frame at every position of a batch (the filters' batch path looks a
//!   key up once per same-epoch run, so a rotation must still land exactly
//!   where its frame does).

use proptest::prelude::*;
use rapidware_filters::{
    rekey_packet, DecryptFilter, DropEveryNth, EncryptFilter, FecDecoderFilter, FecEncoderFilter,
    Filter, FilterChain, FilterCounters, SecureChannelSnapshot,
};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};

const KEY: u64 = 0x5EED;

/// Seals one packet through a fresh `EncryptFilter` and returns the sealed
/// frame (payload = ciphertext ‖ 16-byte tag).
fn seal(packet: Packet) -> Packet {
    let mut encrypt = EncryptFilter::new(KEY);
    let mut out: Vec<Packet> = Vec::new();
    encrypt.process(packet, &mut out).expect("encrypt never fails");
    assert_eq!(out.len(), 1, "encrypt emits exactly the sealed frame");
    out.pop().expect("one sealed frame")
}

/// Runs one packet through a fresh `DecryptFilter`; returns the opened
/// frame (if any) and the reject count.
fn open(packet: Packet) -> (Vec<Packet>, u64) {
    let mut decrypt = DecryptFilter::new(KEY);
    let mut out: Vec<Packet> = Vec::new();
    decrypt.process(packet, &mut out).expect("decrypt never errors");
    (out, decrypt.stats().rejected())
}

fn data_packet(seq: u64, payload: Vec<u8>) -> Packet {
    Packet::with_timestamp(
        StreamId::new(7),
        SeqNo::new(seq),
        PacketKind::AudioData,
        seq.wrapping_mul(20_000),
        payload,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single flipped bit in the sealed payload — ciphertext or tag —
    /// is rejected without a panic, and the plaintext never leaks.
    #[test]
    fn payload_bit_flips_are_rejected(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        position in any::<u64>(),
        bit in 0u8..8,
    ) {
        let sealed = seal(data_packet(seq, payload));
        let sealed_len = sealed.payload_len();
        let position = (position as usize) % sealed_len;
        let mut tampered = sealed;
        tampered.payload_edit(|buf| buf[position] ^= 1 << bit);
        let (out, rejected) = open(tampered);
        prop_assert!(out.is_empty(), "bit {bit} of byte {position} opened anyway");
        prop_assert_eq!(rejected, 1);
    }

    /// Forging any AAD-covered header field around an intact sealed payload
    /// fails authentication, even though the re-encoded frame carries a
    /// perfectly valid CRC (the decode layer cannot catch this).
    #[test]
    fn forged_headers_are_rejected(
        seq in 0u64..u64::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        field in 0usize..4,
    ) {
        let sealed = seal(data_packet(seq, payload));
        let forged = match field {
            // A different stream id.
            0 => Packet::with_timestamp(
                StreamId::new(8),
                sealed.seq(),
                sealed.kind(),
                sealed.timestamp_us(),
                sealed.payload().to_vec(),
            ),
            // A shifted sequence number (also shifts the nonce).
            1 => Packet::with_timestamp(
                sealed.stream(),
                SeqNo::new(sealed.seq().value().wrapping_add(1)),
                sealed.kind(),
                sealed.timestamp_us(),
                sealed.payload().to_vec(),
            ),
            // A shifted timestamp.
            2 => Packet::with_timestamp(
                sealed.stream(),
                sealed.seq(),
                sealed.kind(),
                sealed.timestamp_us().wrapping_add(1),
                sealed.payload().to_vec(),
            ),
            // A different packet kind.
            _ => Packet::with_timestamp(
                sealed.stream(),
                sealed.seq(),
                PacketKind::Data,
                sealed.timestamp_us(),
                sealed.payload().to_vec(),
            ),
        };
        // The forgery survives the wire: encode/decode round-trips cleanly.
        prop_assert_eq!(Packet::decode(&forged.encode()).unwrap(), forged.clone());
        let (out, rejected) = open(forged);
        prop_assert!(out.is_empty(), "forged header field {field} opened anyway");
        prop_assert_eq!(rejected, 1);
    }

    /// Truncating a sealed payload anywhere — mid-ciphertext, mid-tag, or
    /// to nothing — is rejected.
    #[test]
    fn truncated_frames_are_rejected(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        cut in any::<u64>(),
    ) {
        let sealed = seal(data_packet(seq, payload));
        let cut = (cut as usize) % sealed.payload_len();
        let mut truncated = sealed;
        truncated.payload_edit(|buf| buf.truncate(cut));
        let (out, rejected) = open(truncated);
        prop_assert!(out.is_empty(), "a {cut}-byte truncation opened anyway");
        prop_assert_eq!(rejected, 1);
    }

    /// A frame sealed under the initial epoch and replayed after the
    /// decryptor rotated past its seq fails the tag of the newer key.
    #[test]
    fn stale_key_replays_are_rejected(
        seq in 1u64..1_000_000,
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        boundary_back in 0u64..1_000,
    ) {
        let sealed = seal(data_packet(seq, payload));
        let boundary = seq - boundary_back % seq.min(1_000);
        let mut decrypt = DecryptFilter::new(KEY);
        let mut out: Vec<Packet> = Vec::new();
        // The rotation arrives (and is consumed) first …
        decrypt
            .process(rekey_packet(StreamId::new(7), 1, boundary, 0), &mut out)
            .expect("rekey consumed");
        prop_assert!(out.is_empty(), "rekey frames never leave the decryptor");
        prop_assert_eq!(decrypt.stats().rekeys(), 1);
        // … then the replayed pre-rotation frame, whose seq is past the
        // boundary, opens under the new key and fails.
        decrypt.process(sealed, &mut out).expect("decrypt never errors");
        prop_assert!(out.is_empty(), "stale-key replay opened anyway");
        prop_assert_eq!(decrypt.stats().rejected(), 1);
    }

    /// A tampered frame in the middle of a batch is a surgical drop: every
    /// neighbour opens bit-exact and in order, serial or batched.
    #[test]
    fn tampered_frames_never_disturb_batch_neighbours(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120),
            2..24,
        ),
        victim in any::<u64>(),
        position in any::<u64>(),
        batch_len in 1usize..24,
    ) {
        let originals: Vec<Packet> = payloads
            .iter()
            .enumerate()
            .map(|(seq, payload)| data_packet(seq as u64, payload.clone()))
            .collect();
        let victim = (victim as usize) % originals.len();
        let mut sealed: Vec<Packet> = originals.iter().map(|p| seal(p.clone())).collect();
        let position = (position as usize) % sealed[victim].payload_len();
        sealed[victim].payload_edit(|buf| buf[position] ^= 0x80);

        let expected: Vec<Packet> = originals
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, p)| p.clone())
            .collect();

        // Batched path.
        let mut chain = CryptoChain::default();
        chain.push(Box::new(DecryptFilter::new(KEY)));
        let mut batched: Vec<Packet> = Vec::new();
        for chunk in sealed.chunks(batch_len) {
            batched.extend(chain.chain.process_batch(chunk.to_vec()).unwrap());
        }
        prop_assert_eq!(&batched, &expected, "neighbours disturbed in the batch");
        prop_assert_eq!(chain.secure().rejected, 1);

        // Serial path agrees.
        let mut serial_chain = CryptoChain::default();
        serial_chain.push(Box::new(DecryptFilter::new(KEY)));
        let mut serial: Vec<Packet> = Vec::new();
        for packet in sealed {
            serial.extend(serial_chain.chain.process(packet).unwrap());
        }
        prop_assert_eq!(&serial, &expected);
        prop_assert_eq!(serial_chain.secure().rejected, 1);
    }
}

// ---------------------------------------------------------------------------
// Batch/serial parity for chains containing the crypto stage.
// ---------------------------------------------------------------------------

/// A chain and the counters of its crypto stages, each handle taken from
/// its filter before the filter is pushed.
#[derive(Default)]
struct CryptoChain {
    chain: FilterChain,
    counters: Vec<FilterCounters>,
}

impl CryptoChain {
    fn push(&mut self, filter: Box<dyn Filter>) {
        if let Some(counters @ FilterCounters::Secure(_)) = filter.counters() {
            self.counters.push(counters);
        }
        self.chain.push_back(filter).unwrap();
    }

    /// What the crypto stages counted, summed.
    fn secure(&self) -> SecureChannelSnapshot {
        let mut total = SecureChannelSnapshot::default();
        for counters in &self.counters {
            if let FilterCounters::Secure(stats) = counters {
                total.merge(stats.snapshot());
            }
        }
        total
    }
}

/// Chain shapes placing FEC before, after, and around the crypto stage;
/// called twice per case so both chains start from identical state.
fn crypto_chain(selector: usize) -> CryptoChain {
    let mut chain = CryptoChain::default();
    match selector % 5 {
        // The bare pair.
        0 => {
            chain.push(Box::new(EncryptFilter::new(KEY)));
            chain.push(Box::new(DecryptFilter::new(KEY)));
        }
        // FEC before the crypto stage: parity frames are sealed too.
        1 => {
            chain.push(Box::new(FecEncoderFilter::fec_6_4().unwrap()));
            chain.push(Box::new(EncryptFilter::new(KEY)));
            chain.push(Box::new(DecryptFilter::new(KEY)));
            chain.push(Box::new(FecDecoderFilter::fec_6_4().unwrap()));
        }
        // FEC after the crypto stage: parity is computed over ciphertext.
        2 => {
            chain.push(Box::new(EncryptFilter::new(KEY)));
            chain.push(Box::new(FecEncoderFilter::fec_6_4().unwrap()));
            chain.push(Box::new(FecDecoderFilter::fec_6_4().unwrap()));
            chain.push(Box::new(DecryptFilter::new(KEY)));
        }
        // Sealed frames lost between the pair; FEC recovers the plaintext
        // from the frames that did open.
        3 => {
            chain.push(Box::new(FecEncoderFilter::fec_6_4().unwrap()));
            chain.push(Box::new(EncryptFilter::new(KEY)));
            chain.push(Box::new(DropEveryNth::new(3)));
            chain.push(Box::new(DecryptFilter::new(KEY)));
            chain.push(Box::new(FecDecoderFilter::fec_6_4().unwrap()));
        }
        // Sealed frames lost *outside* the pair: FEC reconstructs the exact
        // sealed bytes and the decryptor must still open the recovery.
        _ => {
            chain.push(Box::new(EncryptFilter::new(KEY)));
            chain.push(Box::new(FecEncoderFilter::fec_6_4().unwrap()));
            chain.push(Box::new(DropEveryNth::new(3)));
            chain.push(Box::new(FecDecoderFilter::fec_6_4().unwrap()));
            chain.push(Box::new(DecryptFilter::new(KEY)));
        }
    }
    chain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `process_batch` emits exactly what per-packet `process` emits for
    /// every crypto chain shape, packet mix, and batch partition — and the
    /// secure counters agree too.
    #[test]
    fn batch_equals_serial_for_crypto_chains(
        selector in 0usize..5,
        batch_len in 1usize..48,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..160),
            1..48,
        ),
    ) {
        let packets: Vec<Packet> = payloads
            .iter()
            .enumerate()
            .map(|(seq, payload)| data_packet(seq as u64, payload.clone()))
            .collect();

        let mut serial_chain = crypto_chain(selector);
        let mut serial_out: Vec<Packet> = Vec::new();
        for packet in &packets {
            serial_out.extend(serial_chain.chain.process(packet.clone()).unwrap());
        }

        let mut batch_chain = crypto_chain(selector);
        let mut batch_out: Vec<Packet> = Vec::new();
        for chunk in packets.chunks(batch_len) {
            batch_out.extend(batch_chain.chain.process_batch(chunk.to_vec()).unwrap());
        }

        prop_assert_eq!(&serial_out, &batch_out, "selector {}", selector);
        prop_assert_eq!(serial_chain.chain.flush().unwrap(), batch_chain.chain.flush().unwrap());
        prop_assert_eq!(serial_chain.secure(), batch_chain.secure());
    }

    /// A rekey control frame spliced anywhere into the stream rotates both
    /// halves of the pair identically on the serial and batched paths, and
    /// every frame still round-trips to its plaintext.
    #[test]
    fn rekey_preserves_batch_serial_parity(
        batch_len in 1usize..32,
        rekey_at in 0usize..32,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..160),
            2..32,
        ),
    ) {
        let mut packets: Vec<Packet> = payloads
            .iter()
            .enumerate()
            .map(|(seq, payload)| data_packet(seq as u64, payload.clone()))
            .collect();
        let expected = packets.clone();
        let rekey_at = rekey_at % packets.len();
        let boundary = packets[rekey_at].seq().value();
        packets.insert(rekey_at, rekey_packet(StreamId::new(7), 1, boundary, 0));

        let run = |mut chain: CryptoChain, chunked: bool| {
            let mut out: Vec<Packet> = Vec::new();
            if chunked {
                for chunk in packets.chunks(batch_len) {
                    out.extend(chain.chain.process_batch(chunk.to_vec()).unwrap());
                }
            } else {
                for packet in &packets {
                    out.extend(chain.chain.process(packet.clone()).unwrap());
                }
            }
            let snapshot = chain.secure();
            (out, snapshot)
        };

        let (serial_out, serial_stats) = run(crypto_chain(0), false);
        let (batch_out, batch_stats) = run(crypto_chain(0), true);
        // The rekey frame is forwarded by encrypt and consumed by decrypt,
        // so the output is exactly the plaintext data stream.
        prop_assert_eq!(&serial_out, &expected, "rekey at {} corrupted the stream", rekey_at);
        prop_assert_eq!(&serial_out, &batch_out);
        prop_assert_eq!(serial_stats, batch_stats);
        prop_assert_eq!(serial_stats.rejected, 0);
        // Both halves observed the rotation.
        prop_assert_eq!(serial_stats.rekeys, 2);
    }
}

/// `EncryptFilter` and `DecryptFilter` take a batch with one kernel choice,
/// one key lookup per same-epoch run and one counter update; a rekey frame
/// must still take effect exactly at its own position.  Every position of a
/// rekey frame inside batches of every length up to 9 (and one of 32), on
/// the pair and on each filter alone: the batched output and counters equal
/// the serial ones, and the pair returns the plaintext.
#[test]
fn a_rekey_at_every_batch_position_keeps_batch_serial_parity() {
    let data: Vec<Packet> = (0..40u64)
        .map(|seq| data_packet(seq, (0..(seq as usize * 37) % 300).map(|i| (i * 13 + seq as usize) as u8).collect()))
        .collect();
    let sealed_serially = |packets: &[Packet]| {
        let mut encrypt = EncryptFilter::new(KEY);
        let mut out: Vec<Packet> = Vec::new();
        for packet in packets {
            encrypt.process(packet.clone(), &mut out).expect("encrypt never fails");
        }
        out
    };
    for batch_len in (1..=9).chain([32]) {
        for rekey_at in 0..data.len() {
            let mut packets = data.clone();
            let boundary = packets[rekey_at].seq().value();
            packets.insert(rekey_at, rekey_packet(StreamId::new(7), 1, boundary, 0));
            let context = format!("batch of {batch_len}, rekey at {rekey_at}");

            let pair = |chunked: bool| {
                let mut chain = crypto_chain(0);
                let mut out: Vec<Packet> = Vec::new();
                if chunked {
                    for chunk in packets.chunks(batch_len) {
                        out.extend(chain.chain.process_batch(chunk.to_vec()).unwrap());
                    }
                } else {
                    for packet in &packets {
                        out.extend(chain.chain.process(packet.clone()).unwrap());
                    }
                }
                (out, chain.secure())
            };
            let (serial, serial_stats) = pair(false);
            assert_eq!(serial, data, "{context}: the pair lost the plaintext");
            assert_eq!(pair(true), (serial, serial_stats), "{context}: pair");

            // Each filter alone, batched, against the same filter serially.
            let sealed = sealed_serially(&packets);
            let mut encrypt = EncryptFilter::new(KEY);
            let mut batched: Vec<Packet> = Vec::new();
            for chunk in packets.chunks(batch_len) {
                encrypt.process_batch(chunk.to_vec(), &mut batched).unwrap();
            }
            assert_eq!(batched, sealed, "{context}: encrypt");
            assert_eq!((encrypt.stats().sealed(), encrypt.stats().rekeys()), (40, 1), "{context}");

            let mut decrypt = DecryptFilter::new(KEY);
            let mut opened: Vec<Packet> = Vec::new();
            for chunk in sealed.chunks(batch_len) {
                decrypt.process_batch(chunk.to_vec(), &mut opened).unwrap();
            }
            assert_eq!(opened, data, "{context}: decrypt");
            let stats = decrypt.stats().snapshot();
            assert_eq!((stats.opened, stats.rejected, stats.rekeys), (40, 0, 1), "{context}");
        }
    }
}
