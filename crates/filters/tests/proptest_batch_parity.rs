//! Batch/serial parity: for any packet sequence, any built-in chain, and
//! any batch partition, [`FilterChain::process_batch_into`] must emit exactly
//! what packet-at-a-time [`FilterChain::process`] emits — including
//! buffered filter state, which is compared through a final flush.

use proptest::prelude::*;
use rapidware_filters::{
    CompressorFilter, DecompressorFilter, DescramblerFilter, DropEveryNth, FecDecoderFilter,
    FecEncoderFilter, FilterChain, NullFilter, ScramblerFilter, TapFilter,
};
use rapidware_packet::{FrameType, Packet, PacketKind, SeqNo, StreamId};

/// Builds one of the built-in chain configurations; called twice per case
/// so the serial and batched chains start from identical state.
fn build_chain(selector: usize) -> FilterChain {
    let mut chain = FilterChain::new();
    match selector % 6 {
        0 => {}
        1 => {
            chain.push_back(Box::new(NullFilter::new())).unwrap();
            chain.push_back(Box::new(TapFilter::new("parity-tap"))).unwrap();
        }
        2 => {
            chain.push_back(Box::new(CompressorFilter::new())).unwrap();
            chain.push_back(Box::new(ScramblerFilter::new(0x5EED))).unwrap();
            chain.push_back(Box::new(DescramblerFilter::new(0x5EED))).unwrap();
            chain.push_back(Box::new(DecompressorFilter::new())).unwrap();
        }
        3 => {
            chain
                .push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap()))
                .unwrap();
        }
        4 => {
            chain
                .push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap()))
                .unwrap();
            chain
                .push_back(Box::new(FecDecoderFilter::fec_6_4().unwrap()))
                .unwrap();
        }
        _ => {
            chain
                .push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap()))
                .unwrap();
            chain.push_back(Box::new(DropEveryNth::new(3))).unwrap();
            chain
                .push_back(Box::new(FecDecoderFilter::fec_6_4().unwrap()))
                .unwrap();
        }
    }
    chain
}

/// Materialises a generated `(kind, payload)` description as a packet.
///
/// When `payload_only` is set, the `Control` kind is excluded: the FEC
/// block framing keys blocks by sequence number and assumes the protected
/// payload packets are seq-contiguous (true of the paper's media streams),
/// and a pass-through control packet in the middle would break that
/// invariant on the serial and batched paths alike.
fn build_packet(
    seq: u64,
    kind_selector: u8,
    boundary: bool,
    payload: Vec<u8>,
    payload_only: bool,
) -> Packet {
    let choices = if payload_only { 3 } else { 4 };
    let kind = match kind_selector % choices {
        0 => PacketKind::AudioData,
        1 => PacketKind::Data,
        2 => PacketKind::VideoFrame {
            frame: FrameType::P,
            boundary,
        },
        _ => PacketKind::Control,
    };
    Packet::new(StreamId::new(1), SeqNo::new(seq), kind, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `process_batch_into` output equals per-packet `process` output for every
    /// built-in chain, packet mix, and batch partition.
    #[test]
    fn batch_equals_serial_for_builtin_chains(
        selector in 0usize..6,
        batch_len in 1usize..48,
        descriptions in proptest::collection::vec(
            (any::<u8>(), any::<bool>(), proptest::collection::vec(any::<u8>(), 0..200)),
            1..60,
        ),
    ) {
        let uses_fec = selector % 6 >= 3;
        let packets: Vec<Packet> = descriptions
            .into_iter()
            .enumerate()
            .map(|(seq, (kind, boundary, payload))| {
                build_packet(seq as u64, kind, boundary, payload, uses_fec)
            })
            .collect();

        let mut serial_chain = build_chain(selector);
        let mut serial_out: Vec<Packet> = Vec::new();
        for packet in &packets {
            serial_out.extend(serial_chain.process(packet.clone()).unwrap());
        }

        let mut batch_chain = build_chain(selector);
        let mut batch_out: Vec<Packet> = Vec::new();
        for chunk in packets.chunks(batch_len) {
            batch_chain.process_batch_into(chunk.to_vec(), &mut batch_out).unwrap();
        }

        prop_assert_eq!(&serial_out, &batch_out, "selector {}", selector);
        // Buffered state (e.g. a partial FEC block) must match too.
        prop_assert_eq!(serial_chain.flush().unwrap(), batch_chain.flush().unwrap());
    }

    /// Deferred frame-boundary insertions activate at the same packet on
    /// both paths: the batch is split at insertion boundaries exactly where
    /// the serial path would apply the pending filters.
    #[test]
    fn batch_equals_serial_with_deferred_insertion(
        batch_len in 1usize..32,
        boundary_at in 0usize..20,
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 4..20),
    ) {
        let packets: Vec<Packet> = payloads
            .into_iter()
            .enumerate()
            .map(|(seq, payload)| {
                build_packet(seq as u64, 2, seq == boundary_at.min(19), payload, true)
            })
            .collect();

        let run = |mut chain: FilterChain, chunked: bool| -> (Vec<Packet>, Vec<String>) {
            chain
                .insert(0, Box::new(FecEncoderFilter::fec_6_4().unwrap().frame_aligned()))
                .unwrap();
            let mut out = Vec::new();
            if chunked {
                for chunk in packets.chunks(batch_len) {
                    chain.process_batch_into(chunk.to_vec(), &mut out).unwrap();
                }
            } else {
                for packet in &packets {
                    out.extend(chain.process(packet.clone()).unwrap());
                }
            }
            out.extend(chain.flush().unwrap());
            (out, chain.names())
        };

        let (serial_out, serial_names) = run(FilterChain::new(), false);
        let (batch_out, batch_names) = run(FilterChain::new(), true);
        prop_assert_eq!(serial_out, batch_out);
        prop_assert_eq!(serial_names, batch_names);
    }
}
