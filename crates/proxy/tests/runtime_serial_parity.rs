//! Pooled/serial parity: for arbitrary chain specs, shard counts, and
//! batch sizes, a chain hosted on the sharded worker pool emits exactly
//! the byte-identical packet stream that the serial [`FilterChain`]
//! baseline emits — scheduler shape (worker count, step batching, work
//! stealing, back-pressure parking) must be invisible in the output.
//!
//! This extends the PR 1/2 batch/serial parity suites from the data plane
//! to the scheduler.  The thread-per-filter reference [`ThreadedChain`]
//! rides along as one more executor (per-packet and batch-32 stage
//! workers): nothing places work on it any more, so this is where it is
//! held byte-identical to the serial chain.

use proptest::prelude::*;
use rapidware_filters::{
    CompressorFilter, DecompressorFilter, DescramblerFilter, DropEveryNth, FecDecoderFilter,
    FecEncoderFilter, Filter, FilterChain, NullFilter, ScramblerFilter, TapFilter,
};
use rapidware_packet::{FrameType, Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::runtime::{Runtime, RuntimeConfig};
use rapidware_proxy::ThreadedChain;

/// Builds one of the built-in chain configurations as a filter list;
/// called twice per case so the serial and pooled chains start from
/// identical state.
fn build_filters(selector: usize) -> Vec<Box<dyn Filter>> {
    match selector % 6 {
        0 => Vec::new(),
        1 => vec![
            Box::new(NullFilter::new()),
            Box::new(TapFilter::new("parity-tap")),
        ],
        2 => vec![
            Box::new(CompressorFilter::new()),
            Box::new(ScramblerFilter::new(0x5EED)),
            Box::new(DescramblerFilter::new(0x5EED)),
            Box::new(DecompressorFilter::new()),
        ],
        3 => vec![Box::new(FecEncoderFilter::fec_6_4().unwrap())],
        4 => vec![
            Box::new(FecEncoderFilter::fec_6_4().unwrap()),
            Box::new(FecDecoderFilter::fec_6_4().unwrap()),
        ],
        _ => vec![
            Box::new(FecEncoderFilter::fec_6_4().unwrap()),
            Box::new(DropEveryNth::new(3)),
            Box::new(FecDecoderFilter::fec_6_4().unwrap()),
        ],
    }
}

/// Materialises a generated `(kind, payload)` description as a packet.
/// `payload_only` excludes `Control` for FEC chains, whose block framing
/// assumes seq-contiguous payload packets (as in the PR 1 parity suite).
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled execution output equals the serial baseline for every
    /// built-in chain, packet mix, shard count, and batch size.
    #[test]
    fn runtime_serial_parity(
        selector in 0usize..6,
        shards in 1usize..=8,
        batch_size in 1usize..32,
        capacity in 4usize..64,
        descriptions in proptest::collection::vec(
            (any::<u8>(), any::<bool>(), proptest::collection::vec(any::<u8>(), 0..160)),
            1..80,
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

        // Serial baseline: one packet at a time, then a final flush (the
        // pooled chain flushes at EOF, so the comparison includes it).
        let mut serial_chain = FilterChain::new();
        for filter in build_filters(selector) {
            serial_chain.push_back(filter).unwrap();
        }
        let mut serial_out: Vec<Packet> = Vec::new();
        for packet in &packets {
            serial_out.extend(serial_chain.process(packet.clone()).unwrap());
        }
        serial_out.extend(serial_chain.flush().unwrap());

        // Pooled execution on a fresh worker pool of the generated shape.
        let runtime = Runtime::start(
            RuntimeConfig::new(shards, batch_size).with_pipe_capacity(capacity),
        );
        let chain = runtime.add_chain("parity");
        for filter in build_filters(selector) {
            chain.push_back(filter).unwrap();
        }
        let input = chain.input();
        let output = chain.output();
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            while let Ok(packet) = output.recv() {
                out.push(packet);
            }
            out
        });
        for packet in &packets {
            input.send(packet.clone()).unwrap();
        }
        chain.close_input();
        let pooled_out = consumer.join().unwrap();

        prop_assert_eq!(&serial_out, &pooled_out, "selector {} shards {} batch {}",
            selector, shards, batch_size);

        // The pipe-stats invariants hold on the pooled path: everything
        // sent was counted in, everything emitted was counted out.
        let stats = chain.stats();
        prop_assert_eq!(stats.packets_in, packets.len() as u64);
        prop_assert_eq!(stats.packets_out, serial_out.len() as u64);

        chain.shutdown().unwrap();
        prop_assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();

        // The reference chain: one thread per filter, same filters, same
        // packets, same EOF flush.
        for stage_batch in [1, 32] {
            let chain = ThreadedChain::with_batch_size(capacity, stage_batch).unwrap();
            for filter in build_filters(selector) {
                chain.push_back(filter).unwrap();
            }
            let input = chain.input();
            let output = chain.output();
            let consumer = std::thread::spawn(move || {
                std::iter::from_fn(|| output.recv().ok()).collect::<Vec<Packet>>()
            });
            for packet in &packets {
                input.send(packet.clone()).unwrap();
            }
            chain.close_input();
            let threaded_out = consumer.join().unwrap();
            prop_assert_eq!(&serial_out, &threaded_out, "selector {} threaded batch {}",
                selector, stage_batch);
            chain.shutdown().unwrap();
        }
    }
}
