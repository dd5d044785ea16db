//! Control packets must pass through every filter the adaptive control
//! loop can install.
//!
//! The closed-loop scenario engine keeps its *live* applier
//! (`engine/live.rs`) deterministic by sending a [`PacketKind::Control`]
//! marker after each sample window and draining the chain until the marker
//! emerges.  That
//! protocol is sound only if every filter a responder can splice into a
//! live chain forwards control packets immediately — never dropping,
//! buffering, or transforming them.  This test pins that invariant for the
//! whole adaptive filter library.

use rapidware_filters::{
    AudioTranscoderFilter, CompressorFilter, DecompressorFilter, DescramblerFilter, DropEveryNth,
    FecDecoderFilter, FecEncoderFilter, Filter, FilterChain, NullFilter, RateLimiterFilter,
    ScramblerFilter, TapFilter, TranscodeMode,
};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};

fn adaptive_filters() -> Vec<Box<dyn Filter>> {
    vec![
        Box::new(NullFilter::new()),
        Box::new(TapFilter::new("tap")),
        Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")),
        Box::new(FecDecoderFilter::fec_6_4().expect("valid (n, k)")),
        Box::new(CompressorFilter::new()),
        Box::new(DecompressorFilter::new()),
        Box::new(ScramblerFilter::new(7)),
        Box::new(DescramblerFilter::new(7)),
        Box::new(AudioTranscoderFilter::new(TranscodeMode::StereoToMono)),
        // Zero-length control packets fit any budget; the limiter also
        // treats non-video kinds as top priority, so even an exhausted
        // budget must not shed them.
        Box::new(RateLimiterFilter::new(1, 1_000_000)),
        // The fault filter forwards control packets too.
        Box::new(DropEveryNth::new(1)),
    ]
}

fn control(seq: u64) -> Packet {
    Packet::new(StreamId::new(9), SeqNo::new(seq), PacketKind::Control, Vec::new())
}

fn audio(seq: u64) -> Packet {
    Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![seq as u8; 64])
}

#[test]
fn every_adaptive_filter_forwards_control_packets_immediately() {
    for mut filter in adaptive_filters() {
        let name = filter.name().to_string();
        // Interleave payload traffic so stateful filters (FEC, compressors)
        // have blocks in flight when the control packet arrives.  Some
        // filters legitimately reject raw audio (the decompressor wants
        // compressed input); the invariant under test is only about the
        // control packet, so payload errors are ignored.
        for seq in 0..3 {
            let mut sink: Vec<Packet> = Vec::new();
            let _ = filter.process(audio(seq), &mut sink);
        }
        let mut sink: Vec<Packet> = Vec::new();
        filter
            .process(control(100), &mut sink)
            .unwrap_or_else(|err| panic!("{name}: control packet rejected: {err}"));
        let forwarded: Vec<&Packet> = sink
            .iter()
            .filter(|p| p.kind() == PacketKind::Control)
            .collect();
        assert_eq!(
            forwarded.len(),
            1,
            "{name}: control packet not forwarded exactly once (got {})",
            forwarded.len()
        );
        assert_eq!(forwarded[0].seq().value(), 100, "{name}: control packet altered");
        assert!(forwarded[0].payload().is_empty(), "{name}: control payload altered");
    }
}

#[test]
fn control_packets_traverse_a_full_adaptive_chain_in_order() {
    // The exact shape the live applier's quiescence relies on: payloads
    // and a trailing marker through an encoder chain — everything the
    // window produced must come out before the marker does.
    let mut chain = FilterChain::new();
    chain
        .push_back(Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("append to an empty chain");
    chain
        .push_back(Box::new(TapFilter::new("mid")))
        .expect("append after the encoder");

    let mut out = Vec::new();
    for seq in 0..4 {
        out.extend(chain.process(audio(seq)).expect("payloads process cleanly"));
    }
    out.extend(chain.process(control(999)).expect("markers process cleanly"));

    let marker_position = out
        .iter()
        .position(|p| p.kind() == PacketKind::Control)
        .expect("marker must emerge from the chain");
    assert_eq!(
        marker_position,
        out.len() - 1,
        "marker overtook window output: {:?}",
        out.iter().map(|p| p.kind().to_string()).collect::<Vec<_>>()
    );
    // A complete FEC(6,4) block: 4 sources + 2 parities ahead of the marker.
    assert_eq!(out.len(), 7);
}
