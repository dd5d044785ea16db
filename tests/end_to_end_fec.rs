//! Cross-crate integration test: the full FEC audio pipeline.
//!
//! media source -> filter chain (FEC encoder) -> simulated wireless LAN ->
//! per-receiver FEC decoders, run by the scenario engine, plus the same
//! pipeline on a live proxy stream with in-chain fault injection.

use rapidware::prelude::*;

#[test]
fn figure7_operating_point_recovers_nearly_everything() {
    // 2000-packet slices of the Figure 7 run (kept short for CI): the
    // paper's three laptops, then a whole room of sixteen.
    for receivers in [3, 16] {
        let outcome = ScenarioEngine::new(ScenarioSpec::multicast(receivers)).run_sync();
        let report = &outcome.report;
        assert_eq!(report.receivers().count(), receivers);
        let mut received_counts = Vec::new();
        for (index, receiver) in report.receivers().enumerate() {
            let stats = outcome.receipt_stats(index, 432);
            assert!(
                stats.received_pct() > 96.0 && stats.received_pct() < 100.0,
                "raw receipt at 25 m should be close to but below 100% (got {:.2})",
                stats.received_pct()
            );
            assert!(
                stats.reconstructed_pct() > 99.5,
                "FEC(6,4) should recover nearly everything at receiver-{index} (got {:.2})",
                stats.reconstructed_pct()
            );
            assert!(receiver.recovered > 0, "receiver-{index} never used parity");
            received_counts.push(receiver.delivered);
        }
        // Losses are independent per receiver: one parity packet repairs
        // different packets at different receivers.
        assert!(
            received_counts.windows(2).any(|pair| pair[0] != pair[1]),
            "{receivers} receivers with identical receipt counts: losses not independent? \
             {received_counts:?}"
        );
        // FEC(6,4) costs 2 parity packets per 4 source packets.
        assert!((report.parity_overhead() - 0.5).abs() < 1e-9);
    }
}

#[test]
fn fec_beats_no_fec_at_every_distance() {
    for distance in [15.0, 25.0, 35.0] {
        let at = |fec| ScenarioSpec {
            fec,
            ..ScenarioSpec::figure7()
                .with_packets(1_200)
                .with_receivers(vec![LossRegime::AtDistance { meters: distance }])
        };
        let with_fec = ScenarioEngine::new(at(FecPolicy::Fixed(6, 4))).run_sync();
        let without = ScenarioEngine::new(at(FecPolicy::Off)).run_sync();
        let with_fec_stats = with_fec.receipt_stats(0, 432);
        let without_stats = without.receipt_stats(0, 432);
        assert!(
            with_fec_stats.reconstructed_pct() > without_stats.reconstructed_pct()
                || without_stats.reconstructed_pct() == 100.0,
            "FEC must help (or tie) at {distance} m"
        );
        // Without FEC nothing is on the air but the stream, nothing is
        // repaired, and every delivered packet still reaches the receiver.
        assert_eq!(without.report.parity_total(), 0);
        assert_eq!(without.report.recovered_total(), 0);
        assert_eq!(without.report.undelivered_total(), 0);
        assert_eq!(without_stats.reconstructed_pct(), without_stats.received_pct());
    }
}

#[test]
fn threaded_proxy_pipeline_with_fault_injection_recovers_losses() {
    // The same pipeline on a live proxy stream (one pooled task on the
    // proxy's worker threads, fed and drained through its pipes), with the
    // loss injected by a filter inside the chain.
    let mut proxy = Proxy::new("fec");
    let (input, output) = proxy.add_stream_pooled("audio").expect("stream");
    let filters: [Box<dyn Filter>; 3] = [
        Box::new(FecEncoderFilter::fec_6_4().unwrap()),
        Box::new(rapidware::filters::DropEveryNth::new(7)),
        Box::new(FecDecoderFilter::fec_6_4().unwrap()),
    ];
    for (position, filter) in filters.into_iter().enumerate() {
        proxy.insert_filter_boxed("audio", position, filter).unwrap();
    }
    let consumer = std::thread::spawn(move || {
        let mut sink = MediaSink::new();
        while let Ok(packet) = output.recv() {
            sink.deliver(&packet);
        }
        sink
    });

    let mut source = AudioSource::pcm_default(StreamId::new(1));
    let total = 2_000u64;
    for _ in 0..total {
        input.send(source.next_packet()).unwrap();
    }
    input.close();
    let sink = consumer.join().unwrap();
    let report = sink.report(total);
    let available = report.received + report.recovered;
    assert!(
        available as f64 / total as f64 > 0.99,
        "FEC on a live proxy stream should repair the injected losses \
         (got {available}/{total})"
    );
    proxy.shutdown().unwrap();
}

#[test]
fn transcoder_plus_fec_compose_in_either_order() {
    // Composability: the same filters, composed in different orders, both
    // produce a working stream (this is the property the detachable-stream
    // design exists to support).
    for order in [&["transcoder", "fec-encoder"], &["fec-encoder", "transcoder"]] {
        let mut chain = FilterChain::new();
        let registry = FilterRegistry::with_builtins();
        for kind in order.iter() {
            let spec = FilterSpec::new(*kind);
            chain
                .push_back(registry.instantiate(&spec).unwrap())
                .unwrap();
        }
        let mut source = AudioSource::pcm_default(StreamId::new(1));
        let mut out = Vec::new();
        for _ in 0..40 {
            out.extend(chain.process(source.next_packet()).unwrap());
        }
        out.extend(chain.flush().unwrap());
        let payload = out.iter().filter(|p| p.kind().is_payload()).count();
        let parity = out.iter().filter(|p| p.kind().is_parity()).count();
        assert_eq!(payload, 40, "order {order:?}");
        assert_eq!(parity, 20, "order {order:?}");
        // The transcoder halves every payload packet.
        for packet in out.iter().filter(|p| p.kind().is_payload()) {
            assert_eq!(packet.payload_len(), 160, "order {order:?}");
        }
    }
}
