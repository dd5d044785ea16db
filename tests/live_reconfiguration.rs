//! Cross-crate integration test: live chain reconfiguration under load.
//!
//! Exercises the property at the core of the paper — filters can be
//! inserted, removed, and reordered on a running stream without losing,
//! duplicating, or reordering application data — on the thread-per-filter
//! reference chain, on a live proxy via the control protocol, and under
//! repeated churn.

use rapidware::prelude::*;

fn audio_packet(seq: u64) -> Packet {
    Packet::new(
        StreamId::new(1),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; 120],
    )
}

#[test]
fn repeated_splice_churn_preserves_the_stream() {
    let chain = ThreadedChain::with_capacity(32).expect("chain");
    let input = chain.input();
    let output = chain.output();
    let total: u64 = 6_000;

    let producer = std::thread::spawn(move || {
        for seq in 0..total {
            input.send(audio_packet(seq)).unwrap();
        }
    });
    let consumer = std::thread::spawn(move || {
        let mut seqs = Vec::new();
        while let Ok(packet) = output.recv() {
            if packet.kind().is_payload() {
                seqs.push(packet.seq().value());
            }
        }
        seqs
    });

    // Churn: repeatedly add and remove filters while the stream runs.
    let registry = FilterRegistry::with_builtins();
    for round in 0..20 {
        let kind = match round % 4 {
            0 => "null",
            1 => "tap",
            2 => "scrambler",
            _ => "descrambler",
        };
        let spec = FilterSpec::new(kind).with_param("key", "9").with_param("name", "churn");
        chain
            .insert(chain.len().min(round % 2), registry.instantiate(&spec).unwrap())
            .unwrap();
        if chain.len() > 2 {
            chain.remove(chain.len() - 1).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // Remove whatever is left so the payload reaches the output unscrambled
    // (scrambler/descrambler pairs may have been split by the churn).
    while !chain.is_empty() {
        chain.remove(0).unwrap();
    }

    producer.join().unwrap();
    chain.close_input();
    let seqs = consumer.join().unwrap();
    assert_eq!(seqs.len() as u64, total, "no loss or duplication under churn");
    for (index, seq) in seqs.iter().enumerate() {
        assert_eq!(*seq, index as u64, "order preserved under churn");
    }
    assert!(chain.stats().splices >= 20);
    chain.shutdown().unwrap();
}

#[test]
fn control_protocol_drives_a_live_proxy() {
    let mut proxy = Proxy::new("controlled");
    let (input, output) = proxy.add_stream_pooled("audio").unwrap();
    let mut manager = ControlManager::new(proxy);

    let consumer = std::thread::spawn(move || {
        let mut packets = Vec::new();
        while let Ok(packet) = output.recv() {
            packets.push(packet);
        }
        packets
    });

    // Configure the chain entirely over the text protocol.
    assert_eq!(
        manager.execute_line("insert stream=audio pos=0 kind=fec-encoder n=6 k=4"),
        "ok"
    );
    assert_eq!(
        manager.execute_line("insert stream=audio pos=1 kind=compressor"),
        "ok"
    );
    let status = manager.execute_line("query");
    assert!(status.contains("fec-encoder(6,4)"));
    assert!(status.contains("compressor"));

    // Traffic flows through the remotely-configured chain.
    let mut source = AudioSource::pcm_default(StreamId::new(1));
    for _ in 0..100 {
        input.send(source.next_packet()).unwrap();
    }

    // Reconfigure mid-stream: drop the compressor, keep FEC.
    assert_eq!(manager.execute_line("remove stream=audio pos=1"), "ok");
    for _ in 0..100 {
        input.send(source.next_packet()).unwrap();
    }

    input.close();
    let delivered = consumer.join().unwrap();
    let payload = delivered.iter().filter(|p| p.kind().is_payload()).count();
    let parity = delivered.iter().filter(|p| p.kind().is_parity()).count();
    assert_eq!(payload, 200);
    assert_eq!(parity, 100, "FEC(6,4) adds one parity per two sources");
    manager.proxy_mut().shutdown().unwrap();
}

#[test]
fn scrambler_pair_survives_being_spliced_in_and_out() {
    // Insert a scrambler/descrambler pair into a live stream, then remove
    // both; every payload byte must survive untouched end to end.
    let chain = ThreadedChain::new().expect("chain");
    let input = chain.input();
    let output = chain.output();
    let total = 300u64;

    let consumer = std::thread::spawn(move || {
        let mut packets = Vec::new();
        while let Ok(packet) = output.recv() {
            packets.push(packet);
        }
        packets
    });

    for seq in 0..100u64 {
        input.send(audio_packet(seq)).unwrap();
    }
    chain
        .insert(0, Box::new(rapidware::filters::ScramblerFilter::new(1234)))
        .unwrap();
    chain
        .insert(1, Box::new(rapidware::filters::DescramblerFilter::new(1234)))
        .unwrap();
    for seq in 100..200u64 {
        input.send(audio_packet(seq)).unwrap();
    }
    // Remove the upstream (scrambler) half first: its removal drains every
    // in-flight packet through the downstream descrambler before the pair is
    // split, so nothing can emerge scrambled.
    chain.remove(0).unwrap();
    chain.remove(0).unwrap();
    for seq in 200..total {
        input.send(audio_packet(seq)).unwrap();
    }
    chain.close_input();

    let delivered = consumer.join().unwrap();
    assert_eq!(delivered.len() as u64, total);
    for (index, packet) in delivered.iter().enumerate() {
        assert_eq!(packet.seq().value(), index as u64);
        assert_eq!(
            packet.payload(),
            audio_packet(index as u64).payload(),
            "payload intact end to end (seq {index})"
        );
    }
    chain.shutdown().unwrap();
}
