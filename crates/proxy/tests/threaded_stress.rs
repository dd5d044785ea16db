//! Stress tests for the thread-per-filter reference chain: concurrent
//! control operations racing against a live stream, independent chains side
//! by side, and shutdown under load.

use std::sync::Arc;

use rapidware_filters::{NullFilter, TapFilter};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::ThreadedChain;

fn packet(stream: u32, seq: u64) -> Packet {
    Packet::new(
        StreamId::new(stream),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; 200],
    )
}

#[test]
fn concurrent_splices_from_two_control_threads() {
    let chain = Arc::new(ThreadedChain::with_capacity(64).expect("chain"));
    let input = chain.input();
    let output = chain.output();
    const TOTAL: u64 = 8_000;

    let producer = std::thread::spawn(move || {
        for seq in 0..TOTAL {
            input.send(packet(1, seq)).unwrap();
        }
    });
    let consumer = std::thread::spawn(move || {
        let mut seqs = Vec::new();
        while let Ok(p) = output.recv() {
            seqs.push(p.seq().value());
        }
        seqs
    });

    // Two "control managers" reconfigure the same chain concurrently.
    // Inserting at the head is always valid; removals may race with the
    // other controller and are allowed to fail.
    let controllers: Vec<_> = (0..2)
        .map(|_| {
            let chain = Arc::clone(&chain);
            std::thread::spawn(move || {
                for _ in 0..25usize {
                    chain.insert(0, Box::new(NullFilter::new())).unwrap();
                    if chain.len() > 1 {
                        let _ = chain.remove(0);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        })
        .collect();
    for controller in controllers {
        controller.join().unwrap();
    }
    while !chain.is_empty() {
        chain.remove(0).unwrap();
    }

    producer.join().unwrap();
    chain.close_input();
    let seqs = consumer.join().unwrap();
    assert_eq!(seqs.len() as u64, TOTAL);
    for (index, seq) in seqs.iter().enumerate() {
        assert_eq!(*seq, index as u64);
    }
    assert!(chain.stats().splices >= 50);
    chain.shutdown().unwrap();
}

#[test]
fn multiple_streams_are_isolated() {
    let audio = ThreadedChain::new().expect("chain");
    let video = ThreadedChain::new().expect("chain");
    let (audio_in, audio_out) = (audio.input(), audio.output());
    let (video_in, video_out) = (video.input(), video.output());
    // Only the video stream gets a filter; the audio stream must be
    // unaffected by its presence (and by its later removal).
    video.insert(0, Box::new(TapFilter::new("video-tap"))).unwrap();

    let audio_consumer = std::thread::spawn(move || {
        let mut count = 0u64;
        while audio_out.recv().is_ok() {
            count += 1;
        }
        count
    });
    let video_consumer = std::thread::spawn(move || {
        let mut count = 0u64;
        while video_out.recv().is_ok() {
            count += 1;
        }
        count
    });

    for seq in 0..500u64 {
        audio_in.send(packet(1, seq)).unwrap();
        video_in.send(packet(2, seq)).unwrap();
    }
    video.remove(0).unwrap();
    for seq in 500..1_000u64 {
        audio_in.send(packet(1, seq)).unwrap();
        video_in.send(packet(2, seq)).unwrap();
    }
    audio_in.close();
    video_in.close();
    assert_eq!(audio_consumer.join().unwrap(), 1_000);
    assert_eq!(video_consumer.join().unwrap(), 1_000);
    assert_eq!(audio.stats().packets_in, 1_000);
    assert_eq!(video.stats().packets_in, 1_000);
    audio.shutdown().unwrap();
    video.shutdown().unwrap();
}

#[test]
fn shutdown_while_producer_is_blocked_does_not_hang() {
    // Fill the pipe so the producer blocks, then shut down; the producer's
    // send must fail (not deadlock) and shutdown must complete.
    let chain = ThreadedChain::with_capacity(4).expect("chain");
    let input = chain.input();
    let producer = std::thread::spawn(move || {
        let mut sent = 0u64;
        for seq in 0..10_000u64 {
            if input.send(packet(1, seq)).is_err() {
                break;
            }
            sent += 1;
        }
        sent
    });
    // Give the producer time to fill the buffer and block.
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Drain a little, then close the output side entirely.
    let output = chain.output();
    let _ = output.try_recv();
    output.close();
    chain.shutdown().unwrap();
    let sent = producer.join().unwrap();
    assert!(sent < 10_000, "producer must observe the shutdown");
}

#[test]
fn tap_counters_survive_removal() {
    let chain = ThreadedChain::new().expect("chain");
    let tap = TapFilter::new("observed");
    let counters = tap.counters();
    chain.push_back(Box::new(tap)).unwrap();
    let input = chain.input();
    let output = chain.output();
    for seq in 0..50u64 {
        input.send(packet(1, seq)).unwrap();
    }
    // Drain so the removal's pause can complete, then remove the tap.
    let mut drained = 0;
    while drained < 50 {
        if output.recv().is_ok() {
            drained += 1;
        }
    }
    let removed = chain.remove(0).unwrap();
    assert_eq!(removed.name(), "observed");
    assert_eq!(counters.packets(), 50);
    chain.close_input();
    chain.shutdown().unwrap();
}
