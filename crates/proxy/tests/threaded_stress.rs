//! Stress tests for live splicing on a `Proxy` from several threads:
//! concurrent control operations racing against a live stream, independent
//! streams side by side, and shutdown under load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rapidware_filters::{NullFilter, TapFilter};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{FilterSpec, Proxy, RuntimeConfig};

const HANG: Duration = Duration::from_secs(30);

fn packet(stream: u32, seq: u64) -> Packet {
    Packet::new(
        StreamId::new(stream),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; 200],
    )
}

/// Spins (yielding) until `done` holds, failing the test after [`HANG`].
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + HANG;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::yield_now();
    }
}

#[test]
fn concurrent_splices_from_two_control_threads() {
    let mut proxy = Proxy::with_runtime("stress", RuntimeConfig::new(2, 8).with_pipe_capacity(64));
    let (input, output) = proxy.add_stream_pooled("audio").expect("stream");
    let proxy = Arc::new(proxy);
    const TOTAL: u64 = 8_000;

    // The input closes only after the splices: a stream that ended
    // refuses them.
    let closer = input.clone();
    let producer = thread::spawn(move || {
        for seq in 0..TOTAL {
            input.send(packet(1, seq)).unwrap();
        }
    });
    let delivered = Arc::new(AtomicU64::new(0));
    let consumer = {
        let delivered = Arc::clone(&delivered);
        thread::spawn(move || {
            let mut seqs = Vec::new();
            while let Ok(p) = output.recv() {
                seqs.push(p.seq().value());
                delivered.fetch_add(1, Ordering::Relaxed);
            }
            seqs
        })
    };

    // Two "control managers" reconfigure the same stream concurrently,
    // each round paced on delivery so the splices land mid-stream.
    // Inserting at the head is always valid; removals may race with the
    // other controller and are allowed to fail.
    let controllers: Vec<_> = (0..2)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            let delivered = Arc::clone(&delivered);
            thread::spawn(move || {
                for round in 0..25u64 {
                    wait_until("delivery", || delivered.load(Ordering::Relaxed) >= round * 100);
                    proxy.insert_filter("audio", 0, &FilterSpec::new("null")).unwrap();
                    if proxy.filter_names("audio").unwrap().len() > 1 {
                        let _ = proxy.remove_filter("audio", 0);
                    }
                }
            })
        })
        .collect();
    for controller in controllers {
        controller.join().unwrap();
    }
    while !proxy.filter_names("audio").unwrap().is_empty() {
        proxy.remove_filter("audio", 0).unwrap();
    }
    producer.join().unwrap();
    closer.close();
    let seqs = consumer.join().unwrap();
    assert_eq!(seqs.len() as u64, TOTAL);
    for (index, seq) in seqs.iter().enumerate() {
        assert_eq!(*seq, index as u64);
    }
    assert!(proxy.stream_stats("audio").unwrap().splices >= 50);
    Arc::into_inner(proxy).expect("controllers are done").shutdown().unwrap();
}

#[test]
fn multiple_streams_are_isolated() {
    let mut proxy = Proxy::new("isolated");
    let (audio_in, audio_out) = proxy.add_stream_pooled("audio").expect("stream");
    let (video_in, video_out) = proxy.add_stream_pooled("video").expect("stream");
    // Only the video stream gets a filter; the audio stream must be
    // unaffected by its presence (and by its later removal).
    proxy.insert_filter_boxed("video", 0, Box::new(TapFilter::new("video-tap"))).unwrap();

    let count = |output: rapidware_streams::DetachableReceiver<Packet>| {
        thread::spawn(move || std::iter::from_fn(|| output.recv().ok()).count() as u64)
    };
    let audio_consumer = count(audio_out);
    let video_consumer = count(video_out);

    for seq in 0..500u64 {
        audio_in.send(packet(1, seq)).unwrap();
        video_in.send(packet(2, seq)).unwrap();
    }
    proxy.remove_filter("video", 0).unwrap();
    for seq in 500..1_000u64 {
        audio_in.send(packet(1, seq)).unwrap();
        video_in.send(packet(2, seq)).unwrap();
    }
    audio_in.close();
    video_in.close();
    assert_eq!(audio_consumer.join().unwrap(), 1_000);
    assert_eq!(video_consumer.join().unwrap(), 1_000);
    assert_eq!(proxy.stream_stats("audio").unwrap().packets_in, 1_000);
    assert_eq!(proxy.stream_stats("video").unwrap().packets_in, 1_000);
    assert_eq!(proxy.stream_stats("audio").unwrap().splices, 0);
    assert_eq!(proxy.stream_stats("video").unwrap().splices, 2);
    proxy.shutdown().unwrap();
}

#[test]
fn shutdown_while_producer_is_blocked_does_not_hang() {
    // Fill the pipes so the producer blocks, then shut down; the producer's
    // send must fail (not deadlock) and shutdown must complete.
    let mut proxy = Proxy::with_runtime("blocked", RuntimeConfig::new(1, 4).with_pipe_capacity(4));
    let (input, output) = proxy.add_stream_pooled("audio").expect("stream");
    let stats = input.stats();
    let producer = thread::spawn(move || {
        let mut sent = 0u64;
        for seq in 0..10_000u64 {
            if input.send(packet(1, seq)).is_err() {
                break;
            }
            sent += 1;
        }
        sent
    });
    wait_until("the producer to block", || stats.blocked_sends() > 0);
    // Drain a little, then close the output side entirely.
    let _ = output.try_recv();
    output.close();
    proxy.shutdown().unwrap();
    let sent = producer.join().unwrap();
    assert!(sent < 10_000, "producer must observe the shutdown");
}

#[test]
fn tap_counters_survive_removal() {
    let mut proxy = Proxy::new("tapped");
    let (input, output) = proxy.add_stream_pooled("audio").expect("stream");
    let tap = TapFilter::new("observed");
    let counters = tap.counters();
    proxy.insert_filter_boxed("audio", 0, Box::new(tap)).unwrap();
    proxy.insert_filter_boxed("audio", 1, Box::new(NullFilter::new())).unwrap();
    for seq in 0..50u64 {
        input.send(packet(1, seq)).unwrap();
    }
    for _ in 0..50 {
        output.recv_timeout(HANG).expect("the stream delivers");
    }
    let removed = proxy.remove_filter("audio", 0).unwrap();
    assert_eq!(removed.name(), "observed");
    assert_eq!(counters.packets(), 50);
    assert_eq!(proxy.filter_names("audio").unwrap(), vec!["null"]);
    input.close();
    assert!(output.recv_timeout(HANG).is_err(), "end of stream after the removal");
    proxy.shutdown().unwrap();
}
