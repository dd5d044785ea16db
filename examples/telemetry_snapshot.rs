//! Telemetry snapshot: turn on the unified telemetry subsystem, stream
//! packets through a pooled FEC chain, and read the whole story back —
//! end-to-end latency percentiles, per-stage timings, runtime profiling,
//! and the status counts — from one `Proxy::telemetry()` snapshot and from
//! the control protocol's `telemetry` verb.
//!
//! Run with:
//!
//! ```text
//! cargo run --example telemetry_snapshot
//! ```

use rapidware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A proxy on the sharded worker-pool runtime.  Telemetry goes on
    //    *before* any streams exist so every layer — chain spans, runtime
    //    poll/queue-wait histograms — is instrumented from the start.
    let mut proxy = Proxy::with_runtime("telemetry-demo", RuntimeConfig::new(2, 16));
    proxy.enable_telemetry();
    let (input, output) = proxy.add_stream_pooled("audio")?;

    // 2. An FEC(6,4) encode → decode round trip on the stream, spliced in
    //    live like any other reconfiguration.
    proxy.insert_filter(
        "audio",
        0,
        &FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
    )?;
    proxy.insert_filter(
        "audio",
        1,
        &FilterSpec::new("fec-decoder").with_param("n", "6").with_param("k", "4"),
    )?;

    // 3. Two seconds of audio through the instrumented chain.
    let mut source = AudioSource::pcm_default(StreamId::new(1));
    for _ in 0..100 {
        input.send(source.next_packet()).expect("proxy accepts packets");
    }
    input.close();
    let mut delivered = 0usize;
    while output.recv().is_ok() {
        delivered += 1;
    }
    println!("delivered {delivered} packets through the pooled FEC chain\n");

    // 4. One snapshot carries everything: packet-lifecycle histograms with
    //    derivable percentiles, runtime profiling, and every status count
    //    folded in as a flat metric.
    let snapshot = proxy.telemetry().expect("telemetry was enabled");
    let e2e = snapshot
        .histogram("stream.audio.e2e_ns")
        .expect("the stream's end-to-end span");
    println!(
        "stream.audio e2e latency: {} packets, p50={}ns p90={}ns p99={}ns",
        e2e.count(),
        e2e.percentile(0.50),
        e2e.percentile(0.90),
        e2e.percentile(0.99),
    );
    let polls = snapshot.histogram("runtime.poll_ns").expect("runtime profiling");
    println!(
        "runtime task polls:       {} polls, mean {}ns",
        polls.count(),
        polls.mean(),
    );
    println!(
        "status counts, same view: packets_in={} packets_out={} runtime.polls={}",
        snapshot.stat("stream.audio.packets_in").unwrap_or(0),
        snapshot.stat("stream.audio.packets_out").unwrap_or(0),
        snapshot.stat("runtime.polls").unwrap_or(0),
    );

    // 5. The same document is one control verb away, next to `status` and
    //    `query` — this is what a remote dashboard would poll.
    let mut manager = ControlManager::new(proxy);
    println!("\ncontrol> telemetry");
    let response = manager.execute_line("telemetry");
    let json = response.to_string();
    println!("{}…", &json[..json.len().min(200)]);

    manager.proxy_mut().shutdown()?;
    Ok(())
}
