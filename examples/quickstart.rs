//! Quickstart: build a proxy, stream packets through it, and reconfigure the
//! filter chain while the stream is running.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rapidware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A proxy with one stream.  The stream starts as a "null proxy":
    //    packets pass straight from the input endpoint to the output
    //    endpoint.
    let mut proxy = Proxy::new("quickstart-proxy");
    let (input, output) = proxy.add_stream_pooled("audio")?;

    // A consumer thread plays the role of the wireless sender end point.
    let consumer = std::thread::spawn(move || {
        let mut delivered = Vec::new();
        while let Ok(packet) = output.recv() {
            delivered.push(packet);
        }
        delivered
    });

    // 2. Push the first second of audio through the unmodified proxy.
    let mut source = AudioSource::pcm_default(StreamId::new(1));
    for _ in 0..50 {
        input.send(source.next_packet()).expect("proxy accepts packets");
    }
    println!("configured filters: {:?}", proxy.filter_names("audio")?);

    // 3. The wireless link is getting lossy: splice an FEC(6,4) encoder into
    //    the *running* stream.  The upstream connection is never disturbed.
    proxy.insert_filter(
        "audio",
        0,
        &FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
    )?;
    // ... and a tap after it so we can watch the redundancy flow.
    proxy.insert_filter("audio", 1, &FilterSpec::new("tap").with_param("name", "downlink-tap"))?;
    println!("after splice:       {:?}", proxy.filter_names("audio")?);

    // 4. Another second of audio, now FEC-protected.
    for _ in 0..50 {
        input.send(source.next_packet()).expect("proxy accepts packets");
    }

    // 5. Manage the proxy the way the paper's ControlManager does — over a
    //    text control protocol.
    let mut manager = ControlManager::new(proxy);
    println!("control> query");
    println!("{}", manager.execute_line("query"));
    println!("control> remove stream=audio pos=1");
    println!("{}", manager.execute_line("remove stream=audio pos=1"));
    println!("{}", manager.execute_line("query"));

    // 6. Shut down cleanly and see what made it through.
    input.close();
    let delivered = consumer.join().expect("consumer thread");
    let sources = delivered.iter().filter(|p| p.kind().is_payload()).count();
    let parities = delivered.iter().filter(|p| p.kind().is_parity()).count();
    println!("delivered {sources} audio packets and {parities} parity packets");
    manager.proxy_mut().shutdown()?;
    Ok(())
}
