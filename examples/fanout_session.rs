//! One session, heterogeneous receivers: a lossy WLAN lane gains FEC while
//! its wired siblings carry the raw stream untouched.
//!
//! This is the repository's flagship workload.  A fanout session owns one
//! upstream source and a shared head chain; each receiver gets its own
//! *lane* — a private tail chain plus its own adaptation loop.  The head
//! stage's work is done once no matter how many receivers are attached
//! (payloads fan out as `Arc`-backed clones), and per-receiver adaptations
//! land only on the lane that needs them.
//!
//! Run with `cargo run --release -p rapidware --example fanout_session`.

use rapidware::engine::{ScenarioEngine, ScenarioSpec};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::Proxy;

fn main() {
    // Part 1 — the mechanics, on a live proxy session: zero-copy fanout
    // and per-lane endpoints.
    let mut proxy = Proxy::new("edge");
    let input = proxy.add_session_pooled("demo", 128, 32).expect("unique session name");
    let session = proxy.pooled_session("demo").expect("just added");
    let wired = session.add_lane("wired").expect("unique lane names");
    let wlan = session.add_lane("wlan").expect("unique lane names");
    input
        .send(Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![7u8; 64]))
        .expect("session accepts packets");
    let at_wired = wired.recv().expect("wired lane delivers");
    let at_wlan = wlan.recv().expect("wlan lane delivers");
    println!(
        "zero-copy fanout: both lanes share one payload allocation: {}",
        at_wired.shares_payload_with(&at_wlan)
    );
    proxy.shutdown().expect("clean shutdown");

    // Part 2 — the closed loop, end to end: one lossy WLAN receiver among
    // three wired peers, each lane running its own observer/responder
    // loop.  Loss rises on the WLAN lane mid-run; FEC appears there — and
    // only there — then disappears after the link recovers.
    let spec = ScenarioSpec::wired_plus_lossy_wlan();
    let outcome = ScenarioEngine::new(spec.clone()).run_sync();
    println!("\n{}", outcome.report);

    println!("adaptation timeline of the lossy lane:");
    for entry in &outcome.report.lanes[0].timeline {
        println!("  {entry}");
    }

    let problems = outcome.health_problems(&spec);
    assert!(problems.is_empty(), "unhealthy run: {problems:?}");
    assert!(
        outcome.report.lanes[1..].iter().all(|lane| lane.parity_sent == 0),
        "wired lanes must never carry parity"
    );
    println!("\nhealthy: FEC rode only the lossy lane; every non-lost packet was delivered");
}
