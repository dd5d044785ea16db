//! The multicast-tree soak: a **thousand receivers** behind one source,
//! crossing the three subsystems the repo grew separately — fanout
//! sessions, the sharded pooled runtime, and real UDP — in one bounded
//! test.
//!
//! ```text
//!   source ─▶ root session (10 branch lanes)      ── pooled runtime
//!                │ … per branch …
//!                ▼
//!        UDP bridge (loopback hop into a carrier)  ── transport
//!                ▼
//!        tier-2 session (100 leaf lanes)           ── pooled runtime
//!                ▼
//!        10 × 100 = 1000 leaf receivers
//! ```
//!
//! The claims, all inside one watchdog:
//!
//! * every one of the 1000 leaves receives **every** source packet, in
//!   order (the tree is lossless end to end, across two fanout hops and a
//!   real socket hop);
//! * per-leaf conservation holds from independent counters
//!   (`sent == delivered + lost + undelivered` with `lost == 0`);
//! * the whole tree — 1 root + 10 tier-2 sessions, 1010 lanes, 10 bridge
//!   carriers, ~1050 pool tasks — runs on **one** fixed 4-worker runtime,
//!   and shuts down with **zero** leaked tasks.

mod common;

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use rapidware::packet::StreamId;
use rapidware::proxy::{Proxy, SharedUdpSessionConfig, UdpCarrierConfig};
use rapidware::runtime::RuntimeConfig;
use rapidware::streams::TryRecvError;
use rapidware::transport::stream_fin_packet;

use common::{assert_conservation, audio_packet, send_encoded, watchdog};

const BRANCHES: usize = 10;
const LEAVES_PER_BRANCH: usize = 100; // 10 × 100 = 1000 receivers
const PACKETS: u64 = 200;
const BATCH_SIZE: usize = 16;
const TREE_WALL_CLOCK: Duration = Duration::from_secs(240);

#[test]
fn a_thousand_leaf_multicast_tree_delivers_everything_over_udp_bridges() {
    watchdog("multicast-tree-soak", TREE_WALL_CLOCK, || {
        let mut proxy = Proxy::with_runtime("tree", RuntimeConfig::new(4, BATCH_SIZE));
        let runtime = Arc::clone(proxy.runtime().expect("the proxy was built with a runtime"));

        // Tier 2 first: each branch gets its own bridge carrier (a
        // dedicated socket: one route), a pooled session fed straight from
        // it — no egress lanes, the leaves read their lane pipes — and 100
        // leaf lanes.  The bridge's FIN closes the route and with it the
        // session input.
        let mut tier2 = Vec::with_capacity(BRANCHES);
        for branch in 0..BRANCHES {
            let bridge = format!("bridge-{branch}");
            let carrier = proxy.add_udp_carrier(&bridge, UdpCarrierConfig::new()).unwrap();
            let name = format!("tier2-{branch}");
            proxy
                .add_session_udp_shared(
                    &name,
                    SharedUdpSessionConfig::on_carrier(&bridge)
                        .with_stream(StreamId::new(1))
                        .with_batch_size(BATCH_SIZE),
                )
                .unwrap();
            let session = proxy.pooled_session(&name).expect("just placed");
            let leaves: Vec<_> = (0..LEAVES_PER_BRANCH)
                .map(|leaf| {
                    let leaf = format!("leaf-{leaf}");
                    let rx = session.add_lane(&leaf).expect("fresh tier-2 session");
                    (leaf, rx)
                })
                .collect();
            tier2.push((name, leaves, carrier));
        }

        // The root: one pooled session whose 10 branch lanes each feed a
        // UDP bridge to a tier-2 carrier.
        let input = proxy.add_session_pooled("root", 256, BATCH_SIZE).unwrap();
        let mut bridges = Vec::with_capacity(BRANCHES);
        for (branch, (_, _, carrier)) in tier2.iter().enumerate() {
            let peer = carrier.ingress_addr();
            let rx = proxy
                .pooled_session("root")
                .expect("just placed")
                .add_lane(format!("branch-{branch}"))
                .expect("fresh root session");
            bridges.push(std::thread::spawn(move || {
                let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
                let mut relayed = 0u64;
                while let Ok(packet) = rx.recv() {
                    send_encoded(&socket, peer, &packet);
                    relayed += 1;
                }
                // Lane EOF: tell the far carrier the stream is over.
                send_encoded(&socket, peer, &stream_fin_packet(StreamId::new(1)));
                relayed
            }));
        }

        // Leaf collectors: one thread per branch sweeps its 100 leaf
        // endpoints non-blockingly until every one reports EOF, checking
        // order as it goes.
        let collectors: Vec<_> = tier2
            .iter()
            .map(|(_, leaves, _)| {
                let endpoints: Vec<_> =
                    leaves.iter().map(|(name, rx)| (name.clone(), rx.clone())).collect();
                std::thread::spawn(move || {
                    let mut delivered = vec![0u64; endpoints.len()];
                    let mut next_expected = vec![0u64; endpoints.len()];
                    let mut open = vec![true; endpoints.len()];
                    let mut remaining = endpoints.len();
                    while remaining > 0 {
                        let mut progressed = false;
                        for (index, (name, rx)) in endpoints.iter().enumerate() {
                            if !open[index] {
                                continue;
                            }
                            loop {
                                match rx.try_recv_up_to(BATCH_SIZE) {
                                    Ok(batch) => {
                                        for packet in &batch {
                                            assert_eq!(
                                                packet.seq().value(),
                                                next_expected[index],
                                                "{name}: leaf delivered out of order"
                                            );
                                            next_expected[index] += 1;
                                        }
                                        delivered[index] += batch.len() as u64;
                                        progressed = true;
                                    }
                                    Err(TryRecvError::Empty) => break,
                                    Err(_) => {
                                        open[index] = false;
                                        remaining -= 1;
                                        break;
                                    }
                                }
                            }
                        }
                        if !progressed {
                            std::thread::yield_now();
                        }
                    }
                    delivered
                })
            })
            .collect();

        // Drive the source and end the stream.
        for seq in 0..PACKETS {
            input.send(audio_packet(seq, 64)).expect("root input stays open");
        }
        input.close();

        // Every branch bridge must have relayed the full stream.
        for (branch, bridge) in bridges.into_iter().enumerate() {
            let relayed = bridge.join().expect("bridge thread must not panic");
            assert_eq!(relayed, PACKETS, "branch {branch}: the UDP bridge lost traffic");
        }

        // Every leaf, in every branch: full delivery and conservation.
        let mut total_delivered = 0u64;
        for ((session_name, leaves, carrier), collector) in tier2.iter().zip(collectors) {
            let delivered = collector.join().expect("collector must not panic");
            let session = proxy.pooled_session(session_name).expect("tier-2 session");
            for ((name, rx), count) in leaves.iter().zip(delivered) {
                assert_eq!(
                    count,
                    PACKETS,
                    "{session_name}/{name}: a leaf missed part of the stream"
                );
                let stats = session.lane_stats(name).expect("leaf stats");
                assert_conservation(
                    &format!("{session_name}/{name}"),
                    stats.packets_in,
                    count,
                    stats.packets_in - stats.packets_out,
                    rx.available() as u64,
                );
                assert_eq!(stats.packets_in - stats.packets_out, 0, "lossless tree");
                total_delivered += count;
            }
            assert_eq!(
                carrier.ingress_stats().rx_packets(),
                PACKETS,
                "bridge hop dropped datagrams"
            );
            assert_eq!(carrier.ingress_stats().dropped(), 0, "bridge carrier shed frames");
        }
        assert_eq!(
            total_delivered,
            PACKETS * (BRANCHES * LEAVES_PER_BRANCH) as u64,
            "1000 leaves × {PACKETS} packets"
        );

        // Teardown: the whole tree folds back into an empty pool.
        proxy.shutdown().expect("the tree shuts down cleanly");
        assert_eq!(runtime.live_tasks(), 0, "the multicast tree leaked pool tasks");
    });
}
