//! A Pavilion-style collaborative browsing session over heterogeneous
//! devices.
//!
//! The leader (a wired workstation) browses; every page she loads is
//! multicast to the group.  The wireless laptop gets the stream through a
//! proxy that adds FEC; the memory-limited palmtop additionally gets a
//! transcoded stream and a proxy-side cache.  Mid-session the floor passes
//! to another participant, exactly as Pavilion's leadership protocol allows.
//!
//! Run with:
//!
//! ```text
//! cargo run --example collaborative_browsing
//! ```

use rapidware::pavilion::{BrowsingWorkload, CollaborativeSession, DeviceProfile, ResourceCache};
use rapidware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The session and its heterogeneous participants.
    let mut session = CollaborativeSession::new("systems-lecture");
    let alice = session.join("alice (workstation)", DeviceProfile::workstation());
    let bob = session.join("bob (wireless laptop)", DeviceProfile::wireless_laptop());
    let carol = session.join("carol (palmtop)", DeviceProfile::wireless_palmtop());
    println!("session '{}' with {} members", session.name(), session.members().len());
    println!("leader: {:?}", session.leader());
    println!("members needing a proxy: {:?}\n", session.members_needing_proxies());

    // 2. One proxy per constrained member, each configured from the member's
    //    device profile using the composable filter framework.
    let mut proxy = Proxy::new("session-proxy");
    let (laptop_in, laptop_out) = proxy.add_stream_pooled("laptop")?;
    let (palmtop_in, palmtop_out) = proxy.add_stream_pooled("palmtop")?;
    // Bob's wireless laptop: protect the multicast with FEC.
    proxy.insert_filter("laptop", 0, &FilterSpec::new("fec-encoder"))?;
    // Carol's palmtop: compress and scramble (her link crosses a public AP),
    // plus FEC — all composed dynamically from the same filter library.
    proxy.insert_filter("palmtop", 0, &FilterSpec::new("compressor"))?;
    proxy.insert_filter("palmtop", 1, &FilterSpec::new("scrambler").with_param("key", "77"))?;
    proxy.insert_filter("palmtop", 2, &FilterSpec::new("fec-encoder"))?;
    println!("laptop  proxy chain: {:?}", proxy.filter_names("laptop")?);
    println!("palmtop proxy chain: {:?}\n", proxy.filter_names("palmtop")?);

    let laptop_drain = std::thread::spawn(move || {
        let mut count = 0u64;
        let mut bytes = 0u64;
        while let Ok(packet) = laptop_out.recv() {
            count += 1;
            bytes += packet.payload_len() as u64;
        }
        (count, bytes)
    });
    let palmtop_drain = std::thread::spawn(move || {
        let mut count = 0u64;
        let mut bytes = 0u64;
        while let Ok(packet) = palmtop_out.recv() {
            count += 1;
            bytes += packet.payload_len() as u64;
        }
        (count, bytes)
    });

    // 3. The leader browses; the palmtop's proxy cache absorbs revisits.
    let mut workload = BrowsingWorkload::new(StreamId::new(42), 1_400);
    let mut palmtop_cache = ResourceCache::for_device_memory_kb(2_048);
    let pages = [
        "http://www.cse.msu.edu/rapidware/index.html",
        "http://www.cse.msu.edu/rapidware/figures/proxy.png",
        "http://www.cse.msu.edu/pavilion/lecture1.html",
        "http://www.cse.msu.edu/rapidware/index.html", // revisit: cache hit
        "http://www.cse.msu.edu/pavilion/images/topology.jpg",
    ];
    for (index, url) in pages.iter().enumerate() {
        let timestamp = index as u64 * 5_000_000;
        let (resource, packets) = workload.load_url(url, timestamp);
        let cached = palmtop_cache.lookup(url).is_some();
        if !cached {
            palmtop_cache.insert(url, resource.size);
        }
        println!(
            "leader loads {url} ({} bytes, {}) -> {} packets{}",
            resource.size,
            resource.content_type,
            packets.len(),
            if cached { " [palmtop served from proxy cache]" } else { "" }
        );
        for packet in packets {
            laptop_in.send(packet.clone()).expect("laptop stream accepts packets");
            if !cached {
                palmtop_in.send(packet).expect("palmtop stream accepts packets");
            }
        }
    }

    // 4. Floor control: alice hands the floor to bob.
    session.request_floor(bob)?;
    session.request_floor(carol)?;
    let new_leader = session.release_floor(alice)?;
    println!("\nfloor passed to {:?}; queue now {:?}", new_leader, session.floor_queue());

    // 5. Wrap up and report.
    laptop_in.close();
    palmtop_in.close();
    let (laptop_packets, laptop_bytes) = laptop_drain.join().expect("laptop drain");
    let (palmtop_packets, palmtop_bytes) = palmtop_drain.join().expect("palmtop drain");
    println!("\nlaptop  received {laptop_packets} packets / {laptop_bytes} bytes (incl. parity)");
    println!("palmtop received {palmtop_packets} packets / {palmtop_bytes} bytes (compressed + parity)");
    let cache_stats = palmtop_cache.stats();
    println!(
        "palmtop proxy cache: {} hits, {} misses, {:.0}% hit ratio, {} bytes used",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_ratio() * 100.0,
        cache_stats.used_bytes
    );
    proxy.shutdown()?;
    Ok(())
}
