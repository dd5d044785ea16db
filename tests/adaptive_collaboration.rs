//! Cross-crate integration test: raplets + proxy + Pavilion session +
//! network simulator working together (the RAPIDware picture of Figure 2).

use rapidware::netsim::{DistanceLossModel, LinearWalk, SimTime, WirelessLan};
use rapidware::pavilion::{BrowsingWorkload, CollaborativeSession, DeviceProfile, ResourceCache};
use rapidware::prelude::*;
use rapidware::raplets::apply_to_proxy;

#[test]
fn session_members_get_proxies_matching_their_devices() {
    let mut session = CollaborativeSession::new("integration");
    session.join("workstation", DeviceProfile::workstation());
    let laptop = session.join("laptop", DeviceProfile::wireless_laptop());
    let palmtop = session.join("palmtop", DeviceProfile::wireless_palmtop());

    // Build one proxy stream per member that needs one, with filters chosen
    // from the device profile.
    let mut proxy = Proxy::new("session-proxy");
    for id in session.members_needing_proxies() {
        let member = session.member(id).unwrap().clone();
        let stream = member.name.clone();
        proxy.add_stream_pooled(stream.clone()).unwrap();
        let mut position = 0;
        if member.device.needs_transcoding() {
            proxy
                .insert_filter(&stream, position, &FilterSpec::new("transcoder"))
                .unwrap();
            position += 1;
        }
        if member.device.wireless {
            proxy
                .insert_filter(&stream, position, &FilterSpec::new("fec-encoder"))
                .unwrap();
        }
    }
    let laptop_name = session.member(laptop).unwrap().name.clone();
    let palmtop_name = session.member(palmtop).unwrap().name.clone();
    assert_eq!(
        proxy.filter_names(&laptop_name).unwrap(),
        vec!["fec-encoder(6,4)"]
    );
    assert_eq!(
        proxy.filter_names(&palmtop_name).unwrap(),
        vec!["transcoder(stereo-to-mono)", "fec-encoder(6,4)"]
    );
    proxy.shutdown().unwrap();
}

#[test]
fn observer_driven_adaptation_follows_a_simulated_walk() {
    // A mobile laptop walks away from the access point while an observer
    // samples the simulated link and a responder reconfigures the live
    // proxy.  By the end of the walk the FEC encoder must be installed; if
    // the user walks back, it must be removed again.
    let mut proxy = Proxy::new("adaptive");
    let (_input, _output) = proxy.add_stream_pooled("audio").unwrap();
    let mut engine = AdaptationEngine::new();
    engine.add_observer(Box::new(LossRateObserver::paper_default()));
    engine.add_responder(Box::new(FecResponder::paper_default()));

    let mut lan = WirelessLan::wavelan_2mbps(77);
    let walk = LinearWalk::new(5.0, 45.0, SimTime::from_secs(0), 2.0);
    let receiver = lan.add_mobile_receiver(
        "walker",
        DistanceLossModel::wavelan_2mbps(),
        Box::new(walk),
    );

    let mut installed_during_walk = false;
    for second in 0..40u64 {
        let now = SimTime::from_secs(second);
        let mut sent = 0u64;
        let mut delivered = 0u64;
        for packet_index in 0..50u64 {
            let at = now + packet_index * 20_000;
            sent += 1;
            if lan.broadcast(at, 360)[receiver.index()].is_delivered() {
                delivered += 1;
            }
        }
        let sample = LinkSample::new(now, sent, delivered)
            .with_distance(lan.receiver_distance(receiver, now).unwrap());
        let actions = engine.ingest(&sample);
        apply_to_proxy(&proxy, "audio", &actions).unwrap();
        if proxy
            .filter_names("audio")
            .unwrap()
            .iter()
            .any(|name| name.starts_with("fec-encoder"))
        {
            installed_during_walk = true;
        }
    }
    assert!(
        installed_during_walk,
        "walking to 45 m must trigger FEC insertion"
    );
    assert!(
        !engine.log().is_empty(),
        "the adaptation log must record the events"
    );
    proxy.shutdown().unwrap();
}

#[test]
fn browsing_workload_flows_through_a_proxied_lossy_link() {
    // Leader browsing -> proxy (FEC) -> lossy multicast -> palmtop decoder +
    // cache.  The palmtop should end up with (nearly) every packet despite
    // the loss, and its cache should serve revisits.
    let registry = FilterRegistry::with_builtins();
    let mut sender_chain = FilterChain::new();
    sender_chain
        .push_back(registry.instantiate(&FilterSpec::new("fec-encoder")).unwrap())
        .unwrap();
    let mut decoder_chain = FilterChain::new();
    decoder_chain
        .push_back(registry.instantiate(&FilterSpec::new("fec-decoder")).unwrap())
        .unwrap();

    let mut lan = WirelessLan::wavelan_2mbps(11);
    let palmtop = lan.add_receiver_at_distance("palmtop", 30.0);
    let mut cache = ResourceCache::for_device_memory_kb(2_048);
    let mut workload = BrowsingWorkload::new(StreamId::new(5), 1_200);

    let mut sent_payload = 0u64;
    let mut got_payload = 0u64;
    let urls = [
        "http://example.edu/syllabus.html",
        "http://example.edu/images/diagram.png",
        "http://example.edu/syllabus.html",
    ];
    for (index, url) in urls.iter().enumerate() {
        if cache.lookup(url).is_some() {
            continue; // served locally by the proxy cache
        }
        let (resource, packets) = workload.load_url(url, index as u64 * 1_000_000);
        cache.insert(url, resource.size);
        for packet in packets {
            for out in sender_chain.process(packet).unwrap() {
                if out.kind().is_payload() {
                    sent_payload += 1;
                }
                let delivered =
                    lan.broadcast(SimTime::from_millis(index as u64), out.wire_len())
                        [palmtop.index()]
                    .is_delivered();
                if delivered {
                    for emitted in decoder_chain.process(out.clone()).unwrap() {
                        if emitted.kind().is_payload() {
                            got_payload += 1;
                        }
                    }
                }
            }
        }
    }
    for out in sender_chain.flush().unwrap() {
        if lan.broadcast(SimTime::from_secs(10), out.wire_len())[palmtop.index()].is_delivered() {
            for emitted in decoder_chain.process(out).unwrap() {
                if emitted.kind().is_payload() {
                    got_payload += 1;
                }
            }
        }
    }

    assert!(sent_payload > 50, "the pages are several packets long");
    assert!(
        got_payload as f64 >= sent_payload as f64 * 0.97,
        "FEC keeps the browsing stream nearly complete ({got_payload}/{sent_payload})"
    );
    assert_eq!(cache.stats().hits, 1, "the revisited page hits the cache");
}
