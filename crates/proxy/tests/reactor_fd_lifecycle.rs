//! The carrier's registration and file-descriptor lifecycle.
//!
//! One test, alone in its own binary on purpose: it counts the entries of
//! `/proc/self/fd`, which is process-wide, so it cannot share a process
//! with tests that open sockets of their own.

use std::net::UdpSocket;

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{Proxy, RuntimeConfig, UdpCarrierConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

/// Open timer fds: a timerfd's `/proc/self/fd` link reads
/// `anon_inode:[timerfd]`.
fn open_timers() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().contains("timerfd"))
        .count()
}

#[test]
fn reactor_cycles_leak_no_fd_and_deregister_at_once() {
    let sender = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
    let frame = Packet::new(StreamId::new(9), SeqNo::new(0), PacketKind::AudioData, vec![0; 8])
        .encode();
    let before = open_fds();
    let timers_before = open_timers();
    for _ in 0..200 {
        let mut proxy = Proxy::with_runtime("fd-lifecycle", RuntimeConfig::new(2, 8));
        let runtime = proxy.runtime().cloned().expect("with_runtime starts a pool");
        let a = proxy.add_udp_carrier("a", UdpCarrierConfig::new()).unwrap().ingress_addr();
        proxy.add_udp_carrier("b", UdpCarrierConfig::new()).unwrap();
        // Per carrier one socket, shared by its ingress and egress, and its
        // task's timer; plus the pool's epoll fd and eventfd.
        assert_eq!(open_fds(), before + 2 * 2 + 2);
        assert_eq!(open_timers(), timers_before + 2, "one timer per carrier");
        assert_eq!(runtime.reactor_sockets(), 2);
        // A burst the carrier may answer with a deferral, so a timer can be
        // armed (or pending) when the carrier goes.
        for _ in 0..8 {
            sender.send_to(&frame, a).expect("loopback send");
        }
        proxy.shutdown().unwrap();
        assert_eq!(runtime.reactor_sockets(), 0, "deregistered when shutdown returns");
        // The carriers' sockets and timers are closed when shutdown
        // returns; the pool's two fds go with its last handle.
        assert_eq!(open_fds(), before + 2);
        assert_eq!(open_timers(), timers_before, "no timer outlives its carrier");
        drop(runtime);
        assert_eq!(open_fds(), before);
    }
}
