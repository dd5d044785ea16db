//! The reactor's registration and file-descriptor lifecycle.
//!
//! One test, alone in its own binary on purpose: it counts the entries of
//! `/proc/self/fd`, which is process-wide, so it cannot share a process
//! with tests that open sockets of their own.

use std::net::UdpSocket;
use std::sync::Arc;

use rapidware_proxy::runtime::{
    Runtime, RuntimeConfig, SocketInterest, SocketStep, SocketWork,
};

struct IdleWork;

impl SocketWork for IdleWork {
    fn service(&self) -> SocketStep {
        SocketStep::Idle
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn reactor_cycles_leak_no_fd_and_deregister_at_once() {
    let before = open_fds();
    for _ in 0..200 {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        // A carrier's two halves: one port, one fd each.
        let read_half = Arc::new(UdpSocket::bind("127.0.0.1:0").unwrap());
        let write_half = Arc::new(read_half.try_clone().unwrap());
        let ingress = runtime.drive_socket(read_half, SocketInterest::Readable, Arc::new(IdleWork));
        let egress = runtime.drive_socket(write_half, SocketInterest::Writable, Arc::new(IdleWork));
        assert_eq!(runtime.reactor_sockets(), 2);
        ingress.shutdown().unwrap();
        assert_eq!(runtime.reactor_sockets(), 1, "deregistered when shutdown returns");
        egress.shutdown().unwrap();
        assert_eq!(runtime.reactor_sockets(), 0);
        assert!(ingress.is_done() && egress.is_done());
        runtime.shutdown().unwrap();
    }
    // Sockets, both clones, the epoll fd and the eventfd of every cycle
    // are closed again.
    assert_eq!(open_fds(), before);
}
