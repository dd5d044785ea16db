//! The carrier's registration and file-descriptor lifecycle.
//!
//! One test, alone in its own binary on purpose: it counts the entries of
//! `/proc/self/fd`, which is process-wide, so it cannot share a process
//! with tests that open sockets of their own.

use rapidware_proxy::{Proxy, RuntimeConfig, UdpCarrierConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn reactor_cycles_leak_no_fd_and_deregister_at_once() {
    let before = open_fds();
    for _ in 0..200 {
        let mut proxy = Proxy::with_runtime("fd-lifecycle", RuntimeConfig::new(2, 8));
        let runtime = proxy.runtime().cloned().expect("with_runtime starts a pool");
        proxy.add_udp_carrier("a", UdpCarrierConfig::new()).unwrap();
        proxy.add_udp_carrier("b", UdpCarrierConfig::new()).unwrap();
        // Per carrier one socket, shared by its ingress and egress, plus
        // the pool's epoll fd and eventfd.
        assert_eq!(open_fds(), before + 2 + 2);
        assert_eq!(runtime.reactor_sockets(), 2);
        proxy.shutdown().unwrap();
        assert_eq!(runtime.reactor_sockets(), 0, "deregistered when shutdown returns");
        // The carriers' sockets are closed when shutdown returns; the
        // pool's two fds go with its last handle.
        assert_eq!(open_fds(), before + 2);
        drop(runtime);
        assert_eq!(open_fds(), before);
    }
}
