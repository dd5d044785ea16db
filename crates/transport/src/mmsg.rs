//! Batched sends: a safe [`SendBatch`] over Linux `sendmmsg(2)` and UDP
//! segmentation offload (`UDP_SEGMENT`, `udp(7)`).
//!
//! A loopback (or any) `sendto` pays the whole kernel send path — and on
//! loopback the receive path and the peer's wake-up too — once per
//! datagram.  This module lets an egress pay it once per *pass*: the
//! caller lays its encoded frames end to end in one arena, describes them
//! as [`Message`]s, and [`SendBatch::send`] hands all of them to the
//! kernel in one crossing.  A message whose `segment` is shorter than its
//! `len` additionally asks the kernel to cut it into `segment`-byte
//! datagrams (the last may be shorter), so a run of equal-length frames to
//! one peer traverses the stack as a single packet and is split at the far
//! end of it.
//!
//! `std` has no form of either, but it links the C library, so one
//! hand-declared `extern "C"` item is enough (the offline build bakes in
//! no `libc` crate).  The contracts relied on, from the man pages:
//!
//! * `sendmmsg(sockfd, *msgvec, vlen, flags) -> n` — sends up to `vlen`
//!   (capped at 1024) messages in order, each exactly as `sendmsg(2)`
//!   would, and returns how many were sent, updating `msg_len` of those.
//!   It stops at the first message that fails: if any was sent before it
//!   the call still succeeds with that count and the error is *lost* — the
//!   caller learns it by calling again with the failed message first, when
//!   the result is `-1` + `errno`.  On a non-blocking socket a full send
//!   buffer is `EAGAIN`.  The kernel reads the headers, names, iovecs,
//!   control buffers and payload during the call and keeps no pointer.
//! * `struct msghdr` / `mmsghdr` / `iovec` / `cmsghdr` — declared below
//!   with the layouts of the C library on Linux (`repr(C)`, `size_t` and
//!   pointers as `usize`-wide fields); the sizes are asserted at compile
//!   time for the generic LP64 ABI (x86-64, aarch64, riscv64, …).
//! * `msg_name` points at a `sockaddr_in` (16 bytes: family, big-endian
//!   port, address, zero padding) or `sockaddr_in6` (28 bytes: family,
//!   big-endian port, flow info, address, scope id); the kernel copies
//!   `msg_namelen` bytes, so the buffer needs no particular alignment.
//! * `UDP_SEGMENT` as a control message (`cmsg_level = SOL_UDP`,
//!   `cmsg_type = UDP_SEGMENT`, a `u16` segment size, `cmsg_len =
//!   CMSG_LEN(2)`) applies to that one message.  The kernel refuses it
//!   with `EINVAL` when a segment plus headers exceeds the route's MTU,
//!   when there are more than 64 segments (`UDP_MAX_SEGMENTS` on the
//!   oldest kernels that have the option) or checksums are disabled, with
//!   `EIO` where a transform sits on the route, and with
//!   `EOPNOTSUPP`/`ENOPROTOOPT` where the option does not exist
//!   ([`refuses_segmentation`]).  A message whose payload is not longer
//!   than `segment` is sent as one plain datagram, but is *still* held to
//!   the MTU rule — which is why single frames carry no control header.
//!
//! # Safety
//!
//! With [`poller`](crate::Poller) this is the crate's only `unsafe` code,
//! and it is one foreign call.  What that call needs, and where it is
//! established:
//!
//! * every payload pointer is taken from a bounds-checked sub-slice of the
//!   caller's `arena`, which is borrowed for the whole call;
//! * every name, iovec and control pointer is taken from a vector owned by
//!   the [`SendBatch`] *after* its last push, so none can dangle through a
//!   reallocation, and `vlen` is the length of the header vector;
//! * both vectors are emptied before `send` returns, so between calls a
//!   `SendBatch` holds no pointer at all (which is what makes it `Send`).
//!
//! Nothing a caller of the safe API can pass — a range outside the arena,
//! a zero segment size, a thousand messages — reaches the kernel: ranges
//! and sizes are checked with `assert!`, and whatever the kernel makes of
//! the rest comes back as an [`io::Error`].
#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;

use crate::MAX_DATAGRAM_LEN;

// Values of the generic Linux ABI.
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const EIO: i32 = 5;
const EINVAL: i32 = 22;
const ENOPROTOOPT: i32 = 92;
const EOPNOTSUPP: i32 = 95;

/// Most datagrams one message may be cut into: `UDP_MAX_SEGMENTS` of the
/// first kernels with `UDP_SEGMENT` (later ones allow 128).
pub(crate) const MAX_SEGMENTS: usize = 64;

/// One message of a batch: `len` bytes of the arena from `start`, sent to
/// `peer` as datagrams of `segment` bytes each (the last takes what is
/// left).  `segment == len` is a plain datagram.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Message {
    pub(crate) peer: SocketAddr,
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) segment: usize,
}

impl Message {
    /// How many datagrams this message puts on the wire.
    pub(crate) fn segments(&self) -> usize {
        self.len.div_ceil(self.segment)
    }
}

/// `true` for the errors with which the kernel turns down a segmented
/// message that it would have sent as separate datagrams.
pub(crate) fn refuses_segmentation(err: &io::Error) -> bool {
    matches!(
        err.raw_os_error(),
        Some(EINVAL | EIO | EOPNOTSUPP | ENOPROTOOPT)
    )
}

/// `struct sockaddr_in` / `sockaddr_in6` in one buffer: both start with
/// the family and the big-endian port.
#[repr(C)]
struct SockAddr {
    family: u16,
    port: [u8; 2],
    /// v4: address, 8 zero bytes.  v6: flow info, address, scope id.
    rest: [u8; 24],
}

impl SockAddr {
    /// The encoded address and the `msg_namelen` that goes with it.
    fn encode(peer: SocketAddr) -> (Self, u32) {
        let mut rest = [0u8; 24];
        let (family, len) = match peer {
            SocketAddr::V4(v4) => {
                rest[..4].copy_from_slice(&v4.ip().octets());
                (AF_INET, 16)
            }
            SocketAddr::V6(v6) => {
                // Host order, as `std` passes both to the C library.
                rest[..4].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                rest[4..20].copy_from_slice(&v6.ip().octets());
                rest[20..].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (AF_INET6, 28)
            }
        };
        let addr = Self {
            family,
            port: peer.port().to_be_bytes(),
            rest,
        };
        (addr, len)
    }
}

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

/// `CMSG_LEN(2)`: a `struct cmsghdr` plus a `u16`, without the padding.
const CMSG_LEN: usize = std::mem::size_of::<usize>() + 2 * std::mem::size_of::<i32>() + 2;

/// A `struct cmsghdr` with its `u16` payload, padded to `CMSG_SPACE(2)`.
#[repr(C)]
struct SegmentControl {
    len: usize,
    level: i32,
    kind: i32,
    segment: u16,
    pad: [u8; 6],
}

/// `struct msghdr`; `repr(C)` inserts the C library's padding.
#[repr(C)]
struct MsgHdr {
    name: *const SockAddr,
    namelen: u32,
    iov: *const IoVec,
    iovlen: usize,
    control: *const SegmentControl,
    controllen: usize,
    flags: i32,
}

/// `struct mmsghdr`.
#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    /// Written by the kernel: bytes sent for this message.
    sent: u32,
}

#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(std::mem::size_of::<SockAddr>() == 28);
    assert!(std::mem::size_of::<IoVec>() == 16);
    assert!(std::mem::size_of::<SegmentControl>() == 24);
    assert!(std::mem::size_of::<MsgHdr>() == 56);
    assert!(std::mem::size_of::<MMsgHdr>() == 64);
};

extern "C" {
    // From the C library std already links.
    fn sendmmsg(sockfd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
}

/// What one message's header points at: its name, its one iovec and its
/// control buffer (referenced only when the message is segmented).
struct Parts {
    name: SockAddr,
    namelen: u32,
    iov: IoVec,
    control: SegmentControl,
}

/// The reusable tables of a `sendmmsg` call: one header per message and
/// the parts it points at.  Empty between calls.
#[derive(Default)]
pub(crate) struct SendBatch {
    parts: Vec<Parts>,
    headers: Vec<MMsgHdr>,
}

// SAFETY: the raw pointers in `parts` (the iovec bases) and `headers`
// exist only inside `send`, which empties both vectors before it returns;
// everything else in them is plain bytes.  A `SendBatch` that can be
// observed from another thread therefore owns two empty vectors and
// nothing else.
unsafe impl Send for SendBatch {}

impl SendBatch {
    /// Offers `messages` — ranges of `arena` — to the kernel in one
    /// `sendmmsg` and returns how many of them, from the front, it sent.
    ///
    /// # Errors
    ///
    /// The `errno` of the *first* message when not even that one was sent
    /// (`WouldBlock` for a full send buffer); an error behind an accepted
    /// message shows up when the rest is offered again.
    ///
    /// # Panics
    ///
    /// Panics if a message lies outside `arena` or has a zero `segment`.
    pub(crate) fn send(
        &mut self,
        socket: &UdpSocket,
        arena: &[u8],
        messages: &[Message],
    ) -> io::Result<usize> {
        if messages.is_empty() {
            return Ok(0);
        }
        // A panic below may have left entries (and their pointers) behind.
        self.clear();
        for message in messages {
            assert!(message.segment > 0, "a message needs a segment size");
            let payload = &arena[message.start..][..message.len];
            let (name, namelen) = SockAddr::encode(message.peer);
            self.parts.push(Parts {
                name,
                namelen,
                iov: IoVec {
                    base: payload.as_ptr(),
                    len: payload.len(),
                },
                control: SegmentControl {
                    len: CMSG_LEN,
                    level: SOL_UDP,
                    kind: UDP_SEGMENT,
                    // Any UDP payload length fits; a message with longer
                    // segments is refused for its length whatever this says.
                    segment: message.segment.min(MAX_DATAGRAM_LEN) as u16,
                    pad: [0; 6],
                },
            });
        }
        // Pointers into `parts` are taken only now that it has stopped
        // growing.
        for (parts, message) in self.parts.iter().zip(messages) {
            let segmented = message.len > message.segment;
            self.headers.push(MMsgHdr {
                hdr: MsgHdr {
                    name: &parts.name,
                    namelen: parts.namelen,
                    iov: &parts.iov,
                    iovlen: 1,
                    control: if segmented { &parts.control } else { std::ptr::null() },
                    controllen: if segmented { std::mem::size_of::<SegmentControl>() } else { 0 },
                    flags: 0,
                },
                sent: 0,
            });
        }
        let vlen = u32::try_from(self.headers.len()).unwrap_or(u32::MAX);
        // SAFETY: `headers` holds at least `vlen` entries.  Each points at
        // the name, the iovec and (when segmented) the control buffer of
        // one entry of `parts`, which was not touched since the pointers
        // were taken, each with its own length next to it; each iovec
        // covers a sub-slice of `arena`, which is borrowed until this
        // function returns.  The kernel keeps no pointer past the call,
        // and a wrong socket or address is an `errno`.
        let sent = unsafe { sendmmsg(socket.as_raw_fd(), self.headers.as_mut_ptr(), vlen, 0) };
        // Captured before anything else can overwrite `errno`.
        let result = if sent < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(sent as usize)
        };
        self.clear();
        result
    }

    fn clear(&mut self) {
        self.headers.clear();
        self.parts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv6Addr, SocketAddrV6};
    use std::time::Duration;

    fn receiver() -> UdpSocket {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
        socket
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        socket
    }

    fn recv(socket: &UdpSocket) -> Vec<u8> {
        let mut buf = vec![0u8; 65_536];
        let len = socket.recv(&mut buf).expect("a datagram within the timeout");
        buf.truncate(len);
        buf
    }

    #[test]
    fn one_call_sends_plain_and_segmented_messages_to_their_peers() {
        let (a, b) = (receiver(), receiver());
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let arena: Vec<u8> = (0..=255u8).cycle().take(100 + 250 + 40).collect();
        let messages = [
            Message {
                peer: a.local_addr().unwrap(),
                start: 0,
                len: 100,
                segment: 100,
            },
            // Three datagrams: 100, 100 and a shorter last one of 50.
            Message {
                peer: b.local_addr().unwrap(),
                start: 100,
                len: 250,
                segment: 100,
            },
            Message {
                peer: a.local_addr().unwrap(),
                start: 350,
                len: 40,
                segment: 40,
            },
        ];
        assert_eq!(messages[1].segments(), 3);
        let mut batch = SendBatch::default();
        assert_eq!(batch.send(&tx, &arena, &messages).unwrap(), 3);
        assert_eq!(recv(&a), &arena[..100]);
        assert_eq!(recv(&a), &arena[350..]);
        assert_eq!(recv(&b), &arena[100..200]);
        assert_eq!(recv(&b), &arena[200..300]);
        assert_eq!(recv(&b), &arena[300..350]);
        // The tables are empty again, and the batch is reusable.
        assert!(batch.headers.is_empty() && batch.parts.is_empty());
        assert_eq!(batch.send(&tx, &arena, &messages[..1]).unwrap(), 1);
        assert_eq!(recv(&a), &arena[..100]);
        assert_eq!(batch.send(&tx, &arena, &[]).unwrap(), 0);
    }

    #[test]
    fn more_than_the_segment_limit_is_refused_not_truncated() {
        let rx = receiver();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // 129 segments: over `UDP_MAX_SEGMENTS` of every kernel so far.
        let arena = vec![7u8; 129 * 8];
        let message = Message {
            peer: rx.local_addr().unwrap(),
            start: 0,
            len: arena.len(),
            segment: 8,
        };
        let err = SendBatch::default().send(&tx, &arena, &[message]).unwrap_err();
        assert!(refuses_segmentation(&err), "{err}");
    }

    #[test]
    fn an_error_behind_an_accepted_message_is_lost_then_surfaces() {
        let rx = receiver();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let arena = vec![1u8; 16];
        let good = Message {
            peer: rx.local_addr().unwrap(),
            start: 0,
            len: 16,
            segment: 16,
        };
        // An IPv6 peer on an IPv4 socket: EAFNOSUPPORT for that message.
        let bad = Message {
            peer: SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::LOCALHOST, 9, 0, 0)),
            ..good
        };
        let mut batch = SendBatch::default();
        // The error behind an accepted message is lost ...
        assert_eq!(batch.send(&tx, &arena, &[good, bad, good]).unwrap(), 1);
        // ... and surfaces once the failed message comes first.
        let err = batch.send(&tx, &arena, &[bad, good]).unwrap_err();
        assert!(!refuses_segmentation(&err), "{err}");
        assert_ne!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(batch.send(&tx, &arena, &[good]).unwrap(), 1);
        assert_eq!(recv(&rx).len(), 16);
        assert_eq!(recv(&rx).len(), 16);
    }

    #[test]
    fn v6_addresses_encode_like_the_c_library_expects() {
        let Ok(rx) = UdpSocket::bind("[::1]:0") else {
            return; // No IPv6 loopback on this host.
        };
        rx.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let tx = UdpSocket::bind("[::1]:0").unwrap();
        let arena = vec![9u8; 64];
        let message = Message {
            peer: rx.local_addr().unwrap(),
            start: 0,
            len: 64,
            segment: 32,
        };
        assert_eq!(SendBatch::default().send(&tx, &arena, &[message]).unwrap(), 1);
        assert_eq!(recv(&rx), &arena[..32]);
        assert_eq!(recv(&rx), &arena[32..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_message_outside_the_arena_never_reaches_the_kernel() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let message = Message {
            peer: tx.local_addr().unwrap(),
            start: 8,
            len: 16,
            segment: 16,
        };
        let _ = SendBatch::default().send(&tx, &[0u8; 16], &[message]);
    }
}
