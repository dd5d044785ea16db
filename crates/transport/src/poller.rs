//! Socket readiness: a safe, one-shot [`Poller`] over Linux `epoll(7)`.
//!
//! The endpoints in this crate own no thread and only expose non-blocking
//! batch operations; something has to say *when* a socket is worth
//! servicing.  That something is this module: a driver registers each
//! socket once, blocks in [`Poller::wait`] with **no timeout**, and is
//! woken exactly when a registered socket becomes ready or another thread
//! calls [`Poller::wake`].  An idle set of sockets costs zero wake-ups.
//! A busy driver checks the set in passing with [`Poller::try_wait`],
//! which never blocks.
//!
//! Every registration is **one-shot**: once a socket has been reported it
//! is disarmed, and stays silent — however many datagrams land on it —
//! until [`Poller::arm`] re-arms it.  Re-arming re-polls the socket inside
//! the kernel, so readiness that appeared while the socket was disarmed is
//! reported at once: a consumer that re-arms *after* its drain saw
//! `WouldBlock` can never lose a wake-up, and a consumer that is still
//! draining is never woken a second time.
//!
//! Beside sockets the set holds **timers** ([`Poller::add_timer`]): a
//! `timerfd` the poller makes and owns, registered edge-triggered, so each
//! [`Poller::arm_timer`] that expires is reported exactly once and the fd
//! is never read.  A task that registers its socket and its timer under one
//! payload can leave the socket disarmed and be woken at a deadline
//! instead, with no timer slack and no thread asleep for it.
//!
//! The socket path is therefore **Linux-only**.  `std` has no wait on
//! several sockets, but it links the C library, so six hand-declared
//! `extern "C"` items are enough (the offline build bakes in no `libc`
//! crate).  Their man-page contracts, as relied on here:
//!
//! * `epoll_create1(flags) -> fd` — a new, empty epoll set; `-1` + `errno`
//!   on failure.  `EPOLL_CLOEXEC` keeps the fd out of child processes.
//!   Closing the fd frees the set and every registration in it.
//! * `epoll_ctl(epfd, op, fd, *event) -> 0` — `EPOLL_CTL_ADD` registers
//!   `fd` (`EEXIST` if that fd is already in the set: epoll keys on the fd,
//!   which is why two tasks sharing one socket each need their own
//!   `try_clone()`d fd), `EPOLL_CTL_MOD` replaces its event mask and token
//!   and re-polls it (`ENOENT` if absent), `EPOLL_CTL_DEL` removes it (the
//!   event pointer is ignored).  The kernel copies `*event` before
//!   returning and keeps no pointer.  With `EPOLLONESHOT` in the mask the
//!   registration is disabled after one report — including the
//!   always-implied `EPOLLERR`/`EPOLLHUP` — until the next `MOD`.
//! * `epoll_wait(epfd, *events, maxevents, timeout) -> n` — blocks until
//!   at least one registration is ready (`timeout == -1`: indefinitely;
//!   `0`: not at all, so `n` may be zero),
//!   writes at most `maxevents` (> 0) entries to `events` and returns how
//!   many; `-1` + `EINTR` when a signal interrupted the wait.
//! * `eventfd(initval, flags) -> fd` — a counter fd: a `write` of an
//!   8-byte integer adds to the counter, a `read` returns it in 8 bytes and
//!   resets it, and the fd polls readable while the counter is non-zero.
//!   With `EFD_NONBLOCK` a `read` of a zero counter (or a `write` that
//!   would overflow it) fails with `EAGAIN` instead of blocking.
//! * `timerfd_create(clockid, flags) -> fd` — a timer fd on `clockid`
//!   (`CLOCK_MONOTONIC` here, the clock `std::time::Instant` reads on
//!   Linux), created disarmed; `-1` + `errno` on failure.  `TFD_CLOEXEC`
//!   and `TFD_NONBLOCK` as for the eventfd.  The fd polls readable while
//!   its expiration count is non-zero, and every expiry wakes its pollers.
//! * `timerfd_settime(fd, flags, *new, *old) -> 0` — with `flags == 0`
//!   arms the timer to expire once, `new.it_value` from now (a zero
//!   `it_interval`: no repeat); an all-zero `it_value` *disarms* it
//!   instead, so the shortest delay passed is 1 ns.  Re-arming replaces
//!   the previous setting and resets the expiration count, so a timer that
//!   is never read still wakes its pollers afresh at each new expiry.  The
//!   kernel copies `*new` before returning; `old` may be null.
//!
//! The three kinds of fd are handed to `std` owners straight away
//! (`OwnedFd`, and a `File` for the eventfd so its `read`/`write` are
//! `std`'s), so closing them is `std`'s job and nothing here can leak or
//! double-close one.
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe`, and it uses it
//! for exactly two things:
//!
//! * **the six foreign calls above** — every pointer passed is derived
//!   from a live local or a live slice whose length is the count passed
//!   next to it (or is null where the contract allows it), and the kernel
//!   keeps none of them past the call;
//! * **`from_raw_fd` on the three kinds of fd those calls return** — each
//!   is checked to be non-negative first and wrapped exactly once, so the
//!   wrapper is the fd's only owner.
//!
//! Nothing a caller of the safe API can pass — a socket registered twice,
//! a stale [`Token`], a `wake` racing a `wait` — reaches the kernel as
//! anything worse than an `errno`, and every `errno` comes back as an
//! [`io::Error`].
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "rapidware-transport's socket path is Linux-only: `Poller` wraps epoll(7), eventfd(2) and timerfd_create(2)"
);

use std::collections::HashMap;
use std::ffi::c_long;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

// Values of the generic Linux ABI (x86-64, aarch64, riscv64, …).
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLONESHOT: u32 = 1 << 30;
const EPOLLET: u32 = 1 << 31;
const CLOCK_MONOTONIC: i32 = 1;
const TFD_CLOEXEC: i32 = 0o2_000_000;
const TFD_NONBLOCK: i32 = 0o4_000;

/// `struct epoll_event`.  The kernel ABI packs it on x86-64 (so 32- and
/// 64-bit callers agree on the layout) and nowhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    token: u64,
}

/// `struct timespec`: `time_t` and `long` are both a C `long` on the
/// Linux ABIs listed above.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct itimerspec`.
#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    // From the C library std already links.
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
}

/// Most registrations one [`Poller::wait`] reports; the rest stay ready in
/// the kernel and come back from the next call.
const MAX_EVENTS: usize = 64;

/// The token of the poller's own eventfd.  Socket tokens count up from
/// zero and never reach it.
const WAKER_TOKEN: u64 = u64::MAX;

/// Which readiness a registration is armed for.  Armed for neither, it
/// still reports a socket error once: the kernel always implies
/// `EPOLLERR`/`EPOLLHUP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the socket holds a datagram to receive.
    pub readable: bool,
    /// Report when the socket's send buffer has room again.
    pub writable: bool,
}

impl Interest {
    /// Armed for readability.
    pub const READABLE: Self = Self {
        readable: true,
        writable: false,
    };

    fn event(self, token: u64) -> EpollEvent {
        let mut events = EPOLLONESHOT;
        if self.readable {
            events |= EPOLLIN;
        }
        if self.writable {
            events |= EPOLLOUT;
        }
        EpollEvent { events, token }
    }
}

/// Names one registration of a [`Poller`].  Tokens are never reused, so a
/// stale one is simply unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(u64);

/// What a registration watches, kept open for as long as it is in the set.
enum Source {
    Socket(Arc<UdpSocket>),
    /// A timerfd the poller made: closed when the registration goes.
    Timer(OwnedFd),
}

impl Source {
    fn fd(&self) -> i32 {
        match self {
            Self::Socket(socket) => socket.as_raw_fd(),
            Self::Timer(timer) => timer.as_raw_fd(),
        }
    }
}

struct Entry<T> {
    source: Source,
    payload: T,
}

struct Entries<T> {
    next_token: u64,
    by_token: HashMap<u64, Entry<T>>,
}

/// A one-shot readiness set over UDP sockets and timers, on Linux
/// `epoll(7)`: each registration carries a caller-chosen payload `T` that
/// [`wait`](Self::wait) hands back when its socket or timer fires.  A
/// socket that fired is disarmed until [`arm`](Self::arm) re-arms it, and
/// re-arming re-polls the socket, so a consumer that re-arms after its
/// drain saw `WouldBlock` never loses a wake-up and one that is still
/// draining is never woken twice.  A timer fires once per
/// [`arm_timer`](Self::arm_timer).
///
/// One thread blocks in `wait`; any thread may [`try_wait`](Self::try_wait),
/// [`add`](Self::add), [`add_timer`](Self::add_timer), [`arm`](Self::arm),
/// [`arm_timer`](Self::arm_timer), [`remove`](Self::remove) and
/// [`wake`](Self::wake) concurrently.  Dropping the poller closes its epoll
/// fd and eventfd, and every timer, and releases every socket still
/// registered.
pub struct Poller<T> {
    epoll: OwnedFd,
    waker: File,
    entries: Mutex<Entries<T>>,
}

impl<T> fmt::Debug for Poller<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poller").field("sockets", &self.len()).finish()
    }
}

impl<T> Poller<T> {
    /// Creates an empty set with its wake-up eventfd already registered.
    ///
    /// # Errors
    ///
    /// Whatever `epoll_create1`, `eventfd` or the eventfd's `epoll_ctl`
    /// reports (in practice: the process is out of file descriptors).
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointer arguments; the result is checked below.
        let epoll = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epoll < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `epoll` is a fresh, valid fd nothing else owns.
        let epoll = unsafe { OwnedFd::from_raw_fd(epoll) };
        // SAFETY: no pointer arguments; the result is checked below.
        let waker = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if waker < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `waker` is a fresh, valid fd nothing else owns.
        let waker = unsafe { File::from_raw_fd(waker) };
        let poller = Self {
            epoll,
            waker,
            entries: Mutex::new(Entries {
                next_token: 0,
                by_token: HashMap::new(),
            }),
        };
        // Level-triggered on purpose: the eventfd stays readable until
        // `wait` has drained it, so a wake-up cannot be missed.
        let event = EpollEvent {
            events: EPOLLIN,
            token: WAKER_TOKEN,
        };
        poller.ctl(EPOLL_CTL_ADD, poller.waker.as_raw_fd(), event)?;
        Ok(poller)
    }

    /// Registers `socket`, armed for `interest`, and keeps it open until
    /// the registration is [`remove`](Self::remove)d or the poller drops.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if this very fd is registered already — two users
    /// of one socket each register their own `try_clone()` — or any other
    /// `epoll_ctl` failure.  Nothing is registered on error.
    pub fn add(&self, socket: Arc<UdpSocket>, interest: Interest, payload: T) -> io::Result<Token> {
        let event = |token| interest.event(token);
        self.register(Source::Socket(socket), event, payload)
    }

    /// Registers a new timer, disarmed, whose expiries [`wait`](Self::wait)
    /// reports with `payload`; [`arm_timer`](Self::arm_timer) sets it.
    /// The timer is closed when the registration is
    /// [`remove`](Self::remove)d or the poller drops.
    ///
    /// # Errors
    ///
    /// Whatever `timerfd_create` or `epoll_ctl` reports (in practice: the
    /// process is out of file descriptors).  Nothing is registered on
    /// error.
    pub fn add_timer(&self, payload: T) -> io::Result<Token> {
        // SAFETY: no pointer arguments; the result is checked below.
        let timer = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) };
        if timer < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `timer` is a fresh, valid fd nothing else owns.
        let timer = unsafe { OwnedFd::from_raw_fd(timer) };
        // Edge-triggered, not one-shot: every expiry is one report, and the
        // fd never needs a read or a re-registration.
        let event = |token| EpollEvent {
            events: EPOLLIN | EPOLLET,
            token,
        };
        self.register(Source::Timer(timer), event, payload)
    }

    fn register(
        &self,
        source: Source,
        event: impl FnOnce(u64) -> EpollEvent,
        payload: T,
    ) -> io::Result<Token> {
        let mut entries = self.lock();
        let token = entries.next_token;
        self.ctl(EPOLL_CTL_ADD, source.fd(), event(token))?;
        entries.next_token += 1;
        entries.by_token.insert(token, Entry { source, payload });
        Ok(Token(token))
    }

    /// Re-arms a registration for `interest`, replacing whatever it was
    /// armed for.  Readiness that is already there is reported by the
    /// next [`wait`](Self::wait) at once.
    ///
    /// # Errors
    ///
    /// `NotFound` if `token` is not (or no longer) registered,
    /// `InvalidInput` if it names a timer, or any `epoll_ctl` failure.
    pub fn arm(&self, token: Token, interest: Interest) -> io::Result<()> {
        // The lock is held across the call so the fd cannot be removed,
        // closed and reused under it.
        let entries = self.lock();
        match &Self::entry(&entries, token)?.source {
            Source::Socket(socket) => {
                self.ctl(EPOLL_CTL_MOD, socket.as_raw_fd(), interest.event(token.0))
            }
            Source::Timer(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a timer is armed with arm_timer",
            )),
        }
    }

    /// Sets a timer registration to fire once, `after` from now (a zero
    /// `after` fires at once), replacing whatever it was set to.  The
    /// expiry is reported by one [`wait`](Self::wait) or
    /// [`try_wait`](Self::try_wait), with no timer slack.
    ///
    /// # Errors
    ///
    /// `NotFound` if `token` is not (or no longer) registered,
    /// `InvalidInput` if it names a socket, or any `timerfd_settime`
    /// failure.
    pub fn arm_timer(&self, token: Token, after: Duration) -> io::Result<()> {
        // Held across the call, as in `arm`.
        let entries = self.lock();
        let Source::Timer(timer) = &Self::entry(&entries, token)?.source else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a socket is armed with arm",
            ));
        };
        // An all-zero `it_value` would disarm the timer instead.
        let after = after.max(Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: c_long::try_from(after.as_secs()).unwrap_or(c_long::MAX),
                tv_nsec: c_long::from(after.subsec_nanos()),
            },
        };
        // SAFETY: `spec` is a live local the kernel copies before the call
        // returns, `old` is null (allowed), and the timer fd is owned by
        // its entry, which the held lock keeps in the set.
        if unsafe { timerfd_settime(timer.as_raw_fd(), 0, &spec, std::ptr::null_mut()) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    fn entry(entries: &Entries<T>, token: Token) -> io::Result<&Entry<T>> {
        entries
            .by_token
            .get(&token.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "token is not registered"))
    }

    /// Deregisters `token` and returns its payload, or `None` if it was
    /// not registered.  The socket is released (or the timer closed) either
    /// way.
    ///
    /// # Errors
    ///
    /// Any `epoll_ctl` failure; the registration is forgotten regardless.
    pub fn remove(&self, token: Token) -> io::Result<Option<T>> {
        let mut entries = self.lock();
        let Some(entry) = entries.by_token.remove(&token.0) else {
            return Ok(None);
        };
        // Explicitly, before the fd closes: a `try_clone()`d fd shares its
        // open file with its original, and the kernel only forgets a
        // registration by itself once the *file* is closed.  The kernel
        // ignores the event passed with a delete.
        let event = EpollEvent {
            events: 0,
            token: token.0,
        };
        self.ctl(EPOLL_CTL_DEL, entry.source.fd(), event)?;
        Ok(Some(entry.payload))
    }

    /// Number of sockets currently registered (timers are not counted).
    pub fn len(&self) -> usize {
        let entries = self.lock();
        entries
            .by_token
            .values()
            .filter(|entry| matches!(entry.source, Source::Socket(_)))
            .count()
    }

    /// `true` when no socket is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks — with no timeout — until a registered socket is ready, a
    /// timer expires or [`wake`](Self::wake) is called, appends the payload
    /// of every registration that fired to `ready`, and returns whether a
    /// wake-up was consumed.  Each reported socket is left disarmed.
    ///
    /// # Errors
    ///
    /// Any `epoll_wait` failure other than `EINTR` (which is retried), or
    /// a failed read of the eventfd.
    pub fn wait(&self, ready: &mut Vec<T>) -> io::Result<bool>
    where
        T: Clone,
    {
        let woken = self.collect(ready, -1)?;
        if woken {
            let mut counter = [0u8; 8];
            match (&self.waker).read(&mut counter) {
                Ok(_) => {}
                // Another `wait` got there first.
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
                Err(err) => return Err(err),
            }
        }
        Ok(woken)
    }

    /// The non-blocking [`wait`](Self::wait): appends the payload of every
    /// registration ready right now to `ready` and returns at once.  A
    /// pending wake-up is left for `wait` to consume, so a thread that
    /// checks the set between two pieces of work never steals the wake
    /// meant for the thread blocked in `wait`.
    ///
    /// # Errors
    ///
    /// Any `epoll_wait` failure other than `EINTR` (which is retried).
    pub fn try_wait(&self, ready: &mut Vec<T>) -> io::Result<()>
    where
        T: Clone,
    {
        self.collect(ready, 0).map(drop)
    }

    /// One `epoll_wait` with `timeout_ms` (`-1`: none): appends the payload
    /// of every registration that fired to `ready` and returns whether the
    /// eventfd was among them.
    fn collect(&self, ready: &mut Vec<T>, timeout_ms: i32) -> io::Result<bool>
    where
        T: Clone,
    {
        let mut events = [EpollEvent { events: 0, token: 0 }; MAX_EVENTS];
        let fired = loop {
            // SAFETY: `events` is a live array of MAX_EVENTS entries and
            // that is the capacity passed; the epoll fd is owned by `self`.
            let count = unsafe {
                let epoll = self.epoll.as_raw_fd();
                epoll_wait(epoll, events.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms)
            };
            if count >= 0 {
                break count as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        let mut woken = false;
        let entries = self.lock();
        for event in &events[..fired] {
            let token = event.token;
            if token == WAKER_TOKEN {
                woken = true;
            } else if let Some(entry) = entries.by_token.get(&token) {
                // A miss is an event for a registration removed since.
                ready.push(entry.payload.clone());
            }
        }
        Ok(woken)
    }

    /// Makes the current (or the next) [`wait`](Self::wait) return.
    ///
    /// # Errors
    ///
    /// A failed write to the eventfd.
    pub fn wake(&self) -> io::Result<()> {
        match (&self.waker).write(&1u64.to_ne_bytes()) {
            Ok(_) => Ok(()),
            // The counter is saturated: a wake-up is pending already.
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(err) => Err(err),
        }
    }

    fn ctl(&self, op: i32, fd: i32, mut event: EpollEvent) -> io::Result<()> {
        // SAFETY: `event` is a live local the kernel copies before the
        // call returns; the epoll fd is owned by `self`, and a wrong `fd`
        // is an `errno`, not undefined behaviour.
        if unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    fn lock(&self) -> MutexGuard<'_, Entries<T>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Registered but silent.
    const SILENT: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn socket() -> Arc<UdpSocket> {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
        socket.set_nonblocking(true).expect("non-blocking");
        Arc::new(socket)
    }

    fn send_to(socket: &UdpSocket) {
        let tx = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
        tx.send_to(b"x", socket.local_addr().unwrap()).expect("loopback send");
    }

    #[test]
    fn add_arm_wait_remove_round_trip() {
        let poller = Poller::new().unwrap();
        let rx = socket();
        let token = poller.add(Arc::clone(&rx), Interest::READABLE, "rx").unwrap();
        assert_eq!(poller.len(), 1);
        send_to(&rx);
        let mut ready = Vec::new();
        assert!(!poller.wait(&mut ready).unwrap(), "a socket fired, not the waker");
        assert_eq!(ready, ["rx"]);

        // One-shot: the datagram is still queued, yet the socket stays
        // silent until re-armed — proven by the waker being the only thing
        // that can end this wait.
        ready.clear();
        poller.wake().unwrap();
        assert!(poller.wait(&mut ready).unwrap());
        assert!(ready.is_empty(), "a disarmed socket is not reported");

        // Re-arming re-polls: the datagram that was there all along fires.
        poller.arm(token, Interest::READABLE).unwrap();
        assert!(!poller.wait(&mut ready).unwrap());
        assert_eq!(ready, ["rx"]);

        // An idle UDP socket is writable at once.
        ready.clear();
        let writable = Interest {
            readable: false,
            writable: true,
        };
        poller.arm(token, writable).unwrap();
        assert!(!poller.wait(&mut ready).unwrap());
        assert_eq!(ready, ["rx"]);

        assert_eq!(poller.remove(token).unwrap(), Some("rx"));
        assert!(poller.is_empty());
        assert_eq!(poller.remove(token).unwrap(), None, "removal is idempotent");
        assert_eq!(
            poller.arm(token, Interest::READABLE).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        // The fd is really out of the set: it can be added afresh.
        poller.add(rx, SILENT, "again").unwrap();
    }

    #[test]
    fn a_second_add_of_the_same_fd_is_an_error_and_a_clone_is_not() {
        let poller = Poller::new().unwrap();
        let shared = socket();
        poller.add(Arc::clone(&shared), Interest::READABLE, 0).unwrap();
        let err = poller.add(Arc::clone(&shared), SILENT, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(poller.len(), 1, "a refused add registers nothing");
        // The second user of the socket brings its own fd.
        let clone = Arc::new(shared.try_clone().unwrap());
        poller.add(clone, SILENT, 1).unwrap();
        assert_eq!(poller.len(), 2);
    }

    #[test]
    fn try_wait_reports_ready_sockets_and_leaves_the_wake_up() {
        let poller = Poller::new().unwrap();
        let rx = socket();
        poller.add(Arc::clone(&rx), Interest::READABLE, "rx").unwrap();
        let mut ready = Vec::new();
        poller.try_wait(&mut ready).unwrap();
        assert!(ready.is_empty(), "nothing is ready, and try_wait did not block");
        send_to(&rx);
        poller.wake().unwrap();
        poller.try_wait(&mut ready).unwrap();
        assert_eq!(ready, ["rx"]);
        // The socket is disarmed, and the wake-up is still there for `wait`.
        ready.clear();
        assert!(poller.wait(&mut ready).unwrap());
        assert!(ready.is_empty());
    }

    #[test]
    fn a_timer_fires_once_per_arm_and_is_never_read() {
        let poller = Poller::new().unwrap();
        let rx = socket();
        let socket_token = poller.add(rx, Interest::READABLE, "rx").unwrap();
        let timer = poller.add_timer("timer").unwrap();
        assert_eq!(poller.len(), 1, "timers are not counted as sockets");
        let mut ready = Vec::new();
        poller.try_wait(&mut ready).unwrap();
        assert!(ready.is_empty(), "a new timer is disarmed");

        let delay = Duration::from_millis(2);
        let armed = std::time::Instant::now();
        poller.arm_timer(timer, delay).unwrap();
        assert!(!poller.wait(&mut ready).unwrap());
        assert_eq!(ready, ["timer"]);
        assert!(armed.elapsed() >= delay, "a timer never fires early");

        // One report per expiry: the unread, still readable timer is
        // silent until it is set again — the waker is the only thing that
        // can end this wait.
        ready.clear();
        poller.wake().unwrap();
        assert!(poller.wait(&mut ready).unwrap());
        assert!(ready.is_empty(), "an expired timer is reported once");

        // Set again without a read in between, it fires again; a zero
        // delay fires at once instead of disarming it.
        poller.arm_timer(timer, Duration::ZERO).unwrap();
        assert!(!poller.wait(&mut ready).unwrap());
        assert_eq!(ready, ["timer"]);

        // Re-setting a pending timer replaces its deadline.
        ready.clear();
        poller.arm_timer(timer, Duration::from_secs(3600)).unwrap();
        poller.arm_timer(timer, Duration::ZERO).unwrap();
        assert!(!poller.wait(&mut ready).unwrap());
        assert_eq!(ready, ["timer"]);

        let kind = |err: io::Error| err.kind();
        assert_eq!(
            poller.arm(timer, Interest::READABLE).map_err(kind),
            Err(io::ErrorKind::InvalidInput)
        );
        assert_eq!(
            poller.arm_timer(socket_token, delay).map_err(kind),
            Err(io::ErrorKind::InvalidInput)
        );
        assert_eq!(poller.remove(timer).unwrap(), Some("timer"));
        assert_eq!(
            poller.arm_timer(timer, delay).map_err(kind),
            Err(io::ErrorKind::NotFound)
        );
        assert_eq!(poller.len(), 1);
    }

    #[test]
    fn the_waker_wakes_a_blocked_wait() {
        let poller = Arc::new(Poller::<()>::new().unwrap());
        let idle = socket();
        poller.add(idle, Interest::READABLE, ()).unwrap();
        let (entered, entered_rx) = mpsc::channel();
        let waiter = {
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                let mut ready = Vec::new();
                entered.send(()).unwrap();
                let woken = poller.wait(&mut ready).unwrap();
                (woken, ready.len())
            })
        };
        entered_rx.recv().unwrap();
        // Whether the waiter is already inside epoll_wait or not, the
        // eventfd stays readable until a wait consumes it.
        poller.wake().unwrap();
        assert_eq!(waiter.join().unwrap(), (true, 0));
    }
}
