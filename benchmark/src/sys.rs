//! What the harness asks the operating system: CPU time per process and
//! per thread, peak resident memory, host facts for the report, a wait on
//! several sockets at once, and a fixed place for every thread.

use std::fs;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// `USER_HZ`: the unit of the CPU fields in `/proc/*/stat`.  Fixed at 100
/// by the Linux user-space ABI on every architecture this builds for.
const TICK_NS: u64 = 10_000_000;

/// utime + stime of a `/proc/.../stat` line, in nanoseconds.  The command
/// name (field 2) may contain spaces, so fields are counted from the last
/// `)`.
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_NS)
}

/// CPU time of the whole process so far.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| stat_cpu_ns(&stat))
        .unwrap_or(0)
}

/// CPU time of one thread of this process so far.
pub fn thread_cpu_ns(tid: u64) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .ok()
        .and_then(|stat| stat_cpu_ns(&stat))
        .unwrap_or(0)
}

/// Kernel thread id of the calling thread (first field of its stat line).
pub fn own_tid() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|stat| stat.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn vm_hwm_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Default socket receive buffer, the budget the closed-loop window is
/// sized against.
pub fn rmem_default() -> String {
    read_trimmed("/proc/sys/net/core/rmem_default")
}

/// Kernel release string.
pub fn kernel_release() -> String {
    read_trimmed("/proc/sys/kernel/osrelease")
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// `SCHED_IDLE`: runs only when nothing else on the CPU wants to.
const SCHED_IDLE: i32 = 5;
const PR_SET_TIMERSLACK: i32 = 29;
/// Words in a CPU mask: room for 1024 CPUs, the C library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    // From the C library std already links; nfds_t is unsigned long, pid 0
    // is the calling thread.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty if the kernel
/// will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live array of exactly the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and every thread it spawns from now on, to
/// `cpus`; `false` if the kernel refused (or `cpus` is empty).
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live array of exactly the size passed.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Lets the calling thread's sleeps end when asked, not up to the default
/// 50 µs of timer slack later.  Threads spawned afterwards inherit it, so
/// only the sender thread calls this, never one that builds a proxy.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // memory.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

/// One `SCHED_IDLE` thread per CPU that spins whenever the CPU has nothing
/// else to do, so a virtual CPU never halts.
///
/// On a virtual machine without an idle driver an idle CPU executes HLT,
/// the hypervisor takes it away, and the next wake-up costs however long
/// the host takes to hand it back: tens to hundreds of microseconds,
/// varying by the minute with what the neighbours do.  That is a property
/// of the host, not of the proxy, and it moved every latency in this
/// benchmark by half from run to run.  Any other thread pre-empts a spinner
/// at once.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Kernel thread ids of the spinners that did start.
    pub tids: Vec<u64>,
}

impl IdleSpinners {
    /// Starts one spinner on each of `cpus`.  A spinner that cannot pin
    /// itself or lower its priority does not spin.
    pub fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (report, started) = mpsc::channel();
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (stop, report) = (Arc::clone(&stop), report.clone());
                std::thread::spawn(move || {
                    let idle = SchedParam { priority: 0 };
                    // SAFETY: `idle` outlives the call, which only reads it.
                    let lowered = unsafe { sched_setscheduler(0, SCHED_IDLE, &idle) == 0 };
                    let ready = lowered && pin_thread(&[cpu]);
                    let _ = report.send(ready.then(own_tid));
                    drop(report);
                    while ready && !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        drop(report);
        Self {
            stop,
            threads,
            tids: started.iter().flatten().collect(),
        }
    }

    /// CPU time the spinners have used so far.
    pub fn cpu_ns(&self) -> u64 {
        self.tids.iter().map(|&tid| thread_cpu_ns(tid)).sum()
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A wait on several sockets at once.  The receiver thread owns every peer
/// socket, and std has no such wait; reading them in turn without one would
/// burn the CPU the proxy under test needs.
pub struct Poller {
    fds: Vec<PollFd>,
}

impl Poller {
    /// Watches `sockets` for readability.
    pub fn new(sockets: &[UdpSocket]) -> Self {
        let fds = sockets
            .iter()
            .map(|socket| PollFd {
                fd: socket.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        Self { fds }
    }

    /// Blocks until a socket is readable or `timeout_ms` passes; `false` on
    /// timeout (or an interrupted call: the caller loops either way).
    pub fn wait(&mut self, timeout_ms: i32) -> bool {
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `repr(C)` pollfd records, and poll writes only their
        // `revents` fields.  A descriptor closed meanwhile is reported as
        // POLLNVAL, not dereferenced.
        let ready = unsafe {
            poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as std::ffi::c_ulong,
                timeout_ms,
            )
        };
        ready > 0
    }

    /// Whether socket `index` had an event in the last successful `wait`.
    pub fn is_ready(&self, index: usize) -> bool {
        self.fds[index].revents != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_name_parses() {
        let line = "42 (a b) c) S 1 1 1 0 -1 0 0 0 0 0 7 5 0 0 20 0 1 0";
        assert_eq!(stat_cpu_ns(line), Some(12 * TICK_NS));
    }

    #[test]
    fn a_thread_pinned_to_one_cpu_may_run_only_there() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        let last = *allowed.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin_thread(&[last]));
            assert_eq!(allowed_cpus(), vec![last]);
            // A thread spawned from a pinned one inherits its place.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![last]);
            assert!(!pin_thread(&[]));
        })
        .join()
        .unwrap();
        assert_eq!(allowed_cpus(), allowed);
    }

    #[test]
    fn idle_spinners_start_report_their_tids_and_stop() {
        let cpus = allowed_cpus();
        let spinners = IdleSpinners::start(&cpus);
        assert_eq!(spinners.tids.len(), cpus.len());
        assert!(spinners.tids.iter().all(|&tid| tid != own_tid()));
        drop(spinners);
    }

    #[test]
    fn poller_flags_only_the_socket_with_data() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sockets = [a, b];
        let mut poller = Poller::new(&sockets);
        assert!(!poller.wait(0));
        sockets[0]
            .send_to(b"x", sockets[1].local_addr().unwrap())
            .unwrap();
        assert!(poller.wait(1000));
        assert!(!poller.is_ready(0));
        assert!(poller.is_ready(1));
    }
}
