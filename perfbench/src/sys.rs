//! The system calls the benchmark needs and `std` lacks: `ppoll(2)`, for
//! nanosecond-resolution waits on sockets (`SO_RCVTIMEO` is no substitute:
//! the kernel keeps it in jiffies, so a 100 µs read timeout becomes 1–4 ms);
//! `prctl(2)`, for timer slack and parent-death signals; and
//! `sched_setscheduler(2)`, to run the generator ahead of the server.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const PR_SET_PDEATHSIG: c_int = 1;
const PR_SET_TIMERSLACK: c_int = 29;
const SCHED_FIFO: c_int = 1;
const SIGKILL: c_ulong = 9;

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Prepare the calling thread to generate load on a schedule: 1 ns timer
/// slack, and a real-time (FIFO) priority so that a busy server — an LP solve
/// holding a CPU — cannot delay the generator's sends or receive timestamps.
/// The thread sleeps between events, so it takes little CPU.  Both are best
/// effort (the priority needs CAP_SYS_NICE): without them the generator runs
/// later, which `net.gen_late_p99_us` reports and the validity check catches.
pub fn prepare_generator_thread() {
    let param = SchedParam { sched_priority: 10 };
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // memory of ours; `param` is a live, properly laid-out local; pid 0 is
    // the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        sched_setscheduler(0, SCHED_FIFO, &param);
    }
}

/// Ask the kernel to SIGKILL the calling process when its parent thread
/// exits, so a server cannot outlive a killed benchmark.  Meant for the
/// child between fork and exec (`CommandExt::pre_exec`); async-signal-safe.
pub fn kill_with_parent() -> io::Result<()> {
    // SAFETY: PR_SET_PDEATHSIG takes one integer (the signal) and touches no
    // memory of ours.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Wait until any `(fd, events)` pair is ready or `timeout` passes (an
/// interrupted wait returns early; callers re-check their state).
pub fn wait_fds(fds: &[(RawFd, i16)], timeout: Duration) -> io::Result<()> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, events)| PollFd {
            fd,
            events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfds` and `ts` are live, properly laid-out values for the
    // whole call; nfds is `pfds.len()`; a null sigmask is allowed.
    let rc = unsafe {
        ppoll(
            pfds.as_mut_ptr(),
            pfds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
