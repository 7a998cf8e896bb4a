//! Child processes and daemon connections.
//!
//! Every program under test runs with an empty environment (so no knob of
//! the caller's shell changes what is measured) and with the run's
//! temporary directory as its working directory.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of a process, in MB; `pid` may be `"self"`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process was allowed when it first asked.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of its own size, all the
        // call writes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(
            rc,
            0,
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        );
        (0..1024)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Confine the calling thread, and every thread and process it starts from
/// then on, to `cpu`.
fn pin(cpu: usize) {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of its own size, all the call
    // reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(
        rc,
        0,
        "sched_setaffinity: {}",
        std::io::Error::last_os_error()
    );
}

/// Seconds a fixed integer loop takes on the current CPU.
fn spin() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..200_000 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    t.elapsed().as_secs_f64()
}

/// Confine the calling thread, and every thread and process it starts from
/// then on, to the allowed CPU that runs a fixed loop fastest right now.
/// Returns that CPU.
///
/// The fleet workloads run the client and the daemon on one core. Spread
/// over two, a point query's latency follows how fast the hypervisor wakes
/// an idle vCPU, which on a 2-vCPU host switches between about 20 and 50 µs
/// for minutes at a time, and the blast time and the daemon's peak memory
/// follow where the scheduler puts three busy threads. Each vCPU of that
/// host also runs, for seconds at a time, at one of two speeds about 1.4×
/// apart, independently of the other; the probe picks the fast one when
/// there is one.
pub fn pin_to_fastest_cpu() -> usize {
    let cpus = allowed_cpus();
    let mut best = vec![f64::INFINITY; cpus.len()];
    for _ in 0..3 {
        for (i, &cpu) in cpus.iter().enumerate() {
            pin(cpu);
            best[i] = best[i].min(spin());
        }
    }
    let fastest = (0..cpus.len())
        .min_by(|&a, &b| best[a].total_cmp(&best[b]))
        .expect("an allowed CPU");
    pin(cpus[fastest]);
    cpus[fastest]
}

/// A command for a program under test: empty environment, no stdin.
pub fn command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.env_clear().stdin(Stdio::null());
    cmd
}

/// How one child process ended.
pub struct Exit {
    /// Exit status 0.
    pub success: bool,
    /// Spawn to exit, seconds.
    pub wall: f64,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// The child's peak resident set, in MB (see [`run_to_exit`]).
    pub peak_rss_mb: f64,
}

/// Run `cmd` to completion, its stderr discarded. The child is reaped with
/// `wait4`, whose peak resident set is this child's: exact even for a
/// child that lived a few milliseconds, and blind to the other children of
/// this process and of the shell that started it. Linux counts into it the
/// spawning process's own peak at the child's `exec`: in the soak workload
/// the benchmark's 3 MB, below every soak process's peak.
#[allow(clippy::zombie_processes)] // reaped by `wait4`, not `Child::wait`
pub fn run_to_exit(cmd: &mut Command) -> Exit {
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut i64) -> i32;
    }
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("run {cmd:?}: {e}"));
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("a piped stdout")
        .read_to_end(&mut stdout)
        .unwrap_or_else(|e| panic!("read the stdout of {cmd:?}: {e}"));
    let pid = child.id() as i32;
    let mut status = 0i32;
    // `struct rusage` on 64-bit Linux: two `timeval`s (four i64), then
    // fourteen longs, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    loop {
        // SAFETY: `status` and `usage` are writable buffers of the sizes of
        // an int and of `struct rusage` on 64-bit Linux; `pid` is a child
        // of this process that nothing else waits for.
        let rc = unsafe { wait4(pid, &mut status, 0, usage.as_mut_ptr()) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        assert_eq!(err.kind(), ErrorKind::Interrupted, "wait4({pid}): {err}");
    }
    Exit {
        success: status == 0,
        wall: start.elapsed().as_secs_f64(),
        stdout: String::from_utf8_lossy(&stdout).into_owned(),
        peak_rss_mb: usage[4] as f64 / 1024.0,
    }
}

/// Connections the client may hold open at once (the core count).
static BUDGET: AtomicUsize = AtomicUsize::new(0);
static OPEN: AtomicUsize = AtomicUsize::new(0);

/// Cap the client's concurrently open daemon connections.
pub fn set_connection_budget(n: usize) {
    BUDGET.store(n, Ordering::SeqCst);
}

/// One client connection to the daemon, counted against the budget.
pub struct Conn {
    stream: UnixStream,
    /// Bytes read but not yet returned as a line.
    buf: Vec<u8>,
}

impl Conn {
    /// Connect, aborting the run if that would exceed the budget.
    pub fn connect(path: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        let open = OPEN.fetch_add(1, Ordering::SeqCst) + 1;
        let budget = BUDGET.load(Ordering::SeqCst);
        assert!(
            open <= budget,
            "the client would hold {open} connections on {budget} cores; aborting the run"
        );
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Switch between blocking and nonblocking I/O.
    pub fn set_nonblocking(&self, on: bool) {
        self.stream
            .set_nonblocking(on)
            .expect("set_nonblocking on a unix socket");
    }

    /// Write all of `bytes` (blocking mode).
    pub fn write_all(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write to the daemon");
    }

    /// Write what fits now (nonblocking mode); returns the bytes taken.
    pub fn write_some(&mut self, bytes: &[u8]) -> usize {
        match self.stream.write(bytes) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
            Err(e) => panic!("write to the daemon: {e}"),
        }
    }

    /// Next response line; in nonblocking mode `None` when no whole line
    /// has arrived yet.
    pub fn read_line(&mut self) -> Option<String> {
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                return Some(String::from_utf8_lossy(&line[..end]).into_owned());
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("the daemon closed the connection"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read from the daemon: {e}"),
            }
        }
    }

    /// Send one query and wait for its response line (blocking mode).
    pub fn request(&mut self, line: &str) -> String {
        self.write_all(format!("{line}\n").as_bytes());
        self.read_line().expect("a blocking read returns a line")
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        OPEN.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running `eccparityd`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

/// Daemon flags every run uses: one shard and one I/O loop, so the numbers
/// measure the program rather than the scheduler of a 2-core machine.
/// Everything else, the shard mailbox's depth included, is the default.
const DAEMON_FLAGS: [&str; 4] = ["--shards", "1", "--io-shards", "1"];

impl Daemon {
    /// Start a daemon listening on `socket` and wait until it answers a
    /// `ping`. Returns it with that connection and the seconds from spawn
    /// to the answer.
    pub fn start(bin: &Path, socket: &str, extra: &[&str]) -> (Daemon, Conn, f64) {
        let start = Instant::now();
        let child = command(bin)
            .args(["--socket", socket])
            .args(DAEMON_FLAGS)
            .args(extra)
            .stdout(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let mut daemon = Daemon {
            child,
            socket: PathBuf::from(socket),
        };
        let mut conn = loop {
            match Conn::connect(&daemon.socket) {
                Ok(c) => break c,
                Err(_) => {
                    if let Some(status) = daemon.child.try_wait().expect("poll the daemon") {
                        panic!("eccparityd exited during start-up: {status}");
                    }
                    assert!(
                        start.elapsed() < Duration::from_secs(60),
                        "eccparityd did not listen within 60 s"
                    );
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        let pong = conn.request("{\"kind\":\"query\",\"op\":\"ping\"}");
        assert!(pong.contains("\"pong\""), "unexpected ping answer: {pong}");
        (daemon, conn, start.elapsed().as_secs_f64())
    }

    /// Restart the daemon's peak resident set from its current resident set
    /// (`/proc/<pid>/clear_refs`, Linux 4.0 and later); the daemon does not
    /// notice.
    pub fn reset_peak_rss(&self) {
        std::fs::write(format!("/proc/{}/clear_refs", self.child.id()), "5")
            .unwrap_or_else(|e| panic!("reset the daemon's peak resident set: {e}"));
    }

    /// The daemon's peak resident set so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).expect("the daemon's /proc status")
    }

    /// Wait for a daemon told to shut down; kill it after `grace`.
    pub fn wait_exit(mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if self.child.try_wait().expect("poll the daemon").is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("eccparityd did not exit within {grace:?} of shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
