//! The TCP transport: cross-host worker connections for the supervisor
//! and the standalone listener mode for `rlrpd worker --listen`.
//!
//! The wire protocol is byte-identical to the pipe transport — the same
//! length-framed [`rlrpd_core::persist`] records, the same record chain —
//! so everything above the socket (hello replay, heartbeats, deadlines,
//! divergence detection, respawn) is reused unchanged. What this module
//! adds is the part pipes never needed: connect timeouts with
//! exponential backoff and deterministic jitter, socket read/write
//! deadlines as a half-open-connection backstop, and TCP keepalive.
//!
//! A supervisor "kill" of a TCP worker is a socket shutdown, and a
//! "respawn" is a fresh connection to the same listener — so
//! reconnect-and-rejoin after a transient partition falls out of the
//! existing respawn machinery: the new session replays hello + commit
//! history and the worker's mirror is rebuilt at the committed
//! frontier.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::fleet::FRAME_READER_BYTES;
use crate::worker::{serve_session, EXIT_USAGE};

/// Socket-level tuning for supervisor→worker TCP connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpTuning {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Connection attempts before the connect is reported failed (the
    /// fleet then treats it like a spawn failure: quarantine).
    pub connect_attempts: u32,
    /// Base delay between connect attempts; doubles per attempt, plus
    /// deterministic jitter.
    pub connect_backoff: Duration,
    /// Read/write deadline on the supervisor side of the socket — the
    /// backstop that turns a half-open connection into an I/O error
    /// when even the heartbeat-staleness sweep cannot see it (e.g. a
    /// write blocked on a full kernel buffer).
    pub io_timeout: Duration,
    /// Enable `SO_KEEPALIVE` so the kernel eventually notices a peer
    /// that vanished without a FIN.
    pub keepalive: bool,
}

impl Default for TcpTuning {
    fn default() -> Self {
        TcpTuning {
            connect_timeout: Duration::from_secs(1),
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(10),
            keepalive: true,
        }
    }
}

/// SplitMix64 step — deterministic jitter without a rand dependency.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic backoff jitter in `0..=max/2`, keyed by (worker slot,
/// attempt/respawn ordinal). Every supervisor computes the same delays
/// for the same history, so chaos runs reproduce exactly — but two
/// worker slots retrying concurrently still de-synchronize.
pub(crate) fn jitter(key: u64, ordinal: u64, max: Duration) -> Duration {
    let half = max.as_millis().max(2) as u64 / 2;
    Duration::from_millis(splitmix(key ^ ordinal.wrapping_mul(0x9e37_79b9)) % half)
}

/// Connect to `addr` with per-attempt timeouts and jittered exponential
/// backoff between attempts, then apply the socket tuning (nodelay,
/// read/write deadlines, keepalive). `jitter_key` should identify the
/// worker slot so concurrent retries spread out deterministically.
pub fn connect(addr: &str, tuning: &TcpTuning, jitter_key: u64) -> std::io::Result<TcpStream> {
    let mut last_err = None;
    for attempt in 0..tuning.connect_attempts.max(1) {
        if attempt > 0 {
            let exp = (attempt - 1).min(10);
            let backoff = tuning.connect_backoff * 2u32.saturating_pow(exp)
                + jitter(jitter_key, attempt as u64, tuning.connect_backoff);
            std::thread::sleep(backoff);
        }
        // Re-resolve per attempt: DNS may heal while we retry.
        let addrs = match addr.to_socket_addrs() {
            Ok(a) => a,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        for sa in addrs {
            match TcpStream::connect_timeout(&sa, tuning.connect_timeout) {
                Ok(stream) => {
                    tune_stream(&stream, tuning)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("{addr}: no addresses"),
        )
    }))
}

/// Apply nodelay, read/write deadlines, and keepalive to a socket.
fn tune_stream(stream: &TcpStream, tuning: &TcpTuning) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(tuning.io_timeout))?;
    stream.set_write_timeout(Some(tuning.io_timeout))?;
    if tuning.keepalive {
        set_keepalive(stream);
    }
    Ok(())
}

/// Enable `SO_KEEPALIVE`. Hand-declared syscall on Linux (the workspace
/// carries no libc crate); silently a no-op elsewhere — keepalive is a
/// belt-and-suspenders liveness probe, not a correctness requirement
/// (the heartbeat staleness sweep is the primary failure detector).
#[cfg(target_os = "linux")]
fn set_keepalive(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_KEEPALIVE: i32 = 9;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let one: i32 = 1;
    // SAFETY: fd is a live socket owned by `stream`; the option value
    // is a 4-byte int read by the kernel before the call returns, and
    // a failure (return -1) only leaves keepalive off.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_KEEPALIVE,
            &one as *const i32 as *const core::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn set_keepalive(_stream: &TcpStream) {}

/// Default pre-hello idle deadline of a listening worker: a connection
/// that sends no hello within this window is reclaimed. Generous — a
/// real supervisor sends its hello immediately after connecting.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// `rlrpd worker --listen ADDR`: bind and serve worker sessions until
/// killed. Returns only on a bind failure ([`EXIT_USAGE`]).
///
/// The bound address is printed to stdout (`listening on ADDR`) so
/// scripts can bind port 0 and discover the port. `idle` is the
/// pre-hello idle deadline (`None` disables the reaper).
pub fn listen_entry(addr: &str, idle: Option<Duration>) -> i32 {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rlrpd worker: cannot listen on {addr}: {e}");
            return EXIT_USAGE;
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    run_listener(listener, idle)
}

/// Accept loop: one session thread per connection. A protocol error on
/// one session (e.g. a mismatched supervisor binary) ends that session
/// with a stderr diagnostic; the listener keeps serving — one bad
/// client must not take the host out of every other fleet's rotation.
///
/// `idle` is the pre-hello idle deadline: a connected-but-silent client
/// would otherwise hold its session thread (and socket) forever. The
/// deadline is lifted once a valid hello arrives — a supervisor mid-run
/// is legitimately silent while it merges shadows and commits between
/// stages, and must not be reaped.
pub fn run_listener(listener: TcpListener, idle: Option<Duration>) -> i32 {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                std::thread::spawn(move || serve_tcp_session(stream, peer, idle));
            }
            Err(e) => {
                // Transient accept failures (EMFILE, aborted handshake)
                // must not kill the listener.
                eprintln!("rlrpd worker: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Serve one supervisor session on an accepted socket.
fn serve_tcp_session(stream: TcpStream, peer: SocketAddr, idle: Option<Duration>) {
    let label = format!("rlrpd worker [{peer}]");
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("{label}: socket setup failed: {e}");
        return;
    }
    // Write deadline only (plus the pre-hello idle deadline below): a
    // worker blocked writing to a partitioned supervisor must
    // eventually fail and free the session. No post-hello read
    // deadline — the supervisor is legitimately silent while it merges
    // shadows and commits between stages.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    set_keepalive(&stream);
    let output: Arc<Mutex<Box<dyn Write + Send>>> = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(Box::new(w))),
        Err(e) => {
            eprintln!("{label}: socket clone failed: {e}");
            return;
        }
    };
    // On a heartbeat write failure the session's reader may be blocked
    // in a frame read; shutting the socket down unblocks it so the
    // session thread exits instead of leaking.
    let hangup = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{label}: socket clone failed: {e}");
            return;
        }
    };
    let on_heartbeat_failure: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        let _ = hangup.shutdown(Shutdown::Both);
    });
    // Arm the idle reaper until the hello proves the peer is real.
    let disarm = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{label}: socket clone failed: {e}");
            return;
        }
    };
    let _ = stream.set_read_timeout(idle);
    let on_hello = move || {
        let _ = disarm.set_read_timeout(None);
    };
    let mut input = BufReader::with_capacity(FRAME_READER_BYTES, stream);
    serve_session(&label, &mut input, output, on_heartbeat_failure, on_hello);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let max = Duration::from_millis(100);
        let a = jitter(3, 7, max);
        let b = jitter(3, 7, max);
        assert_eq!(a, b, "same key, same jitter");
        assert!(a <= max / 2);
        // Different ordinals de-synchronize (holds for these values).
        assert_ne!(jitter(3, 1, max), jitter(3, 2, max));
    }

    #[test]
    fn connect_fails_in_bounded_time_when_refused() {
        // Bind-then-drop: the port is (briefly) guaranteed refusing.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let tuning = TcpTuning {
            connect_timeout: Duration::from_millis(200),
            connect_attempts: 2,
            connect_backoff: Duration::from_millis(5),
            ..TcpTuning::default()
        };
        let t0 = std::time::Instant::now();
        assert!(connect(&addr, &tuning, 0).is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "refusal must be fast, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn connect_applies_deadlines_to_an_accepted_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stream = connect(&addr, &TcpTuning::default(), 1).unwrap();
        assert!(stream.read_timeout().unwrap().is_some());
        assert!(stream.write_timeout().unwrap().is_some());
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn abandoned_half_open_connection_is_reclaimed() {
        use std::io::Read as _;
        // A listener with a short idle deadline: a client that connects
        // and never sends a hello must be hung up on, not hold its
        // session thread forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || run_listener(listener, Some(Duration::from_millis(150))));

        let mut client = TcpStream::connect(&addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let t0 = std::time::Instant::now();
        let mut buf = [0u8; 16];
        // The reaped session drops its socket: the client observes EOF
        // (or a reset) well before our own 10s guard.
        let got = client.read(&mut buf);
        assert!(
            matches!(got, Ok(0) | Err(_)),
            "expected hangup, got {got:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "reaper must fire from the idle deadline, took {:?}",
            t0.elapsed()
        );
    }
}
