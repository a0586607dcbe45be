//! The worker side: what `rlrpd worker` runs.
//!
//! A worker reads one hello frame (run identity + loop spec + heartbeat
//! interval), resolves the spec locally, starts a heartbeat thread, and
//! then serves block requests with `rlrpd_core::serve_worker` until the
//! supervisor closes the connection or sends a shutdown frame.
//!
//! The session logic is transport-agnostic ([`serve_session`]): the
//! stdio entry point ([`worker_entry`]) wires it to stdin/stdout for
//! subprocess fleets, and the TCP listener (`net::listen_entry`) wires
//! it to an accepted socket for cross-host fleets — one protocol, two
//! transports.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rlrpd_core::remote::{
    encode_heartbeat, frame_kind, read_frame, write_frame, WireError, WireHello, FRAME_HELLO,
};
use rlrpd_core::serve_worker;

use crate::spec::resolve_spec;

/// Worker exit code: clean shutdown (pipe closed or shutdown frame).
pub const EXIT_OK: i32 = 0;
/// Worker exit code: transport I/O failure mid-run (supervisor died).
pub const EXIT_TRANSPORT: i32 = 1;
/// Worker exit code: protocol or usage error — an undecodable or
/// out-of-sequence frame, a protocol-version mismatch, an unknown loop
/// spec, or a run-identity mismatch. Matches the CLI's usage-error exit
/// code.
pub const EXIT_USAGE: i32 = 64;

/// Heartbeat interval used when the hello carries `heartbeat_millis ==
/// 0` (an old supervisor, or one that left the policy at its default).
const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(25);

/// Serve one supervisor session: hello, heartbeats, block requests.
/// Returns the session's exit code (which [`worker_entry`] uses as the
/// process exit code; the TCP listener just logs non-zero codes and
/// keeps accepting).
///
/// `label` prefixes diagnostics so a multi-session TCP host can tell
/// its peers apart. `on_heartbeat_failure` runs when a heartbeat write
/// fails — the supervisor is gone, and the transport decides what that
/// means (stdio: exit the process; TCP: shut the socket down so the
/// blocked session reader unblocks and the thread exits). `on_hello`
/// runs once a valid hello has been decoded — the TCP transport uses
/// it to lift its pre-hello idle deadline (a connected-but-silent
/// client is reaped; a real supervisor mid-run is legitimately silent
/// between stages and must not be).
pub(crate) fn serve_session(
    label: &str,
    input: &mut dyn Read,
    output: Arc<Mutex<Box<dyn Write + Send>>>,
    on_heartbeat_failure: Arc<dyn Fn() + Send + Sync>,
    on_hello: impl FnOnce(),
) -> i32 {
    let frame = match read_frame(input) {
        Ok(Some(f)) => f,
        Ok(None) => return EXIT_OK, // connected and immediately abandoned
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            // The transport's idle deadline fired before any hello: an
            // abandoned half-open connection, reclaimed without fuss.
            eprintln!("{label}: no hello before the idle deadline; session reclaimed");
            return EXIT_OK;
        }
        Err(e) => {
            eprintln!("{label}: bad hello frame: {e}");
            return EXIT_USAGE;
        }
    };
    if frame_kind(&frame) != Some(FRAME_HELLO) {
        eprintln!("{label}: first frame is not a hello");
        return EXIT_USAGE;
    }
    let hello = match WireHello::decode(&frame) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{label}: undecodable hello: {e}");
            return EXIT_USAGE;
        }
    };
    on_hello();
    let lp = match resolve_spec(&hello.spec) {
        Ok(lp) => lp,
        Err(e) => {
            eprintln!("{label}: {e}");
            return EXIT_USAGE;
        }
    };
    let heartbeat = if hello.heartbeat_millis == 0 {
        DEFAULT_HEARTBEAT
    } else {
        Duration::from_millis(hello.heartbeat_millis as u64)
    };

    // Heartbeats share the output with block replies under one lock so
    // frames never interleave. A failed heartbeat write means the
    // supervisor is gone — hand the transport the hangup decision.
    let alive = Arc::new(AtomicBool::new(true));
    let beat = {
        let output = Arc::clone(&output);
        let alive = Arc::clone(&alive);
        let on_failure = Arc::clone(&on_heartbeat_failure);
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while alive.load(Ordering::Relaxed) {
                std::thread::sleep(heartbeat);
                let record = encode_heartbeat(seq);
                seq += 1;
                let mut o = output.lock().expect("worker output lock");
                if write_frame(&mut *o, &record).is_err() {
                    drop(o);
                    on_failure();
                    break;
                }
            }
        })
    };

    let mut send = |record: &[u8]| {
        let mut o = output.lock().expect("worker output lock");
        write_frame(&mut *o, record)
    };
    let result = serve_worker::<f64>(lp.as_ref(), &hello, input, &mut send);
    alive.store(false, Ordering::Relaxed);
    let _ = beat.join();
    match result {
        Ok(()) => EXIT_OK,
        Err(WireError::Io(e)) => {
            eprintln!("{label}: transport failed: {e}");
            EXIT_TRANSPORT
        }
        Err(WireError::Protocol(e)) => {
            eprintln!("{label}: protocol error: {e}");
            EXIT_USAGE
        }
    }
}

/// Run the worker protocol on this process's stdin/stdout; returns the
/// process exit code.
///
/// Exit codes: [`EXIT_OK`] on clean shutdown, [`EXIT_USAGE`] on
/// protocol or usage errors, [`EXIT_TRANSPORT`] on mid-run I/O
/// failures.
pub fn worker_entry() -> i32 {
    let mut input = std::io::stdin().lock();
    let output = match raw_stdout() {
        Ok(out) => Arc::new(Mutex::new(out)),
        Err(e) => {
            eprintln!("rlrpd worker: cannot open stdout: {e}");
            return EXIT_TRANSPORT;
        }
    };
    // Over stdio the process serves exactly one session; a dead
    // supervisor pipe means there is nothing left to do.
    let on_heartbeat_failure: Arc<dyn Fn() + Send + Sync> =
        Arc::new(|| std::process::exit(EXIT_OK));
    serve_session(
        "rlrpd worker",
        &mut input,
        output,
        on_heartbeat_failure,
        || {},
    )
}

/// This process's stdout as the bare descriptor. `std::io::stdout()` is
/// a `LineWriter`: it would cut a binary frame at its last `0x0A` byte
/// and hand the supervisor's pipe two writes where the frame is one.
#[cfg(unix)]
fn raw_stdout() -> std::io::Result<Box<dyn Write + Send>> {
    use std::os::fd::AsFd;
    let fd = std::io::stdout().as_fd().try_clone_to_owned()?;
    Ok(Box::new(std::fs::File::from(fd)))
}

/// Where there is no descriptor to borrow, the buffered handle still
/// carries every frame whole; only the write count differs.
#[cfg(not(unix))]
fn raw_stdout() -> std::io::Result<Box<dyn Write + Send>> {
    Ok(Box::new(std::io::stdout()))
}
