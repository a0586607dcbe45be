//! A deterministic network-chaos proxy for exercising the TCP
//! transport: it sits between a supervisor and a `rlrpd worker
//! --listen` host and injects the failure modes real networks produce —
//! connection refusal, mid-frame disconnects, half-open partitions,
//! bytewise corruption, added latency, and slow-loris trickle.
//!
//! Faults are keyed by **connection ordinal** (the fleet connects
//! sequentially, so ordinals are reproducible) and byte-offset triggers
//! count client→server bytes only (the supervisor's output stream is
//! deterministic for a given run), so a [`ChaosPlan`] — hand-built,
//! parsed from a CLI spec, or derived from a seed like
//! `rlrpd_runtime::FaultPlan` — reproduces the same failure at the same
//! protocol point every run.
//!
//! Every injected fault maps onto a recovery path the fleet already
//! has: refusal looks like a spawn failure (quarantine after retries),
//! disconnect and corruption look like worker death (respawn =
//! reconnect), a partition starves heartbeats until the staleness sweep
//! fires, and latency/trickle either completes slowly or trips the
//! block deadline. In every case the run must end byte-identical to
//! sequential execution or degrade to the in-process path — never a
//! wrong answer.

use rlrpd_runtime::SplitMix;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One injected network fault, applied to a single proxied connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// Accept the client, then close immediately without contacting the
    /// backend — indistinguishable from a refused/filtered port.
    Refuse,
    /// Forward normally, then close both sides abruptly after this many
    /// client→server bytes — a mid-frame disconnect when the offset
    /// lands inside a record.
    Disconnect {
        /// Client→server bytes forwarded before the cut.
        after: u64,
    },
    /// Forward normally, then silently stop delivering **both**
    /// directions while keeping both sockets open — a half-open
    /// partition: writes keep succeeding, nothing arrives, and only
    /// heartbeat staleness (or a socket deadline) can detect it.
    Partition {
        /// Client→server bytes forwarded before the blackhole.
        after: u64,
    },
    /// Flip one bit in the client→server byte at this absolute offset;
    /// the record checksum catches it on the worker and the session
    /// dies with a protocol error.
    Corrupt {
        /// Absolute client→server byte offset to corrupt.
        at: u64,
    },
    /// Sleep this long before forwarding each client→server chunk —
    /// added latency. The run completes correct, just slower.
    Delay {
        /// Added latency per forwarded chunk, in milliseconds.
        millis: u64,
    },
    /// Forward client→server traffic a few bytes at a time with pauses
    /// — a slow-loris link. Either the run limps through correctly or a
    /// deadline fires and the fleet reconnects around it.
    Trickle,
}

/// A deterministic schedule of [`ChaosFault`]s keyed by connection
/// ordinal: connection `k` is the `k`-th connection the proxy accepts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    faults: Vec<(usize, ChaosFault)>,
}

impl ChaosPlan {
    /// An empty plan (a transparent proxy).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Add a fault for connection ordinal `conn`.
    pub fn fault_at(mut self, conn: usize, fault: ChaosFault) -> Self {
        self.faults.push((conn, fault));
        self
    }

    /// Derive a plan from a seed: two faulted connections early in the
    /// run, mode and trigger offsets drawn from the seed — the chaos
    /// analogue of `FaultPlan::seeded_panic`, reproducible from the
    /// seed alone.
    pub fn seeded(seed: u64) -> Self {
        let mut s = SplitMix(seed);
        let mut plan = ChaosPlan::new();
        for conn in 0..2 {
            let fault = match s.next_u64() % 6 {
                0 => ChaosFault::Refuse,
                1 => ChaosFault::Disconnect {
                    after: 64 + s.next_u64() % 512,
                },
                2 => ChaosFault::Partition {
                    after: 64 + s.next_u64() % 512,
                },
                3 => ChaosFault::Corrupt {
                    at: 16 + s.next_u64() % 256,
                },
                4 => ChaosFault::Delay {
                    millis: 1 + s.next_u64() % 5,
                },
                _ => ChaosFault::Trickle,
            };
            plan = plan.fault_at(conn, fault);
        }
        plan
    }

    /// Parse a CLI spec: comma-separated `kind:conn[:arg]` entries —
    /// `refuse:0`, `disconnect:1:200`, `partition:0:4096`,
    /// `corrupt:2:90`, `delay:0:5`, `trickle:1`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = ChaosPlan::new();
        for part in spec.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            let usage = || format!("bad chaos fault '{part}' (expected kind:conn[:arg])");
            if fields.len() < 2 {
                return Err(usage());
            }
            let conn: usize = fields[1].parse().map_err(|_| usage())?;
            let arg = |k: usize| -> Result<u64, String> {
                fields
                    .get(k)
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())
            };
            let exactly = |n: usize| -> Result<(), String> {
                if fields.len() == n {
                    Ok(())
                } else {
                    Err(usage())
                }
            };
            let fault = match fields[0] {
                "refuse" => {
                    exactly(2)?;
                    ChaosFault::Refuse
                }
                "disconnect" => {
                    exactly(3)?;
                    ChaosFault::Disconnect { after: arg(2)? }
                }
                "partition" => {
                    exactly(3)?;
                    ChaosFault::Partition { after: arg(2)? }
                }
                "corrupt" => {
                    exactly(3)?;
                    ChaosFault::Corrupt { at: arg(2)? }
                }
                "delay" => {
                    exactly(3)?;
                    ChaosFault::Delay { millis: arg(2)? }
                }
                "trickle" => {
                    exactly(2)?;
                    ChaosFault::Trickle
                }
                other => {
                    return Err(format!(
                        "unknown chaos fault '{other}' (expected refuse, disconnect, \
                         partition, corrupt, delay, or trickle)"
                    ))
                }
            };
            plan = plan.fault_at(conn, fault);
        }
        Ok(plan)
    }

    /// The fault (if any) for connection ordinal `conn`.
    fn for_conn(&self, conn: usize) -> Option<ChaosFault> {
        self.faults
            .iter()
            .find(|(c, _)| *c == conn)
            .map(|(_, f)| *f)
    }
}

impl std::fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "no faults (transparent)");
        }
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|(conn, fault)| format!("{fault:?}@conn {conn}"))
            .collect();
        write!(f, "{}", parts.join(", "))
    }
}

/// The proxy itself: accepts on one address, forwards to a target,
/// injecting the plan's faults per connection ordinal.
pub struct ChaosProxy {
    listener: TcpListener,
    target: String,
    plan: Arc<ChaosPlan>,
}

impl ChaosProxy {
    /// Bind `listen` (use port 0 to let the OS pick) and forward every
    /// accepted connection to `target`.
    pub fn bind(listen: &str, target: &str, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        Ok(ChaosProxy {
            listener: TcpListener::bind(listen)?,
            target: target.to_string(),
            plan: Arc::new(plan),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on a background thread (runs until the
    /// process exits; proxy threads are daemons by design — the proxy
    /// is test/CI scaffolding, not a production component).
    pub fn spawn(self) -> JoinHandle<()> {
        std::thread::spawn(move || self.run())
    }

    /// Run the accept loop on this thread, forever.
    pub fn run(self) {
        let mut ordinal = 0usize;
        loop {
            match self.listener.accept() {
                Ok((client, _)) => {
                    let fault = self.plan.for_conn(ordinal);
                    ordinal += 1;
                    let target = self.target.clone();
                    std::thread::spawn(move || proxy_connection(client, &target, fault));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// Forward one connection, applying `fault`.
fn proxy_connection(client: TcpStream, target: &str, fault: Option<ChaosFault>) {
    if let Some(ChaosFault::Refuse) = fault {
        // Accept-then-drop: the client's next read/write fails as if
        // the port had refused.
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let Ok(server) = TcpStream::connect(target) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    // Shared blackhole switch: a partition silences both directions at
    // once while both sockets stay open (half-open from both ends).
    let blackhole = Arc::new(AtomicBool::new(false));

    let c2s = {
        let client = match client.try_clone() {
            Ok(c) => c,
            Err(_) => return,
        };
        let server = match server.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let blackhole = Arc::clone(&blackhole);
        std::thread::spawn(move || pump_client_to_server(client, server, fault, blackhole))
    };
    pump_server_to_client(server, client, blackhole);
    let _ = c2s.join();
}

/// Client→server pump: counts bytes and triggers the byte-offset
/// faults. Returns when either socket dies or a disconnect fault fires.
fn pump_client_to_server(
    mut client: TcpStream,
    mut server: TcpStream,
    fault: Option<ChaosFault>,
    blackhole: Arc<AtomicBool>,
) {
    let mut offset = 0u64;
    let mut buf = [0u8; 4096];
    loop {
        let n = match client.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let chunk = &mut buf[..n];
        if blackhole.load(Ordering::Relaxed) {
            // Partitioned: drain and drop so the client's writes keep
            // succeeding (the half-open illusion), deliver nothing.
            offset += n as u64;
            continue;
        }
        match fault {
            Some(ChaosFault::Disconnect { after }) if offset + n as u64 > after => {
                // Deliver the prefix up to the cut, then die mid-frame.
                let keep = (after - offset) as usize;
                let _ = server.write_all(&chunk[..keep]);
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                break;
            }
            Some(ChaosFault::Partition { after }) if offset + n as u64 > after => {
                let keep = (after - offset) as usize;
                let _ = server.write_all(&chunk[..keep]);
                blackhole.store(true, Ordering::Relaxed);
                offset += n as u64;
                continue;
            }
            Some(ChaosFault::Corrupt { at }) if offset <= at && at < offset + n as u64 => {
                chunk[(at - offset) as usize] ^= 0x20;
            }
            Some(ChaosFault::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(ChaosFault::Trickle) => {
                // A few bytes at a time with pauses; any I/O error ends
                // the pump (the client gave up and reconnected).
                let mut ok = true;
                for piece in chunk.chunks(16) {
                    std::thread::sleep(Duration::from_millis(25));
                    if server.write_all(piece).is_err() {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    break;
                }
                offset += n as u64;
                continue;
            }
            _ => {}
        }
        if server.write_all(chunk).is_err() {
            break;
        }
        offset += n as u64;
    }
    // Propagate the close so the backend session ends instead of
    // waiting forever on a dead client — unless partitioned, where the
    // whole point is that nobody is told anything.
    if !blackhole.load(Ordering::Relaxed) {
        let _ = server.shutdown(Shutdown::Both);
    }
}

/// Server→client pump: plain forwarding, silenced by the blackhole.
fn pump_server_to_client(mut server: TcpStream, mut client: TcpStream, blackhole: Arc<AtomicBool>) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match server.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if blackhole.load(Ordering::Relaxed) {
            continue;
        }
        if client.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    if !blackhole.load(Ordering::Relaxed) {
        let _ = client.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_round_trip_and_reject_garbage() {
        let plan = ChaosPlan::parse(
            "refuse:0,disconnect:1:200,partition:2:4096,corrupt:3:90,delay:4:5,trickle:5",
        )
        .unwrap();
        assert_eq!(plan.for_conn(0), Some(ChaosFault::Refuse));
        assert_eq!(
            plan.for_conn(1),
            Some(ChaosFault::Disconnect { after: 200 })
        );
        assert_eq!(
            plan.for_conn(2),
            Some(ChaosFault::Partition { after: 4096 })
        );
        assert_eq!(plan.for_conn(3), Some(ChaosFault::Corrupt { at: 90 }));
        assert_eq!(plan.for_conn(4), Some(ChaosFault::Delay { millis: 5 }));
        assert_eq!(plan.for_conn(5), Some(ChaosFault::Trickle));
        assert_eq!(plan.for_conn(6), None);

        assert!(ChaosPlan::parse("nonsense:0").is_err());
        assert!(ChaosPlan::parse("refuse").is_err());
        assert!(
            ChaosPlan::parse("refuse:0:9").is_err(),
            "refuse takes no arg"
        );
        assert!(
            ChaosPlan::parse("corrupt:1").is_err(),
            "corrupt needs an offset"
        );
        assert!(ChaosPlan::parse("corrupt:x:3").is_err());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        assert_eq!(ChaosPlan::seeded(42), ChaosPlan::seeded(42));
        // Not a hard guarantee for every pair, but holds for these.
        assert_ne!(ChaosPlan::seeded(1), ChaosPlan::seeded(2));
        assert!(!ChaosPlan::seeded(7).faults.is_empty());
    }

    #[test]
    fn transparent_proxy_forwards_bytes_both_ways() {
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            // Echo server, one connection.
            let (mut s, _) = backend.accept().unwrap();
            let mut buf = [0u8; 64];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let proxy = ChaosProxy::bind("127.0.0.1:0", &backend_addr, ChaosPlan::new()).unwrap();
        let addr = proxy.local_addr().unwrap();
        proxy.spawn();
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"ping around the proxy").unwrap();
        let mut got = [0u8; 21];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping around the proxy");
    }

    #[test]
    fn refused_connection_dies_without_reaching_the_backend() {
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap().to_string();
        let reached = Arc::new(AtomicBool::new(false));
        {
            let reached = Arc::clone(&reached);
            std::thread::spawn(move || {
                if backend.accept().is_ok() {
                    reached.store(true, Ordering::Relaxed);
                }
            });
        }
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Refuse);
        let proxy = ChaosProxy::bind("127.0.0.1:0", &backend_addr, plan).unwrap();
        let addr = proxy.local_addr().unwrap();
        proxy.spawn();
        let mut c = TcpStream::connect(addr).unwrap();
        let mut buf = [0u8; 1];
        // The proxy closes immediately: EOF (or reset) on first read.
        assert!(matches!(c.read(&mut buf), Ok(0) | Err(_)));
        assert!(!reached.load(Ordering::Relaxed), "backend never contacted");
    }

    #[test]
    fn corruption_flips_exactly_the_planned_byte() {
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap().to_string();
        let got = Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            std::thread::spawn(move || {
                let (mut s, _) = backend.accept().unwrap();
                let mut all = Vec::new();
                let _ = s.read_to_end(&mut all);
                *got.lock().unwrap() = all;
            });
        }
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Corrupt { at: 3 });
        let proxy = ChaosProxy::bind("127.0.0.1:0", &backend_addr, plan).unwrap();
        let addr = proxy.local_addr().unwrap();
        proxy.spawn();
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"abcdefgh").unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        // Wait for the backend to drain.
        for _ in 0..100 {
            if got.lock().unwrap().len() == 8 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let bytes = got.lock().unwrap().clone();
        assert_eq!(bytes, b"abc\x44efgh", "bit 5 of byte 3 flipped");
    }

    #[test]
    fn partitioned_connection_stays_open_but_delivers_nothing() {
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap().to_string();
        let seen = Arc::new(std::sync::Mutex::new(0usize));
        {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let (mut s, _) = backend.accept().unwrap();
                let mut buf = [0u8; 64];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    *seen.lock().unwrap() += n;
                }
            });
        }
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Partition { after: 4 });
        let proxy = ChaosProxy::bind("127.0.0.1:0", &backend_addr, plan).unwrap();
        let addr = proxy.local_addr().unwrap();
        proxy.spawn();
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"abcd").unwrap(); // delivered
        std::thread::sleep(Duration::from_millis(50));
        // Past the trigger: writes still *succeed* (half-open!), but
        // nothing more arrives at the backend.
        c.write_all(b"efghijkl").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(*seen.lock().unwrap(), 4, "only the pre-partition prefix");
    }
}
