//! `gcs-node` — [`gcs_protocol::daemon::Daemon`] behind a real transport.
//!
//! One OS process hosts a contiguous block of virtual nodes and exchanges
//! [`gcs_protocol::wire`] frames with peer processes over TCP or Unix
//! domain sockets. Every decision is the `Daemon`'s; this binary owns
//! only sockets, a wall clock, stdin and stdout. Stdout carries
//! `listening <addr>` once bound, the `status` lines every
//! `--status-every` seconds, and `shutdown clean`. Stdin EOF or a peer's
//! SHUTDOWN takes the graceful path: broadcast SHUTDOWN, drain for up to
//! 200 ms, exit 0. SIGTERM is the hard stop (default disposition). A
//! peer that breaks a peer rule is dropped with a `gcs-node: dropping …`
//! line on stderr. Each read is decoded before the next, so a peer's
//! stream never holds more than one partial frame in memory.
//!
//! Exit codes: 0 = clean shutdown, 1 = configuration or socket error.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcs_protocol::daemon::{ConnId, Daemon, Verdict, MAX_TOTAL};
use gcs_sim::SimTime;

const USAGE: &str = "\
gcs-node — socket daemon hosting virtual gradient-clock-sync nodes

USAGE:
    gcs-node (--listen ADDR | --uds PATH) --first N --count K --total M
             [--peers ADDR[,ADDR...]] [--refresh S] [--status-every S]

    --listen ADDR     bind a TCP listener (port 0 picks a free port)
    --uds PATH        bind a Unix domain socket listener instead
    --first N         first hosted virtual node ID        (default 0)
    --count K         number of hosted virtual nodes      (default 1)
    --total M         cluster-wide node count, <= 1024    (default first+count)
    --peers LIST      comma list of peer daemons to dial; TCP addresses,
                      or unix:PATH for Unix domain sockets
    --refresh S       flood refresh period, seconds       (default 0.2)
    --status-every S  status print period, seconds        (default 0.25)

The cluster topology is the complete graph over IDs 0..M: every hosted
node treats every other ID as a fully inserted neighbour. The model
constants (rho, mu, epsilon, tau, delay bound) and the per-ID hardware
rates are gcs_protocol::daemon's, shared with every harness.
";

struct Options {
    listen: Option<String>,
    uds: Option<String>,
    first: u64,
    count: u64,
    total: u64,
    peers: Vec<String>,
    refresh: f64,
    status_every: f64,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        listen: None,
        uds: None,
        first: 0,
        count: 1,
        total: 0,
        peers: Vec::new(),
        refresh: 0.2,
        status_every: 0.25,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = || -> Result<f64, String> {
            let v: f64 = value()?
                .parse()
                .map_err(|_| format!("{flag} needs a number"))?;
            (v.is_finite() && v > 0.0)
                .then_some(v)
                .ok_or_else(|| format!("{flag} must be a positive finite number"))
        };
        let int = || -> Result<u64, String> {
            value()?
                .parse()
                .map_err(|_| format!("{flag} needs a non-negative integer"))
        };
        match flag {
            "--listen" => o.listen = Some(value()?.clone()),
            "--uds" => o.uds = Some(value()?.clone()),
            "--first" => o.first = int()?,
            "--count" => o.count = int()?,
            "--total" => o.total = int()?,
            "--peers" => o.peers.extend(value()?.split(',').map(str::to_string)),
            "--refresh" => o.refresh = num()?,
            "--status-every" => o.status_every = num()?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    if o.count == 0 {
        return Err("--count must be at least 1".to_string());
    }
    // Bounded before anything is sized from them: a flag is input.
    let end = o.first.saturating_add(o.count);
    if o.total == 0 {
        o.total = end;
    }
    if o.total > MAX_TOTAL {
        return Err(format!(
            "--total {} (default: --first + --count) exceeds the limit {MAX_TOTAL}: the \
             complete graph over 0..total is built up front, O(total²) edges",
            o.total
        ));
    }
    if end > o.total {
        return Err(format!(
            "hosted IDs --first {} + --count {} exceed --total {}",
            o.first, o.count, o.total
        ));
    }
    if o.listen.is_some() == o.uds.is_some() {
        return Err("exactly one of --listen or --uds is required".to_string());
    }
    Ok(o)
}

/// A connected, non-blocking byte stream: TCP or Unix-domain.
trait Stream: Read + Write {}
impl<T: Read + Write> Stream for T {}

type Conn = (ConnId, Box<dyn Stream>);

/// Writes as much of `outbox` as the socket accepts, draining what went
/// out. `false` means the connection is dead.
fn flush(stream: &mut dyn Stream, outbox: &mut Vec<u8>) -> bool {
    while !outbox.is_empty() {
        match stream.write(outbox) {
            Ok(0) => return false,
            Ok(n) => {
                outbox.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// The daemon's listening socket.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    /// The next pending connection, made non-blocking.
    fn accept(&self) -> Option<std::io::Result<Box<dyn Stream>>> {
        match self {
            Listener::Tcp(l) => l.accept().ok().map(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Box::new(s) as Box<dyn Stream>)
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().ok().map(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Box::new(s) as Box<dyn Stream>)
            }),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Registers `stream` with the daemon and sends its HELLO.
fn connect(daemon: &mut Daemon, mut stream: Box<dyn Stream>) -> Conn {
    let id = daemon.open();
    flush(&mut *stream, daemon.outbox(id));
    (id, stream)
}

/// Flushes every connection's outbox, closing those whose write failed.
fn flush_all(daemon: &mut Daemon, conns: &mut Vec<Conn>) {
    conns.retain_mut(|(id, stream)| {
        let alive = flush(&mut **stream, daemon.outbox(*id));
        if !alive {
            daemon.close(*id);
        }
        alive
    });
}

fn run(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let mut daemon = Daemon::new(o.first, o.count, o.total, o.refresh);

    // Transport: bind, announce, dial.
    let listener = match (&o.listen, &o.uds) {
        (Some(addr), None) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("cannot configure {addr}: {e}"))?;
            let bound = l
                .local_addr()
                .map_err(|e| format!("cannot read bound address: {e}"))?;
            println!("listening {bound}");
            Listener::Tcp(l)
        }
        #[cfg(unix)]
        (None, Some(path)) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("cannot configure {path}: {e}"))?;
            println!("listening unix:{path}");
            Listener::Unix(l, path.clone())
        }
        _ => return Err("exactly one of --listen or --uds is required".to_string()),
    };
    let mut conns: Vec<Conn> = Vec::new();
    for peer in &o.peers {
        conns.push(connect(&mut daemon, dial(peer)?));
    }

    // Stdin watcher: EOF is the graceful-shutdown request (the harness
    // closes our stdin; no signal handler needed).
    let stdin_closed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stdin_closed);
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        flag.store(true, Ordering::Release);
    });

    // The event loop: real time in, bytes out.
    let start = Instant::now();
    let now = || SimTime::from_secs(start.elapsed().as_secs_f64());
    let mut scratch = vec![0u8; 4096];
    let mut status = String::new();
    let mut next_status = 0.0f64;
    let mut shutdown_seen = false;
    while !(stdin_closed.load(Ordering::Acquire) || shutdown_seen) {
        while let Some(accepted) = listener.accept() {
            match accepted {
                Ok(stream) => conns.push(connect(&mut daemon, stream)),
                Err(e) => eprintln!("gcs-node: dropping inbound connection: {e}"),
            }
        }

        // Each connection is read until it would block, every read decoded
        // before the next, so reassembly never holds more than one frame.
        let t = now();
        conns.retain_mut(|(id, stream)| loop {
            let n = match stream.read(&mut scratch) {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // End of stream, or a broken one.
                _ => {
                    daemon.close(*id);
                    return false;
                }
            };
            match daemon.on_bytes(*id, t, &scratch[..n]) {
                Verdict::Open => {}
                Verdict::Shutdown => shutdown_seen = true,
                Verdict::Dropped(reason) => {
                    eprintln!("gcs-node: dropping {reason}");
                    return false;
                }
            }
        });

        let t = now();
        daemon.step(t);
        flush_all(&mut daemon, &mut conns);

        if t.as_secs() >= next_status {
            next_status = t.as_secs() + o.status_every;
            status.clear();
            daemon.status(t, &mut status);
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(status.as_bytes());
            let _ = out.flush();
        }

        std::thread::sleep(Duration::from_millis(2));
    }

    // Graceful exit: wave goodbye, give the frames a moment to drain.
    daemon.shutdown();
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline && daemon.has_output() {
        flush_all(&mut daemon, &mut conns);
        std::thread::sleep(Duration::from_millis(5));
    }
    #[cfg(unix)]
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    println!("shutdown clean");
    Ok(())
}

fn dial(peer: &str) -> Result<Box<dyn Stream>, String> {
    let configure = |e| format!("cannot configure {peer}: {e}");
    if let Some(path) = peer.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let s = UnixStream::connect(path).map_err(|e| format!("cannot dial {peer}: {e}"))?;
            s.set_nonblocking(true).map_err(configure)?;
            return Ok(Box::new(s));
        }
        #[cfg(not(unix))]
        return Err(format!("unix sockets unsupported on this platform: {peer}"));
    }
    let s = TcpStream::connect(peer).map_err(|e| format!("cannot dial {peer}: {e}"))?;
    s.set_nonblocking(true).map_err(configure)?;
    Ok(Box::new(s))
}
