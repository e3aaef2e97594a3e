//! `gcs-node` — the sans-IO protocol core behind a real transport.
//!
//! One OS process hosts a contiguous block of virtual nodes
//! ([`gcs_protocol::NodeCore`]) and exchanges length-prefixed
//! [`gcs_protocol::wire`] frames with peer processes over TCP or Unix
//! domain sockets. The daemon owns exactly what the sans-IO core
//! abstracts away — a wall clock and sockets — and nothing else: every
//! protocol decision (flood scheduling, §3.1 delivery, bound merges,
//! mode triggers) is a `gcs_protocol::handlers` call made by `NodeCore`,
//! the same functions the deterministic simulation engines call.
//!
//! ```sh
//! gcs-node --listen 127.0.0.1:0 --first 0 --count 2 --total 6
//! gcs-node --uds /tmp/gcs-b.sock --first 2 --count 2 --total 6 \
//!          --peers 127.0.0.1:47001
//! ```
//!
//! Protocol on stdout (one line each, parseable by the loopback harness):
//!
//! * `listening <addr>` — printed once the socket is bound.
//! * `status id=<id> t=<secs> logical=<L> max_est=<M> mode=<fast|slow>
//!   rejected=<n> peers_heard=<n>` — per hosted node, every
//!   `--status-every` seconds; `rejected` counts the messages the §3.1
//!   delivery rule has dropped at that node so far.
//! * `shutdown clean` — printed on the graceful exit path.
//!
//! Shutdown: the daemon exits cleanly (code 0) when its stdin reaches
//! EOF or when any peer sends a SHUTDOWN frame; it broadcasts SHUTDOWN
//! to its peers on the way out. SIGTERM terminates it immediately via
//! the default disposition (the harness treats that as the hard-stop
//! path and asserts promptness, not gracefulness).
//!
//! Peers are untrusted. A connection announces its node range in one
//! HELLO and may then only send FLOODs from nodes in that range; a
//! corrupt frame, an out-of-cluster range, a second HELLO, or a FLOOD
//! from an unannounced node drops that connection with a
//! `gcs-node: dropping …` line on stderr, and the daemon keeps running.
//!
//! Exit codes: 0 = clean shutdown, 1 = configuration or socket error.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_protocol::runtime::{derive_run_config, Send as CoreSend};
use gcs_protocol::wire::{Frame, FrameReader};
use gcs_protocol::{EstimateMode, FloodMsg, Mode, NodeCore, Params};
use gcs_sim::SimTime;

const USAGE: &str = "\
gcs-node — socket daemon hosting virtual gradient-clock-sync nodes

USAGE:
    gcs-node (--listen ADDR | --uds PATH) --first N --count K --total M
             [--peers ADDR[,ADDR...]] [--rho R] [--mu U] [--refresh S]
             [--epsilon E] [--tau S] [--delay-max S]
             [--status-every S] [--time-scale X] [--no-drift]

    --listen ADDR     bind a TCP listener (port 0 picks a free port)
    --uds PATH        bind a Unix domain socket listener instead
    --first N         first hosted virtual node ID        (default 0)
    --count K         number of hosted virtual nodes      (default 1)
    --total M         cluster-wide node count, <= 1024    (default first+count)
    --peers LIST      comma list of peer daemons to dial; TCP addresses,
                      or unix:PATH for Unix domain sockets
    --rho R           hardware drift bound                (default 1e-3)
    --mu U            fast-mode rate boost                (default 0.1)
    --refresh S       flood refresh period, seconds       (default 0.2)
    --epsilon E       estimate uncertainty                (default 1e-3)
    --tau S           edge detection delay                (default 0.05)
    --delay-max S     message delay upper bound           (default 0.05)
    --status-every S  status print period, seconds        (default 0.25)
    --time-scale X    run-clock seconds per wall second   (default 1)
    --no-drift        host every node at hardware rate 1.0 instead of
                      deterministically spread over [1-rho, 1+rho]

The cluster topology is the complete graph over IDs 0..M: every hosted
node treats every other ID as a fully inserted neighbour.
";

/// The largest `--total`: the daemon wires the complete graph over
/// `0..total`, so `run` allocates O(total²) edges before it binds — about
/// half a million at this cap. It also keeps every ID inside `u32`.
const MAX_TOTAL: u64 = 1024;

struct Options {
    listen: Option<String>,
    uds: Option<String>,
    first: u64,
    count: u64,
    total: u64,
    peers: Vec<String>,
    rho: f64,
    mu: f64,
    refresh: f64,
    epsilon: f64,
    tau: f64,
    delay_max: f64,
    status_every: f64,
    time_scale: f64,
    drift: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        listen: None,
        uds: None,
        first: 0,
        count: 1,
        total: 0,
        peers: Vec::new(),
        rho: 1e-3,
        mu: 0.1,
        refresh: 0.2,
        epsilon: 1e-3,
        tau: 0.05,
        delay_max: 0.05,
        status_every: 0.25,
        time_scale: 1.0,
        drift: true,
    };
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |args: &[String], i: usize, flag: &str| -> Result<f64, String> {
        let v: f64 = value(args, i, flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{flag} must be a positive finite number"))
        }
    };
    let int = |args: &[String], i: usize, flag: &str| -> Result<u64, String> {
        value(args, i, flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => o.listen = Some(value(args, i, "--listen")?),
            "--uds" => o.uds = Some(value(args, i, "--uds")?),
            "--first" => o.first = int(args, i, "--first")?,
            "--count" => o.count = int(args, i, "--count")?,
            "--total" => o.total = int(args, i, "--total")?,
            "--peers" => o
                .peers
                .extend(value(args, i, "--peers")?.split(',').map(str::to_string)),
            "--rho" => o.rho = num(args, i, "--rho")?,
            "--mu" => o.mu = num(args, i, "--mu")?,
            "--refresh" => o.refresh = num(args, i, "--refresh")?,
            "--epsilon" => o.epsilon = num(args, i, "--epsilon")?,
            "--tau" => o.tau = num(args, i, "--tau")?,
            "--delay-max" => o.delay_max = num(args, i, "--delay-max")?,
            "--status-every" => o.status_every = num(args, i, "--status-every")?,
            "--time-scale" => o.time_scale = num(args, i, "--time-scale")?,
            "--no-drift" => {
                o.drift = false;
                i += 1;
                continue;
            }
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

/// A TCP or Unix-domain byte stream, non-blocking.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

/// The daemon's listening socket.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    fn accept(&self) -> Option<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().ok().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().ok().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// One peer connection: stream, frame reassembly, pending output, and
/// the half-open node-ID range its HELLO announced (for routing).
struct Conn {
    stream: Stream,
    reader: FrameReader,
    outbuf: Vec<u8>,
    range: Option<std::ops::Range<u64>>,
    dead: bool,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            outbuf: Vec::new(),
            range: None,
            dead: false,
        }
    }

    fn owns(&self, id: u64) -> bool {
        self.range.as_ref().is_some_and(|r| r.contains(&id))
    }

    fn queue(&mut self, frame: &Frame) {
        frame.encode(&mut self.outbuf);
    }

    /// Writes as much pending output as the socket accepts.
    fn flush(&mut self) {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads whatever the socket has and returns the decoded frames.
    /// Marks the connection dead on EOF or a corrupt stream.
    fn pump(&mut self, scratch: &mut [u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.reader.extend(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        loop {
            match self.reader.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => {
                    eprintln!("gcs-node: dropping corrupt peer stream: {e}");
                    self.dead = true;
                    break;
                }
            }
        }
        frames
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

/// One hosted virtual node and what the daemon counts about it.
struct Hosted {
    core: NodeCore,
    /// Messages the §3.1 delivery rule dropped at this node.
    rejected: u64,
}

impl Hosted {
    /// Feeds one flood in; the delivery rule is the core's, the verdict
    /// is counted here.
    fn deliver(&mut self, t: SimTime, src: NodeId, sent_at: SimTime, msg: FloodMsg) {
        if self.core.on_message(t, src, sent_at, msg).is_none() {
            self.rejected += 1;
        }
    }
}

/// The [`NodeId`] of a cluster ID below `--total`, which `parse_options`
/// caps at [`MAX_TOTAL`] — so distinct IDs never alias.
fn node_id(id: u64) -> NodeId {
    NodeId(u32::try_from(id).expect("cluster IDs are below MAX_TOTAL"))
}

fn run(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;

    // Shared run constants: the exact derivation the simulation builder
    // uses, over the complete-graph edge universe. `delay_min` is zero —
    // loopback transit can be arbitrarily fast, so the cores take no
    // min-transit credit.
    let base = Params::builder()
        .rho(o.rho)
        .mu(o.mu)
        .refresh_period(o.refresh)
        .build()
        .map_err(|e| format!("invalid parameters: {e}"))?;
    let edge = EdgeParams::try_new(o.epsilon, o.tau, 0.0, o.delay_max)
        .map_err(|e| format!("invalid edge parameters: {e}"))?;
    let edge_params = EdgeParamsMap::uniform(edge);
    let mut universe = Vec::new();
    for a in 0..o.total {
        for b in (a + 1)..o.total {
            universe.push(EdgeKey::new(node_id(a), node_id(b)));
        }
    }
    let cfg = derive_run_config(
        &base,
        EstimateMode::Messages,
        &edge_params,
        &universe,
        usize::try_from(o.total).map_err(|_| "--total is out of range".to_string())?,
    );

    // Hosted cores: hardware rates deterministically spread over
    // [1-rho, 1+rho] by ID (the drift adversary of the model, realized),
    // flood schedules staggered so the cluster does not send in lockstep.
    let mut cores: Vec<Hosted> = (o.first..o.first + o.count)
        .map(|id| {
            let rate = if o.drift && o.total > 1 {
                let spread = (id as f64 / (o.total - 1) as f64) * 2.0 - 1.0;
                1.0 + o.rho * spread
            } else {
                1.0
            };
            let stagger = cfg.refresh * (id + 1) as f64 / (o.total + 1) as f64;
            let mut core = NodeCore::new(
                node_id(id),
                cfg.params.clone(),
                cfg.refresh,
                rate,
                SimTime::from_secs(stagger),
            );
            for peer in 0..o.total {
                if peer != id {
                    let key = EdgeKey::new(node_id(id), node_id(peer));
                    core.add_neighbor(node_id(peer), cfg.edge_info[&key]);
                }
            }
            Hosted { core, rejected: 0 }
        })
        .collect();

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
    let hello = Frame::Hello {
        first: o.first,
        count: o.count,
    };
    let mut conns: Vec<Conn> = Vec::new();
    for peer in &o.peers {
        let stream = dial(peer)?;
        let mut conn = Conn::new(stream);
        conn.queue(&hello);
        conn.flush();
        conns.push(conn);
    }

    // Stdin watcher: EOF is the graceful-shutdown request (the harness
    // closes our stdin; no signal handler needed).
    let stdin_closed = Arc::new(AtomicBool::new(false));
    {
        let flag = Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            flag.store(true, Ordering::Release);
        });
    }

    // The event loop: real time in, frames out.
    let start = Instant::now();
    let now = |start: &Instant| SimTime::from_secs(start.elapsed().as_secs_f64() * o.time_scale);
    let mut scratch = vec![0u8; 4096];
    let mut sends: Vec<CoreSend> = Vec::new();
    let mut next_status = 0.0f64;
    let mut shutdown_seen = false;
    while !(stdin_closed.load(Ordering::Acquire) || shutdown_seen) {
        while let Some(stream) = listener.accept() {
            if let Err(e) = stream.set_nonblocking() {
                eprintln!("gcs-node: dropping inbound connection: {e}");
                continue;
            }
            let mut conn = Conn::new(stream);
            conn.queue(&hello);
            conn.flush();
            conns.push(conn);
        }

        let t = now(&start);
        for conn in &mut conns {
            for frame in conn.pump(&mut scratch) {
                match frame {
                    // A peer's HELLO is input too: a second HELLO, or a
                    // range that overflows or leaves the cluster, drops
                    // the connection.
                    Frame::Hello { first, count } => {
                        if let Some(r) = &conn.range {
                            eprintln!(
                                "gcs-node: dropping peer: second HELLO {first} + {count} after \
                                 {} + {}",
                                r.start,
                                r.end - r.start
                            );
                            conn.dead = true;
                            break;
                        }
                        let end = first.checked_add(count).filter(|&end| end <= o.total);
                        let Some(end) = end else {
                            eprintln!(
                                "gcs-node: dropping peer: HELLO range {first} + {count} exceeds \
                                 --total {}",
                                o.total
                            );
                            conn.dead = true;
                            break;
                        };
                        conn.range = Some(first..end);
                    }
                    // Every legitimate FLOOD follows its sender's HELLO on
                    // the same stream, so a FLOOD from a node the stream
                    // never announced is an impersonation.
                    Frame::Flood {
                        src,
                        dst,
                        sent_at,
                        msg,
                    } => {
                        if !conn.owns(u64::from(src.0)) {
                            match &conn.range {
                                None => eprintln!(
                                    "gcs-node: dropping peer: FLOOD from node {} before any HELLO",
                                    src.0
                                ),
                                Some(r) => eprintln!(
                                    "gcs-node: dropping peer: FLOOD from node {} outside its \
                                     HELLO range {}..{}",
                                    src.0, r.start, r.end
                                ),
                            }
                            conn.dead = true;
                            break;
                        }
                        if let Some(hosted) = core_for(&mut cores, o.first, u64::from(dst.0)) {
                            hosted.deliver(t, src, sent_at, msg);
                        }
                    }
                    Frame::Shutdown => shutdown_seen = true,
                }
            }
        }

        // Drive the cores: floods due now, then a mode decision sweep.
        let t = now(&start);
        sends.clear();
        for hosted in &mut cores {
            hosted.core.poll_sends(t, &mut sends);
        }
        for &s in sends.iter() {
            let dst = u64::from(s.dst.0);
            if let Some(hosted) = core_for(&mut cores, o.first, dst) {
                // Local neighbour: loopback delivery, no wire.
                hosted.deliver(t, s.src, s.sent_at, s.msg);
            } else if let Some(conn) = conns.iter_mut().find(|c| !c.dead && c.owns(dst)) {
                conn.queue(&Frame::Flood {
                    src: s.src,
                    dst: s.dst,
                    sent_at: s.sent_at,
                    msg: s.msg,
                });
            }
        }
        for hosted in &mut cores {
            let _ = hosted.core.evaluate(t);
        }

        for c in &mut conns {
            if !c.dead {
                c.flush();
            }
        }
        conns.retain(|c| !c.dead);

        if t.as_secs() >= next_status {
            next_status = t.as_secs() + o.status_every;
            let mut out = std::io::stdout().lock();
            for hosted in &cores {
                let st = hosted.core.state();
                let heard = st
                    .slots
                    .iter()
                    .filter(|e| e.slot.estimate.is_some())
                    .count();
                let mode = match st.mode() {
                    Mode::Fast => "fast",
                    Mode::Slow => "slow",
                };
                let _ = writeln!(
                    out,
                    "status id={} t={:.6} logical={:.6} max_est={:.6} mode={mode} rejected={} peers_heard={heard}",
                    st.id().0,
                    t.as_secs(),
                    st.logical(),
                    st.max_estimate(),
                    hosted.rejected,
                );
            }
            let _ = out.flush();
        }

        std::thread::sleep(Duration::from_millis(2));
    }

    // Graceful exit: wave goodbye, give the frames a moment to drain.
    for c in &mut conns {
        if !c.dead {
            c.queue(&Frame::Shutdown);
        }
    }
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline && conns.iter().any(|c| !c.dead && !c.outbuf.is_empty()) {
        for c in &mut conns {
            if !c.dead {
                c.flush();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    #[cfg(unix)]
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    println!("shutdown clean");
    Ok(())
}

/// The hosted node for global ID `dst`, if it is local.
fn core_for(cores: &mut [Hosted], first: u64, dst: u64) -> Option<&mut Hosted> {
    dst.checked_sub(first)
        .and_then(|k| usize::try_from(k).ok())
        .and_then(|k| cores.get_mut(k))
}

fn dial(peer: &str) -> Result<Stream, String> {
    if let Some(path) = peer.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let s = UnixStream::connect(path).map_err(|e| format!("cannot dial {peer}: {e}"))?;
            s.set_nonblocking(true)
                .map_err(|e| format!("cannot configure {peer}: {e}"))?;
            return Ok(Stream::Unix(s));
        }
        #[cfg(not(unix))]
        return Err(format!("unix sockets unsupported on this platform: {peer}"));
    }
    let s = TcpStream::connect(peer).map_err(|e| format!("cannot dial {peer}: {e}"))?;
    s.set_nonblocking(true)
        .map_err(|e| format!("cannot configure {peer}: {e}"))?;
    Ok(Stream::Tcp(s))
}
