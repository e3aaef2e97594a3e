//! [`Daemon`]: the `gcs-node` event loop as a sans-IO state machine, and
//! the one definition of the cluster it runs.
//!
//! Everything the daemon decides lives here: the model constants and
//! [`cluster_config`], the per-ID hardware rate and flood stagger, the
//! peer rules, routing, the [`NodeCore`] calls, the §3.1 rejection
//! counters and the `status` text. Time and bytes are the caller's —
//! sockets and a wall clock in `gcs-node`, in-memory pipes and a virtual
//! clock in `tests/daemon_loop.rs`, which get the same bytes every run.

use std::fmt::Write as _;
use std::ops::Range;

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_sim::SimTime;

use crate::estimate::EstimateMode;
use crate::params::Params;
use crate::runtime::{derive_run_config, NodeCore, RunConfig, Send};
use crate::triggers::Mode;
use crate::wire::{Frame, FrameReader, MAX_PAYLOAD};

/// Hardware drift bound `ρ`: hosted rates spread over `[1−ρ, 1+ρ]`.
pub const RHO: f64 = 1e-3;
/// Fast-mode rate boost `µ`.
pub const MU: f64 = 0.1;
/// Per-edge estimate uncertainty `ε`.
pub const EPSILON: f64 = 1e-3;
/// Per-edge detection delay `τ`, seconds.
pub const TAU: f64 = 0.05;
/// Per-edge message delay upper bound, seconds. The lower bound is zero:
/// loopback transit can be arbitrarily fast, so no min-transit credit.
pub const DELAY_MAX: f64 = 0.05;
/// The largest cluster: [`cluster_config`] builds the complete graph over
/// `0..total`, O(total²) edges — about half a million at this cap. It
/// also keeps every ID inside `u32`.
pub const MAX_TOTAL: u64 = 1024;

/// The [`NodeId`] of a cluster ID below [`MAX_TOTAL`].
fn node_id(id: u64) -> NodeId {
    NodeId(u32::try_from(id).expect("cluster IDs are below MAX_TOTAL"))
}

/// The run constants of a `total`-node cluster flooding every `refresh`
/// seconds: [`derive_run_config`] — the simulation builder's derivation —
/// over the complete graph, at this module's model constants.
///
/// # Panics
///
/// If `total` exceeds [`MAX_TOTAL`] or `refresh` is not a positive
/// finite number; callers bound both as input first.
#[must_use]
pub fn cluster_config(total: u64, refresh: f64) -> RunConfig {
    assert!(total <= MAX_TOTAL, "cluster of {total} exceeds MAX_TOTAL");
    let base = Params::builder()
        .rho(RHO)
        .mu(MU)
        .refresh_period(refresh)
        .build()
        .expect("refresh is a positive finite number");
    let edge = EdgeParams::try_new(EPSILON, TAU, 0.0, DELAY_MAX).expect("valid constants");
    let universe: Vec<EdgeKey> = (0..total)
        .flat_map(|a| (a + 1..total).map(move |b| EdgeKey::new(node_id(a), node_id(b))))
        .collect();
    let (edges, n) = (EdgeParamsMap::uniform(edge), total as usize);
    derive_run_config(&base, EstimateMode::Messages, &edges, &universe, n)
}

/// A handle to one connection of a [`Daemon`]. The methods that take one
/// panic if it is not open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnId(u64);

/// What [`Daemon::on_bytes`] made of a connection's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Keep reading.
    Open,
    /// The connection broke a peer rule and is closed; the text completes
    /// `dropping …` (`peer: second HELLO 1 + 1 after 1 + 1`).
    Dropped(String),
    /// The peer sent SHUTDOWN: the daemon should leave.
    Shutdown,
}

/// One peer connection: frame reassembly, pending output, and the
/// half-open ID range its HELLO announced.
#[derive(Debug)]
struct Conn {
    id: ConnId,
    reader: FrameReader,
    outbox: Vec<u8>,
    range: Option<Range<u64>>,
}

impl Conn {
    fn owns(&self, id: u64) -> bool {
        self.range.as_ref().is_some_and(|r| r.contains(&id))
    }

    /// Applies one inbound frame's peer rules; `Err` is the drop reason.
    fn admit(&mut self, frame: &Frame, total: u64) -> Result<(), String> {
        match *frame {
            Frame::Hello { first, count } => {
                if let Some(r) = &self.range {
                    return Err(format!(
                        "peer: second HELLO {first} + {count} after {} + {}",
                        r.start,
                        r.end - r.start
                    ));
                }
                let end = first.checked_add(count).filter(|&end| end <= total);
                let end = end.ok_or_else(|| {
                    format!("peer: HELLO range {first} + {count} exceeds --total {total}")
                })?;
                self.range = Some(first..end);
                Ok(())
            }
            // Every legitimate FLOOD follows its sender's HELLO on the
            // same stream, so one from a node the stream never announced
            // is an impersonation.
            Frame::Flood { src, .. } if !self.owns(u64::from(src.0)) => Err(match &self.range {
                None => format!("peer: FLOOD from node {} before any HELLO", src.0),
                Some(r) => format!(
                    "peer: FLOOD from node {} outside its HELLO range {}..{}",
                    src.0, r.start, r.end
                ),
            }),
            Frame::Flood { .. } | Frame::Shutdown => Ok(()),
        }
    }
}

/// The daemon loop without its I/O: hosted [`NodeCore`]s, per-connection
/// reassembly and outboxes, and the peer rules.
#[derive(Debug)]
pub struct Daemon {
    first: u64,
    total: u64,
    /// Hosted nodes in ID order, each with the number of messages the
    /// §3.1 delivery rule dropped at it.
    cores: Vec<(NodeCore, u64)>,
    /// Open connections in the order they were opened — the order
    /// routing searches.
    conns: Vec<Conn>,
    next_conn: u64,
    sends: Vec<Send>,
}

impl Daemon {
    /// A daemon hosting IDs `[first, first+count)` of the `total`-node
    /// [`cluster_config`] cluster. Node `id` runs at hardware rate
    /// `1 + ρ·(2·id/(total−1) − 1)` — the drift adversary, realized — and
    /// first floods at `refresh·(id+1)/(total+1)`, so the cluster does
    /// not send in lockstep. Every other ID is a fully inserted neighbour.
    ///
    /// # Panics
    ///
    /// If `count` is zero, the block leaves `0..total`, or
    /// [`cluster_config`] panics.
    #[must_use]
    pub fn new(first: u64, count: u64, total: u64, refresh: f64) -> Daemon {
        let end = first.checked_add(count).filter(|&end| end <= total);
        assert!(count > 0 && end.is_some(), "hosted IDs leave 0..{total}");
        let cfg = cluster_config(total, refresh);
        let cores = (first..first + count)
            .map(|id| {
                let rate = if total > 1 {
                    1.0 + RHO * ((id as f64 / (total - 1) as f64) * 2.0 - 1.0)
                } else {
                    1.0
                };
                let stagger =
                    SimTime::from_secs(cfg.refresh * (id + 1) as f64 / (total + 1) as f64);
                let params = cfg.params.clone();
                let mut core = NodeCore::new(node_id(id), params, cfg.refresh, rate, stagger);
                for peer in (0..total).filter(|&peer| peer != id) {
                    let key = EdgeKey::new(node_id(id), node_id(peer));
                    core.add_neighbor(node_id(peer), cfg.edge_info[&key]);
                }
                (core, 0)
            })
            .collect();
        Daemon {
            first,
            total,
            cores,
            conns: Vec::new(),
            next_conn: 0,
            sends: Vec::new(),
        }
    }

    /// Registers a new connection — dialed or accepted, it makes no
    /// difference — with this daemon's HELLO queued in its outbox.
    pub fn open(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        let (first, count) = (self.first, self.cores.len() as u64);
        let outbox = Frame::Hello { first, count }.to_bytes();
        let reader = FrameReader::new();
        self.conns.push(Conn {
            id,
            reader,
            outbox,
            range: None,
        });
        id
    }

    /// Forgets a connection (its peer hung up, or a write failed). A
    /// closed or unknown handle is ignored.
    pub fn close(&mut self, conn: ConnId) {
        self.conns.retain(|c| c.id != conn);
    }

    /// The bytes queued for `conn`; the caller drains what it writes.
    pub fn outbox(&mut self, conn: ConnId) -> &mut Vec<u8> {
        let c = self.conns.iter_mut().find(|c| c.id == conn);
        &mut c.expect("an open connection").outbox
    }

    /// Whether any open connection still has bytes to write.
    #[must_use]
    pub fn has_output(&self) -> bool {
        self.conns.iter().any(|c| !c.outbox.is_empty())
    }

    /// Feeds bytes received on `conn` at `t` and decodes every whole
    /// frame in them before returning, so at most one partial frame stays
    /// buffered whatever the peer sends. A FLOOD reaches its destination
    /// if that is hosted here. A corrupt stream or a broken peer rule
    /// closes the connection and names why.
    pub fn on_bytes(&mut self, conn: ConnId, t: SimTime, bytes: &[u8]) -> Verdict {
        let c = self.conns.iter_mut().find(|c| c.id == conn);
        let c = c.expect("an open connection");
        c.reader.extend(bytes);
        let mut shutdown = false;
        let reason = loop {
            let frame = match c.reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break None,
                Err(e) => break Some(format!("corrupt peer stream: {e}")),
            };
            if let Err(reason) = c.admit(&frame, self.total) {
                break Some(reason);
            }
            deliver(&mut self.cores, self.first, t, &frame);
            shutdown |= frame == Frame::Shutdown;
        };
        debug_assert!(reason.is_some() || c.reader.buffered() < 4 + MAX_PAYLOAD as usize);
        match reason {
            Some(reason) => {
                self.close(conn);
                Verdict::Dropped(reason)
            }
            None if shutdown => Verdict::Shutdown,
            None => Verdict::Open,
        }
    }

    /// One loop turn at `t`: every hosted node emits the floods due,
    /// each is delivered locally or encoded into its route's outbox (a
    /// send with no route yet is dropped, like a lost message), then
    /// every hosted node re-decides its mode.
    pub fn step(&mut self, t: SimTime) {
        self.sends.clear();
        for (core, _) in &mut self.cores {
            core.poll_sends(t, &mut self.sends);
        }
        for s in &self.sends {
            let (src, dst, sent_at, msg) = (s.src, s.dst, s.sent_at, s.msg);
            let frame = Frame::Flood {
                src,
                dst,
                sent_at,
                msg,
            };
            if deliver(&mut self.cores, self.first, t, &frame) {
                continue;
            }
            if let Some(c) = self.conns.iter_mut().find(|c| c.owns(u64::from(dst.0))) {
                frame.encode(&mut c.outbox);
            }
        }
        for (core, _) in &mut self.cores {
            let _ = core.evaluate(t);
        }
    }

    /// Queues SHUTDOWN on every open connection: the goodbye before exit.
    pub fn shutdown(&mut self) {
        for c in &mut self.conns {
            Frame::Shutdown.encode(&mut c.outbox);
        }
    }

    /// Appends one `status` line per hosted node at `t`:
    /// `status id=<id> t=<secs> logical=<L> max_est=<M> mode=<fast|slow>
    /// rejected=<n> peers_heard=<n>`.
    pub fn status(&self, t: SimTime, out: &mut String) {
        for (core, rejected) in &self.cores {
            let st = core.state();
            let slots = st.slots.iter();
            let heard = slots.filter(|e| e.slot.estimate.is_some()).count();
            let mode = match st.mode() {
                Mode::Fast => "fast",
                Mode::Slow => "slow",
            };
            let _ = writeln!(
                out,
                "status id={} t={:.6} logical={:.6} max_est={:.6} mode={mode} rejected={rejected} peers_heard={heard}",
                st.id().0,
                t.as_secs(),
                st.logical(),
                st.max_estimate(),
            );
        }
    }
}

/// Feeds a FLOOD to its destination if that is hosted, counting a §3.1
/// rejection; returns whether it was hosted.
fn deliver(cores: &mut [(NodeCore, u64)], first: u64, t: SimTime, frame: &Frame) -> bool {
    let Frame::Flood {
        src,
        dst,
        sent_at,
        msg,
    } = *frame
    else {
        return false;
    };
    let k = u64::from(dst.0).checked_sub(first);
    let Some((core, rejected)) = k.and_then(|k| cores.get_mut(usize::try_from(k).ok()?)) else {
        return false;
    };
    if core.on_message(t, src, sent_at, msg).is_none() {
        *rejected += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::FloodMsg;

    const REFRESH: f64 = 0.2;

    fn flood(src: u32, dst: u32) -> Vec<u8> {
        Frame::Flood {
            src: NodeId(src),
            dst: NodeId(dst),
            sent_at: SimTime::ZERO,
            msg: FloodMsg {
                logical: 1.0,
                max_est: 1.0,
                min_lb: 1.0,
                max_ub: 1.0,
            },
        }
        .to_bytes()
    }

    fn hello(first: u64, count: u64) -> Vec<u8> {
        Frame::Hello { first, count }.to_bytes()
    }

    /// One fresh connection to a daemon hosting node 0 of 3.
    fn peer() -> (Daemon, ConnId) {
        let mut d = Daemon::new(0, 1, 3, REFRESH);
        let c = d.open();
        (d, c)
    }

    fn dropped(reason: &str) -> Verdict {
        Verdict::Dropped(reason.to_string())
    }

    #[test]
    fn hostile_input_drops_the_connection_with_the_printed_reason() {
        let mut nan_flood = flood(1, 0);
        nan_flood[21..29].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let cases = [
            (
                nan_flood,
                "corrupt peer stream: flood field sent_at is not a finite, in-range number",
            ),
            (hello(2, 2), "peer: HELLO range 2 + 2 exceeds --total 3"),
            (
                hello(u64::MAX, 2),
                "peer: HELLO range 18446744073709551615 + 2 exceeds --total 3",
            ),
            (
                [hello(1, 1), hello(1, 1)].concat(),
                "peer: second HELLO 1 + 1 after 1 + 1",
            ),
            (flood(1, 0), "peer: FLOOD from node 1 before any HELLO"),
            (
                [hello(1, 1), flood(2, 0)].concat(),
                "peer: FLOOD from node 2 outside its HELLO range 1..2",
            ),
        ];
        for (bytes, reason) in cases {
            let (mut d, c) = peer();
            assert_eq!(d.on_bytes(c, SimTime::ZERO, &bytes), dropped(reason));
            assert!(d.conns.is_empty(), "{reason}: the connection is closed");
        }
    }

    #[test]
    fn shutdown_is_reported_and_the_legitimate_peer_stays_open() {
        let (mut d, c) = peer();
        let ok = [hello(1, 2), flood(1, 0), flood(2, 0)].concat();
        assert_eq!(d.on_bytes(c, SimTime::ZERO, &ok), Verdict::Open);
        assert_eq!(d.cores[0].1, 0);
        let bye = Frame::Shutdown.to_bytes();
        assert_eq!(d.on_bytes(c, SimTime::ZERO, &bye), Verdict::Shutdown);
        d.shutdown();
        assert!(d.outbox(c).ends_with(&bye));
    }

    #[test]
    fn one_call_decodes_everything_it_is_given() {
        let (mut d, c) = peer();
        let mut bytes = hello(1, 2);
        for _ in 0..1000 {
            bytes.extend(flood(1, 0));
        }
        let half = flood(2, 0);
        bytes.extend(&half[..half.len() / 2]);
        assert_eq!(d.on_bytes(c, SimTime::ZERO, &bytes), Verdict::Open);
        assert!(d.conns[0].reader.buffered() < 5 + MAX_PAYLOAD as usize);
    }

    /// A turn's FLOOD bytes are the hosted cores' sends, in poll order,
    /// encoded as they were: hosted IDs ascending, each core's neighbours
    /// ascending, local destinations delivered instead.
    #[test]
    fn a_turn_encodes_the_cores_sends_in_poll_order() {
        let mut d = Daemon::new(0, 2, 4, REFRESH);
        let c = d.open();
        let hello_len = d.outbox(c).len();
        assert_eq!(d.on_bytes(c, SimTime::ZERO, &hello(2, 2)), Verdict::Open);
        let t = SimTime::from_secs(REFRESH);
        d.step(t);

        let mut twin = Daemon::new(0, 2, 4, REFRESH);
        let mut sends = Vec::new();
        for (core, _) in &mut twin.cores {
            core.poll_sends(t, &mut sends);
        }
        let mut expected = Vec::new();
        for s in sends.into_iter().filter(|s| s.dst.0 >= 2) {
            Frame::Flood {
                src: s.src,
                dst: s.dst,
                sent_at: s.sent_at,
                msg: s.msg,
            }
            .encode(&mut expected);
        }
        assert_eq!(expected.len(), 4 * 61);
        assert_eq!(&d.outbox(c)[hello_len..], &expected[..]);
    }

    #[test]
    fn sends_route_to_the_first_open_connection_that_announced_them() {
        let mut d = Daemon::new(0, 1, 2, REFRESH);
        let (a, b) = (d.open(), d.open());
        for c in [a, b] {
            assert_eq!(d.on_bytes(c, SimTime::ZERO, &hello(1, 1)), Verdict::Open);
        }
        let hello_len = d.outbox(a).len();
        d.step(SimTime::from_secs(REFRESH));
        assert_eq!(d.outbox(a).len(), hello_len + 61);
        assert_eq!(d.outbox(b).len(), hello_len);
        d.close(a);
        d.step(SimTime::from_secs(3.0 * REFRESH));
        assert_eq!(d.outbox(b).len(), hello_len + 61);
    }

    #[test]
    fn status_reports_every_hosted_node() {
        let d = Daemon::new(2, 2, 4, REFRESH);
        let mut out = String::new();
        d.status(SimTime::from_secs(0.5), &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("status id=3 t=0.500000 logical="));
        assert!(lines[1].ends_with(" rejected=0 peers_heard=0"));
    }
}
