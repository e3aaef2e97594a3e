//! The daemon loop under virtual time: three `Daemon`s × two nodes in one
//! process, joined pairwise by in-memory byte pipes and stepped like
//! `gcs-node` steps them — every connection read dry in 4096-byte reads,
//! `step`, flush, a 2 ms turn — with no sockets, no wall clock and no
//! sleep. The same cluster runs twice to the same bytes, completes its
//! mesh and fits the Theorem 5.22 envelope; with one pipe cut, the mesh
//! check fails. Two daemons × 128 nodes carry ~5 MB/s each way and must
//! keep up: no byte waits unread longer than the delay bound.

use std::collections::{BTreeMap, VecDeque};

use gcs_protocol::daemon::{cluster_config, ConnId, Daemon, Verdict, DELAY_MAX};
use gradient_clock_sync::sim::SimTime;

const REFRESH: f64 = 0.2;
/// `gcs-node`'s fixed sleep between turns.
const STEP: f64 = 0.002;
/// A status round every 0.1 s, as `node-smoke` asks for.
const STATUS_EVERY: u32 = 50;
/// What one `read` of `gcs-node` hands the daemon at most.
const READ: usize = 4096;

/// One end of a pipe: this daemon's connection, the far end, and the
/// writes of the far end that this end has not read yet, with their turn.
struct End {
    conn: ConnId,
    peer: usize,
    peer_conn: ConnId,
    inbox: VecDeque<(u32, Vec<u8>)>,
}

/// What a run leaves behind: every status line, every byte written, and
/// the longest a written byte waited before it was read, in seconds.
struct Run {
    status: String,
    wire: Vec<u8>,
    lag: f64,
}

/// Runs `procs` daemons of `per_proc` nodes each for `turns` turns.
/// Bytes daemon `from` writes to daemon `to` are never delivered when
/// `cut` is `Some((from, to))`.
fn run(procs: u64, per_proc: u64, turns: u32, cut: Option<(usize, usize)>) -> Run {
    let total = procs * per_proc;
    let mut daemons: Vec<Daemon> = (0..procs)
        .map(|p| Daemon::new(p * per_proc, per_proc, total, REFRESH))
        .collect();
    // Each daemon dials every earlier one, as `node-smoke` spawns them.
    let mut ends: Vec<Vec<End>> = (0..procs).map(|_| Vec::new()).collect();
    for b in 0..daemons.len() {
        for a in 0..b {
            let cb = daemons[b].open();
            let ca = daemons[a].open();
            let end = |conn, peer, peer_conn| End {
                conn,
                peer,
                peer_conn,
                inbox: VecDeque::new(),
            };
            ends[b].push(end(cb, a, ca));
            ends[a].push(end(ca, b, cb));
        }
    }

    let mut out = Run {
        status: String::new(),
        wire: Vec::new(),
        lag: 0.0,
    };
    for turn in 0..=turns {
        let t = SimTime::from_secs(f64::from(turn) * STEP);
        for (d, ends) in daemons.iter_mut().zip(&mut ends) {
            for end in ends.iter_mut() {
                for (written, write) in end.inbox.drain(..) {
                    out.lag = out.lag.max(f64::from(turn - written) * STEP);
                    for bytes in write.chunks(READ) {
                        assert_eq!(d.on_bytes(end.conn, t, bytes), Verdict::Open);
                    }
                }
            }
        }
        let mut carried = Vec::new();
        for (p, d) in daemons.iter_mut().enumerate() {
            d.step(t);
            for end in &ends[p] {
                let bytes = std::mem::take(d.outbox(end.conn));
                out.wire.extend(&bytes);
                if cut != Some((p, end.peer)) {
                    carried.push((end.peer, end.peer_conn, bytes));
                }
            }
        }
        for (peer, conn, bytes) in carried {
            let end = ends[peer].iter_mut().find(|e| e.conn == conn).unwrap();
            end.inbox.push_back((turn, bytes));
        }
        if turn % STATUS_EVERY == 0 {
            for d in &daemons {
                d.status(t, &mut out.status);
            }
        }
    }
    out
}

/// `node-smoke`'s verdict on a run: every node heard every other, none
/// rejected a message, and the spread of the newest logical clocks,
/// extrapolated to one instant, fits the Thm 5.22 pairwise envelope.
fn check(run: &Run, total: u64) -> Result<f64, String> {
    let mut latest = BTreeMap::new();
    for line in run.status.lines() {
        let field = |key: &str| -> f64 {
            let rest = line.split(&format!(" {key}=")).nth(1).unwrap();
            rest.split(' ').next().unwrap().parse().unwrap()
        };
        let id = field("id") as u64;
        latest.insert(
            id,
            [
                field("t"),
                field("logical"),
                field("peers_heard"),
                field("rejected"),
            ],
        );
    }
    assert_eq!(latest.len() as u64, total);
    for (id, [_, _, heard, rejected]) in &latest {
        if *heard as u64 != total - 1 {
            return Err(format!("node {id} heard {heard} of {} peers", total - 1));
        }
        if *rejected != 0.0 {
            return Err(format!("node {id} rejected {rejected} message(s)"));
        }
    }
    let t_ref = latest
        .values()
        .map(|s| s[0])
        .fold(f64::NEG_INFINITY, f64::max);
    let adjusted: Vec<f64> = latest.values().map(|s| s[1] + (t_ref - s[0])).collect();
    let skew = adjusted.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - adjusted.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let cfg = cluster_config(total, REFRESH);
    let kappa = cfg
        .edge_info
        .classes()
        .iter()
        .map(|e| e.kappa)
        .fold(0.0, f64::max);
    let envelope = gcs_analysis::gradient_bound(&cfg.params, cfg.params.g_tilde().unwrap(), kappa);
    if skew > envelope {
        return Err(format!("skew {skew} exceeds the envelope {envelope}"));
    }
    Ok(skew)
}

#[test]
fn a_virtual_time_cluster_runs_to_identical_bytes_and_conforms() {
    let a = run(3, 2, 2000, None);
    let b = run(3, 2, 2000, None);
    assert_eq!(a.status, b.status);
    assert!(a.wire == b.wire, "the wire bytes differ between runs");
    // Every directed pair of daemons carries a HELLO plus 20 refresh
    // rounds of 2 x 2 floods (61 bytes each) over 4 s.
    assert!(a.wire.len() > 6 * 20 * 4 * 61, "{} bytes", a.wire.len());
    let skew = check(&a, 6).unwrap();
    assert!(a.lag <= DELAY_MAX, "bytes waited {} s", a.lag);
    assert!(skew > 0.0, "the drift spread must show");
}

#[test]
fn a_pipe_never_delivered_fails_the_mesh_check() {
    let cut = run(3, 2, 2000, Some((2, 0)));
    assert_eq!(check(&cut, 6).unwrap_err(), "node 0 heard 3 of 5 peers");
}

/// 128 nodes flooding 128 remote peers every 0.2 s put 128 × 128 × 61 B
/// / 0.2 s ≈ 5 MB/s on each direction of the pipe; reading a connection
/// dry every turn keeps every byte's wait inside `DELAY_MAX`. (A cap of
/// one 4096-byte read per turn carries 2 MB/s and falls behind.)
#[test]
fn two_daemons_of_128_nodes_keep_up_with_their_flood_traffic() {
    let run = run(2, 128, 500, None);
    assert!(run.wire.len() > 4_000_000, "{} bytes", run.wire.len());
    check(&run, 256).unwrap();
    assert!(run.lag <= DELAY_MAX, "bytes waited {} s", run.lag);
}
