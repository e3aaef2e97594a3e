//! `node-loopback`: `NodeCore`s driven the way `gcs-node`'s event loop
//! drives them — inbound frames to `on_message`, `poll_sends`, local
//! delivery or `Frame::encode` into the peer's byte pipe, `evaluate` — on
//! a virtual clock, with no sockets and no sleep.

use std::time::Instant;

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_protocol::runtime::{derive_run_config, Send};
use gcs_protocol::wire::{Frame, FrameReader};
use gcs_protocol::{EstimateMode, Mode, NodeCore, Params};
use gcs_sim::rng::derive_seed;
use gcs_sim::SimTime;
use gcs_telemetry::Fnv1a;

use crate::trace::Tracer;
use crate::workloads::{Rep, Slice, SLICES};

const HOSTS: usize = 2;
const PER_HOST: usize = 32;
const TOTAL: usize = HOSTS * PER_HOST;
/// The daemon's sleep between loop iterations, here a virtual-clock step.
const STEP: f64 = 0.002;

// `gcs-node`'s defaults (`parse_options` in `src/bin/gcs_node.rs`).
const RHO: f64 = 1e-3;
const MU: f64 = 0.1;
const REFRESH: f64 = 0.2;
const EPSILON: f64 = 1e-3;
const TAU: f64 = 0.05;
const DELAY_MAX: f64 = 0.05;

/// Call time and call count of one kind of call, within one slice.
#[derive(Clone, Copy)]
struct Batch {
    name: &'static str,
    first: Option<Instant>,
    last: Instant,
    busy: f64,
    calls: u64,
}

impl Batch {
    fn new(name: &'static str) -> Self {
        Batch {
            name,
            first: None,
            last: Instant::now(),
            busy: 0.0,
            calls: 0,
        }
    }

    fn add(&mut self, start: Instant, calls: u64) {
        self.last = Instant::now();
        self.first.get_or_insert(start);
        self.busy += self.last.duration_since(start).as_secs_f64();
        self.calls += calls;
    }

    /// Hands the slice's total to the tracer and the run totals.
    fn flush(&mut self, tr: &mut Tracer, total: &mut (f64, u64)) {
        if let Some(first) = self.first {
            tr.aggregate(self.name, first, self.last, self.busy, self.calls);
        }
        total.0 += self.busy;
        total.1 += self.calls;
        *self = Batch::new(self.name);
    }
}

const EVALUATE: usize = 0;
const ON_MESSAGE: usize = 1;
const POLL_SENDS: usize = 2;
const ENCODE: usize = 3;
const DECODE: usize = 4;
const BATCHES: [(&str, &str); 5] = [
    (
        "protocol.nodecore_evaluate",
        "protocol.nodecore_evaluate_ns",
    ),
    (
        "protocol.nodecore_on_message",
        "protocol.nodecore_on_message_ns",
    ),
    (
        "protocol.nodecore_poll_sends",
        "protocol.nodecore_poll_sends_ns",
    ),
    ("protocol.wire_encode", "protocol.wire_encode_ns"),
    ("protocol.wire_decode", "protocol.wire_decode_ns"),
];

struct Host {
    first: usize,
    cores: Vec<NodeCore>,
    reader: FrameReader,
    /// Bytes the peer host wrote and this host has not read yet.
    pipe: Vec<u8>,
}

fn node(id: usize) -> NodeId {
    NodeId(id as u32)
}

/// The cluster as the daemons would configure it. The daemon spreads
/// hardware rates over `[1-rho, 1+rho]` and staggers first floods by node
/// ID; here a permutation drawn from `seed` decides which node gets which
/// place in that spread.
fn cluster(seed: u64) -> Result<Vec<Host>, String> {
    let base = Params::builder()
        .rho(RHO)
        .mu(MU)
        .refresh_period(REFRESH)
        .build()
        .map_err(|e| e.to_string())?;
    let edge = EdgeParams::try_new(EPSILON, TAU, 0.0, DELAY_MAX).map_err(|e| e.to_string())?;
    let mut universe = Vec::with_capacity(TOTAL * (TOTAL - 1) / 2);
    for a in 0..TOTAL {
        for b in a + 1..TOTAL {
            universe.push(EdgeKey::new(node(a), node(b)));
        }
    }
    let cfg = derive_run_config(
        &base,
        EstimateMode::Messages,
        &EdgeParamsMap::uniform(edge),
        &universe,
        TOTAL,
    );
    let mut place: Vec<usize> = (0..TOTAL).collect();
    place.sort_by_key(|&id| derive_seed(seed, "node-loopback", id as u64));
    Ok((0..HOSTS)
        .map(|h| {
            let first = h * PER_HOST;
            let cores = (first..first + PER_HOST)
                .map(|id| {
                    let p = place[id] as f64;
                    let rate = 1.0 + RHO * (p / (TOTAL - 1) as f64 * 2.0 - 1.0);
                    let stagger = cfg.refresh * (p + 1.0) / (TOTAL + 1) as f64;
                    let mut core = NodeCore::new(
                        node(id),
                        cfg.params.clone(),
                        cfg.refresh,
                        rate,
                        SimTime::from_secs(stagger),
                    );
                    for peer in (0..TOTAL).filter(|&peer| peer != id) {
                        core.add_neighbor(
                            node(peer),
                            cfg.edge_info[&EdgeKey::new(node(id), node(peer))],
                        );
                    }
                    core
                })
                .collect();
            Host {
                first,
                cores,
                reader: FrameReader::new(),
                pipe: Vec::new(),
            }
        })
        .collect())
}

/// One repetition: build the cluster and, if `full`, drive it for
/// `window` virtual seconds.
pub fn rep(seed: u64, window: f64, full: bool, tr: &mut Tracer) -> Result<Rep, String> {
    let mut rep = Rep {
        nodes: TOTAL,
        ..Rep::default()
    };
    let open = tr.begin("setup");
    let mut hosts = cluster(seed)?;
    rep.setup_s = tr.end(open);
    if !full {
        return Ok(rep);
    }

    let steps = (window / STEP).round() as usize;
    let mut batches = BATCHES.map(|(span, _)| Batch::new(span));
    let mut totals = [(0.0f64, 0u64); 5];
    let mut rejected = 0u64;
    let mut sends: Vec<Send> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut inbound: Vec<u8> = Vec::new();
    let mut corrupt = false;
    let window_span = tr.begin("window");
    for slice in 0..SLICES {
        let open = tr.begin("loopback.slice");
        // An event is one `NodeCore` entry call that did work: an
        // `evaluate`, an accepted `on_message`, a `poll_sends` that emitted.
        let mut events = 0u64;
        for step in slice * steps / SLICES..(slice + 1) * steps / SLICES {
            let t = SimTime::from_secs((step + 1) as f64 * STEP);
            for h in 0..HOSTS {
                // Inbound: whatever the peer wrote since our last turn.
                std::mem::swap(&mut inbound, &mut hosts[h].pipe);
                let start = Instant::now();
                hosts[h].reader.extend(&inbound);
                inbound.clear();
                frames.clear();
                loop {
                    match hosts[h].reader.next_frame() {
                        Ok(Some(f)) => frames.push(f),
                        Ok(None) => break,
                        Err(_) => {
                            corrupt = true;
                            break;
                        }
                    }
                }
                batches[DECODE].add(start, frames.len() as u64);

                let first = hosts[h].first;
                let start = Instant::now();
                for frame in &frames {
                    if let Frame::Flood {
                        src,
                        dst,
                        sent_at,
                        msg,
                    } = *frame
                    {
                        let core = &mut hosts[h].cores[dst.0 as usize - first];
                        match core.on_message(t, src, sent_at, msg) {
                            Some(_) => events += 1,
                            None => rejected += 1,
                        }
                    }
                }
                batches[ON_MESSAGE].add(start, frames.len() as u64);

                // Floods due now.
                sends.clear();
                let start = Instant::now();
                for core in &mut hosts[h].cores {
                    let had = sends.len();
                    core.poll_sends(t, &mut sends);
                    events += u64::from(sends.len() > had);
                }
                batches[POLL_SENDS].add(start, PER_HOST as u64);

                // Local neighbours get theirs without a wire; the daemon
                // interleaves these with the encodes below, which touch
                // no core, so splitting the loop changes no outcome.
                let local = |s: &Send| (first..first + PER_HOST).contains(&(s.dst.0 as usize));
                let start = Instant::now();
                let mut delivered = 0;
                for s in sends.iter().filter(|s| local(s)) {
                    let core = &mut hosts[h].cores[s.dst.0 as usize - first];
                    match core.on_message(t, s.src, s.sent_at, s.msg) {
                        Some(_) => events += 1,
                        None => rejected += 1,
                    }
                    delivered += 1;
                }
                batches[ON_MESSAGE].add(start, delivered);

                let start = Instant::now();
                let mut encoded = 0;
                let pipe = &mut hosts[1 - h].pipe;
                for s in sends.iter().filter(|s| !local(s)) {
                    Frame::Flood {
                        src: s.src,
                        dst: s.dst,
                        sent_at: s.sent_at,
                        msg: s.msg,
                    }
                    .encode(pipe);
                    encoded += 1;
                }
                batches[ENCODE].add(start, encoded);

                let start = Instant::now();
                for core in &mut hosts[h].cores {
                    std::hint::black_box(core.evaluate(t));
                }
                batches[EVALUATE].add(start, PER_HOST as u64);
                events += PER_HOST as u64;
            }
        }
        let work_secs: f64 = batches.iter().map(|b| b.busy).sum();
        for (batch, total) in batches.iter_mut().zip(totals.iter_mut()) {
            batch.flush(tr, total);
        }
        let secs = tr.end(open);
        rep.slices.push(Slice {
            events,
            secs,
            work_secs,
        });
    }
    tr.end(window_span);

    let mut h = Fnv1a::new();
    for core in hosts.iter().flat_map(|h| &h.cores) {
        let st = core.state();
        h.update(&st.logical().to_bits().to_le_bytes());
        h.update(&st.max_estimate().to_bits().to_le_bytes());
        h.update(&[u8::from(st.mode() == Mode::Fast)]);
    }
    for total in totals {
        h.update(&total.1.to_le_bytes());
    }
    rep.digest = h.digest();
    let messages = totals[ON_MESSAGE].1;
    rep.checks.push(("no-rejections", rejected == 0));
    rep.checks.push(("wire-intact", !corrupt));
    for ((_, metric), total) in BATCHES.iter().zip(totals) {
        if total.1 > 0 {
            rep.layer.insert(metric, total.0 * 1e9 / total.1 as f64);
        }
    }
    rep.layer.insert("protocol.frames", totals[ENCODE].1 as f64);
    rep.layer
        .insert("protocol.flood_merges", (messages - rejected) as f64);
    if messages > 0 {
        rep.layer
            .insert("protocol.rejected_share", rejected as f64 / messages as f64);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_floods_the_full_mesh_and_repeats_exactly() {
        let mut tr = Tracer::new(true);
        let a = rep(0, 1.0, true, &mut tr).unwrap();
        let b = rep(0, 1.0, true, &mut Tracer::new(false)).unwrap();
        assert_eq!(a.digest, b.digest);
        assert!(a.checks.iter().all(|c| c.1), "{:?}", a.checks);
        // 500 steps x 64 evaluates, and every node floods 63 peers about
        // five times a second.
        let events: u64 = a.slices.iter().map(|s| s.events).sum();
        assert!(events > 500 * 64 + 4 * 64 * 63, "{events}");
        assert!(a.layer["protocol.frames"] >= (4 * 64 * 32) as f64);
        assert!(tr
            .spans()
            .iter()
            .any(|s| s.name == "protocol.wire_decode" && s.calls > 0));
        assert_ne!(a.digest, rep(1, 1.0, true, &mut tr).unwrap().digest);
    }
}
