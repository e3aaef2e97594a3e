//! Node-local event handling, shared by the sequential and sharded
//! engines.
//!
//! Every event except `Tick`, `EdgeUp`, and `EdgeDown` touches exactly
//! one node's state (floods read only the sender's own neighbour table;
//! deliveries mutate only the receiver), and what the node does with it
//! is [`gcs_protocol::handlers`]. [`LocalCtx`] is the engine side of that
//! call: the disjoint per-node state an event needs — a contiguous `&mut`
//! range of the node array plus the matching rows of the hot columns —
//! the shared read-only engine state, and an [`EventSink`] that
//! [`EngineHost`] turns the handlers' effects into events for.
//!
//! The sequential engine builds a `LocalCtx` covering the whole node
//! range with the master queue as the sink; the parallel engine builds
//! one per shard with a [`ShardSink`] that routes cross-shard deliveries
//! through a mailbox. Both run *this* code, so bit-identity between the
//! engines is structural rather than re-proved per handler.
//!
//! Determinism note: both engines run the same handlers through the
//! same host, and all RNG draws come from per-node
//! streams indexed by the node that owns them, so the draw order is a
//! function of that node's own event order — identical under sequential
//! and sharded execution.

use std::ops::Range;

use rand::rngs::StdRng;

use gcs_net::transport;
use gcs_net::{DynamicGraph, EdgeParams, NodeId};
use gcs_protocol::flood::m_jump_triggers_fast;
use gcs_protocol::handlers::{self, Delivered, Fired, Host, Message, Run, Timer};
use gcs_protocol::{EstimateMode, NodeState};
use gcs_sim::{EventQueue, SimDuration, SimTime};
use gcs_telemetry::LocalCounters;

use crate::sim::{Event, SimStats};

/// Where a handler's spawned events go: the master queue (sequential
/// engine) or a shard queue plus cross-shard mailbox ([`ShardSink`]).
pub(crate) trait EventSink {
    /// Schedules `event` at `time`.
    fn schedule(&mut self, time: SimTime, event: Event);
}

/// The sequential engine's sink: the master queue itself, allocating
/// ordering keys from the queue's own monotone counter (exactly the
/// pre-sharding behaviour).
impl EventSink for EventQueue<Event> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        EventQueue::schedule(self, time, event);
    }
}

/// A shard worker's sink. Same-shard events go straight into the shard's
/// calendar queue; a `Deliver` whose receiver lives elsewhere goes into
/// the outbox for the mailbox exchange at the next window rendezvous.
/// All keys come from the shard's namespaced counter, so the merged
/// `(time, seq)` order is a pure function of the simulation, not of
/// thread scheduling.
pub(crate) struct ShardSink<'a> {
    /// The owning shard's queue.
    pub queue: &'a mut EventQueue<Event>,
    /// Start index of every shard, ascending (see [`owner`]).
    pub starts: &'a [usize],
    /// This shard's index.
    pub shard: usize,
    /// The shard's namespaced sequence counter.
    pub seq: &'a mut u64,
    /// Cross-shard events: `(destination shard, time, seq, event)`.
    pub outbox: &'a mut Vec<(usize, SimTime, u64, Event)>,
}

impl EventSink for ShardSink<'_> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = *self.seq;
        *self.seq += 1;
        let dest = match owning_node(&event) {
            Some(node) => owner(self.starts, node),
            None => unreachable!("shard handlers only spawn node-local events"),
        };
        if dest == self.shard {
            self.queue.schedule_keyed(time, seq, event);
        } else {
            debug_assert!(
                matches!(event, Event::Deliver { .. }),
                "only deliveries cross shards"
            );
            self.outbox.push((dest, time, seq, event));
        }
    }
}

/// The node whose state an event mutates, or `None` for the
/// cross-shard-state events the master executes at rendezvous.
pub(crate) fn owning_node(event: &Event) -> Option<usize> {
    match *event {
        Event::Tick | Event::EdgeUp { .. } | Event::EdgeDown { .. } => None,
        Event::Timer { node, .. } => Some(node.index()),
        Event::Deliver { dst, .. } => Some(dst.index()),
        Event::RateChange { node, .. } => Some(node),
    }
}

/// The shard owning global node index `node`, given the ascending shard
/// start indices (`starts[0] == 0`).
pub(crate) fn owner(starts: &[usize], node: usize) -> usize {
    debug_assert!(!starts.is_empty() && starts[0] == 0);
    starts.partition_point(|&s| s <= node) - 1
}

/// Splits `n` nodes into `shards` contiguous near-equal ranges.
pub(crate) fn contiguous_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards >= 1 && shards <= n);
    (0..shards)
        .map(|i| (i * n / shards)..((i + 1) * n / shards))
        .collect()
}

/// The engines' [`Host`]: what a node's handlers ask for becomes queue
/// entries. A send draws its transit delay from the sender's own stream
/// and is scheduled as a `Deliver`; a wake-up is scheduled as a `Timer`.
pub(crate) struct EngineHost<'a, S: EventSink> {
    /// The node the running handler belongs to.
    pub node: NodeId,
    /// The handler's instant (the send time of anything it sends).
    pub t: SimTime,
    /// The node's transport-delay stream.
    pub delay_rng: &'a mut StdRng,
    /// Counter sink for `messages_sent`.
    pub stats: &'a mut SimStats,
    /// Where the spawned events go.
    pub sink: &'a mut S,
}

impl<S: EventSink> Host for EngineHost<'_, S> {
    fn send(&mut self, dst: NodeId, edge: EdgeParams, msg: Message) {
        let delay = transport::sample_delay(self.delay_rng, edge);
        self.stats.messages_sent += 1;
        self.sink.schedule(
            self.t + SimDuration::from_secs(delay),
            Event::Deliver {
                src: self.node,
                dst,
                sent_at: self.t,
                payload: msg,
            },
        );
    }

    fn wake(&mut self, at: SimTime, timer: Timer) {
        self.sink.schedule(
            at,
            Event::Timer {
                node: self.node,
                timer,
            },
        );
    }
}

/// Everything one node-local event may touch: the owned node range
/// (mutable), the matching hot-column rows, the event sink, and shared
/// read-only engine state. The transitions themselves are
/// [`gcs_protocol::handlers`]; this is the host side — delay sampling,
/// counters, the dirty marks of the stability-certificate cache, the
/// diameter tracker, and the debug cross-check of the delivery rule.
///
/// Indexing is by *global* node id; debug builds assert every access
/// stays inside the owned range, so a cross-shard state touch panics in
/// the CI `parallel-smoke` job instead of racing.
pub(crate) struct LocalCtx<'a, S: EventSink> {
    /// Global node-index range this context owns.
    pub range: Range<usize>,
    /// The owned nodes; `nodes[u - range.start]` is global node `u`.
    pub nodes: &'a mut [NodeState],
    /// Stability horizons of the owned nodes (same local indexing).
    pub stable_until: &'a mut [f64],
    /// M-jump sensitivity flags of the owned nodes.
    pub m_jump_sensitive: &'a mut [bool],
    /// Per-node transport-delay streams of the owned nodes.
    pub delay_rng: &'a mut [StdRng],
    /// Counter sink (the shard's own accumulator under sharding).
    pub stats: &'a mut SimStats,
    /// Where spawned events go.
    pub sink: &'a mut S,
    /// The run's shared constants.
    pub run: Run<'a>,
    /// The dynamic graph — read-only between rendezvous points (only the
    /// master's edge-up/down handlers write it); used by the debug
    /// cross-check of the §3.1 delivery rule.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub graph: &'a DynamicGraph,
    /// Diameter tracker (sequential engine only; the parallel builder
    /// rejects it).
    pub diameter: Option<&'a mut crate::diameter::DiameterTracker>,
    /// Telemetry counter block (the engine's under sequential execution,
    /// the shard's own under sharding); `None` when telemetry is off, so
    /// the counting costs one branch per event. Per-kind totals are
    /// order-free, hence engine-invariant after merging.
    pub tel: Option<&'a mut LocalCounters>,
}

impl<S: EventSink> LocalCtx<'_, S> {
    /// Dispatches one node-local event.
    ///
    /// # Panics
    ///
    /// Panics on the cross-shard-state events (`Tick`, `EdgeUp`,
    /// `EdgeDown`) — those execute on the master at rendezvous points.
    pub fn handle(&mut self, t: SimTime, event: Event) {
        match event {
            Event::Timer { node, timer } => self.on_timer(t, node, timer),
            Event::Deliver {
                src,
                dst,
                sent_at,
                payload,
            } => self.on_deliver(t, src, dst, sent_at, payload),
            Event::RateChange { node, rate } => {
                if let Some(tel) = self.tel.as_deref_mut() {
                    tel.rate_changes += 1;
                }
                let i = self.local(node);
                handlers::rate_change(&mut self.nodes[i], t, rate, &self.run);
                self.stable_until[i] = f64::NEG_INFINITY;
            }
            Event::Tick | Event::EdgeUp { .. } | Event::EdgeDown { .. } => {
                unreachable!("cross-shard-state event routed to a node-local handler")
            }
        }
    }

    /// Local row of global node index `u`, with the cross-shard access
    /// guard: touching a node outside the owned range is a determinism
    /// (and, under sharding, a data-race) bug, so debug builds panic.
    #[inline]
    fn local(&self, u: usize) -> usize {
        debug_assert!(
            self.range.contains(&u),
            "cross-shard access: node {u} outside owned range {:?}",
            self.range
        );
        u - self.range.start
    }

    /// Node `u`'s row, its state, and the host its handlers report to.
    fn hosted(&mut self, u: NodeId, t: SimTime) -> (usize, &mut NodeState, EngineHost<'_, S>) {
        let i = self.local(u.index());
        let host = EngineHost {
            node: u,
            t,
            delay_rng: &mut self.delay_rng[i],
            stats: &mut *self.stats,
            sink: &mut *self.sink,
        };
        (i, &mut self.nodes[i], host)
    }

    fn on_timer(&mut self, t: SimTime, u: NodeId, timer: Timer) {
        if let Some(tel) = self.tel.as_deref_mut() {
            match timer {
                Timer::Flood => tel.floods += 1,
                Timer::LeaderCheck { .. } => tel.leader_checks += 1,
                Timer::FollowerApply { .. } => tel.follower_applies += 1,
            }
        }
        let run = self.run;
        let (i, node, mut host) = self.hosted(u, t);
        match handlers::on_timer(node, t, timer, &run, &mut host) {
            Fired::Offered => {
                self.stats.handshakes_offered += 1;
                self.stats.insertions_scheduled += 1;
                self.stable_until[i] = f64::NEG_INFINITY;
            }
            Fired::Applied => {
                self.stats.insertions_scheduled += 1;
                self.stable_until[i] = f64::NEG_INFINITY;
            }
            Fired::Flooded | Fired::Stale | Fired::Rearmed => {}
        }
    }

    fn on_deliver(
        &mut self,
        t: SimTime,
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        payload: Message,
    ) {
        if let Some(tel) = self.tel.as_deref_mut() {
            tel.deliveries += 1;
        }
        let run = self.run;
        let (i, node, mut host) = self.hosted(dst, t);
        let delivered = handlers::deliver(node, t, src, sent_at, payload, &run, &mut host);
        // The handler answers the §3.1 rule from the receiver's slot table,
        // which mirrors the graph adjacency (both are written at exactly
        // the edge-up/edge-down sites with the same timestamps);
        // [`transport::deliverable`] is the documented reference
        // implementation of the rule. Debug builds assert the two agree on
        // every message.
        #[cfg(debug_assertions)]
        {
            let reference = transport::deliverable(
                self.graph,
                &transport::Envelope {
                    src,
                    dst,
                    sent_at,
                    deliver_at: t,
                    payload: (),
                },
            );
            debug_assert_eq!(
                delivered != Delivered::Rejected,
                reference,
                "slot mirror diverged from the §3.1 delivery rule on ({src}, {dst})"
            );
        }
        let node = &self.nodes[i];
        match delivered {
            Delivered::Rejected => self.stats.messages_dropped += 1,
            Delivered::Flood(outcome) => {
                self.stats.messages_delivered += 1;
                if let (Some(tracker), Some(entry)) =
                    (self.diameter.as_deref_mut(), node.slots.entry(src))
                {
                    tracker.on_delivery(
                        src.index(),
                        dst.index(),
                        sent_at,
                        t,
                        entry.info.params.delay_uncertainty(),
                    );
                }
                // In message mode the stored sample *is* a decision input;
                // in oracle mode the views never read it. An upward M jump
                // flips a slow-decided node only once the lifted gap
                // reaches iota; `m_jump_triggers_fast` is pinned to the
                // policy's exact fast-branch float expression. (Between now
                // and the next tick, m only drifts down, which can make
                // this conservative but never unsound.)
                if (outcome.estimate_written.is_some() && run.mode == EstimateMode::Messages)
                    || (outcome.m_moved
                        && self.m_jump_sensitive[i]
                        && m_jump_triggers_fast(node, run.params.iota()))
                {
                    self.stable_until[i] = f64::NEG_INFINITY;
                }
                if let Some(tel) = self.tel.as_deref_mut() {
                    tel.flood_merges += 1;
                    if outcome.m_moved {
                        tel.m_jumps += 1;
                    }
                }
            }
            Delivered::Offer { accepted } => {
                self.stats.messages_delivered += 1;
                if accepted {
                    self.stable_until[i] = f64::NEG_INFINITY;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_ranges_cover_exactly() {
        for n in [2usize, 3, 7, 10, 64] {
            for shards in 1..=n.min(8) {
                let ranges = contiguous_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[0].is_empty());
                }
                assert!(!ranges.last().unwrap().is_empty());
            }
        }
    }

    #[test]
    fn owner_inverts_the_ranges() {
        let ranges = contiguous_ranges(10, 3);
        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        for (s, r) in ranges.iter().enumerate() {
            for u in r.clone() {
                assert_eq!(owner(&starts, u), s);
            }
        }
    }
}
