//! A deterministic future-event list.
//!
//! Events are ordered first by [`SimTime`], then by insertion sequence
//! number, so two events scheduled for the same instant pop in FIFO order.
//! This tie-break rule is what makes whole-simulation runs bit-reproducible
//! across platforms.
//!
//! # Structure
//!
//! The queue is a three-tier calendar, sized for the engine's workload
//! (per-message events a few milliseconds ahead of now, at backlogs of
//! thousands):
//!
//! * **near** — the currently open bucket, sorted descending so the next
//!   event pops from the back in O(1);
//! * **ring** — a 64-slot bucket ring covering the next
//!   `64 × 2⁻¹² s ≈ 15.6 ms` of simulated time; scheduling appends to a
//!   bucket in O(1), and a bucket is sorted once when it opens (amortized
//!   `O(log bucket)` per event with a contiguous `sort_unstable`, far
//!   cheaper than per-event heap sifts at these sizes). A bucket is a
//!   tail of at most 256 entries plus a list of full 256-entry chunks,
//!   all drawn from one pool the queue owns (see *Memory* below);
//! * **far** — a binary min-heap for everything beyond the ring horizon
//!   (pre-materialized drift schedules, long timers). Far events migrate
//!   into the opening bucket when their time comes.
//!
//! Correctness does not depend on the bucket width: membership is
//! `bucket(t) = ⌊t/W⌋`, which is monotone in `t`, so an event in an earlier
//! bucket can never be later than one in a newer bucket — whatever floating
//! point does at bucket boundaries, the pop order is exactly the total
//! `(time, seq)` order (property-tested against a reference heap).
//!
//! Payloads ride next to their keys in every tier, so a pop reads the
//! payload from the same sequentially scanned bucket as its key. An
//! earlier design kept 24-byte keys in the tiers and payloads in a slab:
//! sorting moved less memory, but every pop paid a dependent cache miss
//! into a slab the size of the backlog (~220 k entries on a 10⁵-node
//! ring) before the engine could learn which node to load. Measured with
//! `benchmark/`, that miss cost more than the wider sort saves: `ring-100k`
//! `run_s` 0.92 → 0.68 s, `ring-1k` 0.81 → 0.69 s (medians of ten runs).
//!
//! # Memory
//!
//! Every ring bucket fills to its largest size once per ring turn, just
//! before it opens, while the buckets further ahead are still filling. A
//! bucket that is one growable buffer therefore keeps that peak resident
//! in all 64 slots and in `near`: on a 10⁵-node ring, 65 buffers of 8 192
//! 72-byte entries (38.3 MB) for 15.9 MB of live events. So a slot's
//! buffer is only the bucket's *tail*; a tail that reaches 256 entries is
//! parked in the slot's list of full chunks and replaced by an empty chunk
//! from the pool, and opening the bucket appends its chunks and tail into
//! `near` and returns the chunks to the pool. The ring then holds the live
//! high-water mark plus at most one partial chunk per slot: 17.5 MB on
//! the same ring (`near` 9.7 k entries, tails 16 k, full chunks 214 k,
//! pool 2.6 k, for 221 k live), and `ring-100k`'s peak RSS falls from
//! 114 to 91 MiB. A bucket that never filled a chunk — every bucket below
//! a few thousand nodes — still opens by swapping its tail with the
//! drained `near`, with no copy: copying every bucket measured 4–5 %
//! slower on `ring-1k` and `churn-1k`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of ring buckets: at most 64, one bit each in `chunked`.
const RING: usize = 64;
/// Bucket width in seconds (2⁻¹²: exact in binary, ≈ 244 µs).
const WIDTH: f64 = 1.0 / 4096.0;
/// Entries per ring chunk (18 KiB of 72-byte engine entries).
const CHUNK: usize = 256;

/// The bucket an instant belongs to. Monotone in `t`, which is all the
/// ordering argument needs.
#[inline]
fn bucket_of(t: SimTime) -> u64 {
    (t.as_secs() / WIDTH) as u64
}

/// A pending event: totally ordered by `(time, seq)`; the payload does not
/// participate in the order (seq is unique).
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, so both the `far` BinaryHeap (a max-heap) and the
        // descending `near` sort see the earliest event as the largest.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: a priority queue of `(SimTime, E)` pairs with
/// deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use gcs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), 'b');
/// q.schedule(SimTime::from_secs(1.0), 'a');
/// q.schedule(SimTime::from_secs(2.0), 'c'); // same instant as 'b': FIFO
///
/// assert_eq!(q.next_time(), Some(SimTime::from_secs(1.0)));
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The open bucket, sorted descending (next event at the back).
    near: Vec<Entry<E>>,
    /// Bucket ring; slot `g % RING` holds bucket `g` for
    /// `g ∈ [next_bucket, next_bucket + RING)`: the bucket's newest
    /// entries, at most [`CHUNK`] of them.
    ring: Vec<Vec<Entry<E>>>,
    /// Per ring slot, the bucket's older entries as full chunks of
    /// exactly [`CHUNK`], kept apart from `ring` so the slots that
    /// `schedule` touches stay 24 bytes wide.
    full: Vec<Vec<Vec<Entry<E>>>>,
    /// Empty chunks returned by opened buckets, reused before any new
    /// allocation. Never shrinks.
    pool: Vec<Vec<Entry<E>>>,
    /// Bit `slot` is set iff `full[slot]` is non-empty: `refill` tests it
    /// without loading the list, which measured ~4 % faster per event on
    /// buckets of a few dozen entries.
    chunked: u64,
    /// Total entries currently in the ring.
    ring_len: usize,
    /// The next bucket to open; `near` covers strictly earlier buckets.
    next_bucket: u64,
    /// Beyond-horizon events, earliest on top.
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; used to reject scheduling in
    /// the past, which would silently corrupt causality.
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            near: Vec::new(),
            ring: (0..RING).map(|_| Vec::new()).collect(),
            full: (0..RING).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
            chunked: 0,
            ring_len: 0,
            next_bucket: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event: the simulation
    /// may never schedule into its own past.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.schedule_keyed(time, seq, payload);
    }

    /// Schedules `payload` under an explicit `(time, seq)` ordering key.
    ///
    /// This is the seam a *sharded* simulation uses to exchange events
    /// between calendars: an event routed from another queue keeps its
    /// original key, so the merged pop order across all shards is exactly
    /// the `(time, seq)` order a single queue would have produced. The
    /// internal sequence counter is bumped past `seq`, so later plain
    /// [`schedule`](EventQueue::schedule) calls still sort after every
    /// explicitly keyed event at the same instant.
    ///
    /// The caller is responsible for key uniqueness (shards namespace
    /// their counters); duplicate `(time, seq)` pairs would make the pop
    /// order between the duplicates unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event.
    pub fn schedule_keyed(&mut self, time: SimTime, seq: u64, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule at {time:?} before current time {:?}",
            self.now
        );
        self.next_seq = self.next_seq.max(seq + 1);
        let entry = Entry { time, seq, payload };
        let g = bucket_of(time);
        if g < self.next_bucket {
            // Lands in the already-open bucket: keep `near` sorted
            // (later events towards the front, i.e. ascending in the
            // reversed Ord). Rare — only sub-bucket delays hit this.
            let pos = self.near.partition_point(|e| *e < entry);
            self.near.insert(pos, entry);
        } else if g < self.next_bucket + RING as u64 {
            let slot = (g % RING as u64) as usize;
            if self.ring[slot].len() >= CHUNK {
                self.park(slot);
            }
            self.ring[slot].push(entry);
            self.ring_len += 1;
        } else {
            self.far.push(entry);
        }
    }

    /// Opens buckets until `near` holds the earliest pending events (or
    /// everything is empty).
    fn refill(&mut self) {
        while self.near.is_empty() && (self.ring_len > 0 || !self.far.is_empty()) {
            if self.ring_len == 0 {
                // Ring dry: jump straight to the far tier's first bucket.
                let g = bucket_of(self.far.peek().expect("far nonempty").time);
                self.next_bucket = self.next_bucket.max(g);
            }
            let g = self.next_bucket;
            self.next_bucket = g + 1;
            let slot = (g % RING as u64) as usize;
            if self.chunked & (1 << slot) == 0 {
                // A bucket that never filled a chunk: its tail becomes
                // `near`, and the drained `near` allocation the new empty
                // tail — unless it grew past a chunk, which would then stay
                // resident in the ring.
                std::mem::swap(&mut self.near, &mut self.ring[slot]);
                if self.ring[slot].capacity() > CHUNK {
                    self.ring[slot] = self.fresh_chunk();
                }
            } else {
                self.gather(slot);
            }
            self.ring_len -= self.near.len();
            while self.far.peek().is_some_and(|e| bucket_of(e.time) <= g) {
                self.near.extend(self.far.pop());
            }
            // Descending by (time, seq). SimTime is non-negative, so the
            // f64 bit pattern is order-isomorphic to the value — sorting by
            // integer key keeps the comparator branch-free.
            self.near
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.time.as_secs().to_bits(), e.seq)));
        }
    }

    /// Opens ring `slot` when it parked full chunks: appends them, then
    /// the tail, into `near` and returns them to the pool. The gathering
    /// order is irrelevant, since `refill` sorts by the unique `(time,
    /// seq)` key. Kept out of line so `refill`'s swap path stays as small
    /// as before: inlined, `ring-1k` measured 1–4 % slower.
    #[inline(never)]
    fn gather(&mut self, slot: usize) {
        let chunks = &mut self.full[slot];
        self.near
            .reserve(chunks.len() * CHUNK + self.ring[slot].len());
        for mut chunk in chunks.drain(..) {
            self.near.append(&mut chunk);
            self.pool.push(chunk);
        }
        self.near.append(&mut self.ring[slot]);
        self.chunked &= !(1 << slot);
    }

    /// Parks the full tail of ring `slot` and gives the slot an empty
    /// chunk.
    #[cold]
    #[inline(never)]
    fn park(&mut self, slot: usize) {
        let fresh = self.fresh_chunk();
        let tail = std::mem::replace(&mut self.ring[slot], fresh);
        self.full[slot].push(tail);
        self.chunked |= 1 << slot;
    }

    /// An empty chunk: from the pool, else newly allocated.
    #[cold]
    #[inline(never)]
    fn fresh_chunk(&mut self) -> Vec<Entry<E>> {
        self.pool.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK))
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _, payload)| (time, payload))
    }

    /// [`pop`](EventQueue::pop), but also returning the event's sequence
    /// number — the other half of the sharding seam: draining a queue with
    /// `pop_keyed` and re-inserting elsewhere with
    /// [`schedule_keyed`](EventQueue::schedule_keyed) preserves the global
    /// `(time, seq)` order exactly.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        if self.near.is_empty() {
            self.refill();
        }
        let Entry { time, seq, payload } = self.near.pop()?;
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, seq, payload))
    }

    /// The time of the earliest pending event, without removing it.
    #[must_use]
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.next_key().map(|(time, _)| time)
    }

    /// The full `(time, seq)` ordering key of the earliest pending event,
    /// without removing it — what a scheduler merging several queues needs
    /// to interleave same-instant events in global order.
    #[must_use]
    pub fn next_key(&mut self) -> Option<(SimTime, u64)> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near.last().map(|e| (e.time, e.seq))
    }

    /// The time of the most recently popped event (`t = 0` before any pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near.len() + self.ring_len + self.far.len()
    }

    /// Whether there are no pending events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next plain [`schedule`](EventQueue::schedule)
    /// takes: one past the largest key scheduled so far, which on a shard
    /// queue that receives keyed events is not a count of anything.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), 1);
        q.pop();
        q.schedule(SimTime::from_secs(5.0), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5.0), 2)));
    }

    #[test]
    fn next_time_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 42);
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 42)));
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn counts_and_emptiness() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_seq(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.next_seq(), 2);
    }

    #[test]
    fn payloads_drop_exactly_once() {
        use std::rc::Rc;
        // One tracker per tier: open bucket, ring, far heap.
        let token = Rc::new(());
        let times = [0.0, 0.0001, 0.003, 0.01, 5.0, 50.0];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), (i, Rc::clone(&token)));
        }
        assert_eq!(Rc::strong_count(&token), 1 + times.len());

        // Popped payloads are moved out, not copied: dropping one releases
        // exactly one count.
        let (_, (first, payload)) = q.pop().unwrap();
        assert_eq!(first, 0);
        assert_eq!(Rc::strong_count(&token), 1 + times.len());
        drop(payload);
        assert_eq!(Rc::strong_count(&token), times.len());

        // A clone owns its own copies; dropping either leaves the other's.
        let mut copy = q.clone();
        assert_eq!(Rc::strong_count(&token), 1 + 2 * (times.len() - 1));
        assert_eq!(copy.pop().map(|(_, (i, _))| i), Some(1));
        assert_eq!(Rc::strong_count(&token), 2 * (times.len() - 1));
        drop(copy);
        assert_eq!(Rc::strong_count(&token), times.len());

        // Still pending when the queue goes: every tier releases its own.
        drop(q);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_global_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(3.0), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 1)));
        q.schedule(SimTime::from_secs(2.0), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3.0), 3)));
    }

    #[test]
    fn zero_delay_reschedule_lands_in_the_open_bucket() {
        // Regression guard for the `near`-insert path: scheduling at (or a
        // hair after) the just-popped instant must keep the global order.
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(SimTime::from_secs(1.0 + f64::from(i) * 1e-6), i);
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 0)));
        q.schedule(q.now(), 100); // same instant, later seq: pops after 0
        q.schedule(q.now() + crate::SimDuration::from_secs(5e-7), 101);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![100, 101, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        let mut q = EventQueue::new();
        // Far beyond the 15.6 ms ring horizon, interleaved with near ones.
        q.schedule(SimTime::from_secs(100.0), 4);
        q.schedule(SimTime::from_secs(0.001), 1);
        q.schedule(SimTime::from_secs(50.0), 3);
        q.schedule(SimTime::from_secs(0.002), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3, 4]);
    }

    #[test]
    fn keyed_schedule_preserves_the_original_merge_order() {
        // Simulate a two-shard split: drain one queue, route its events to
        // two others with their original keys, merge-pop — the interleaving
        // must be exactly the source order.
        let mut source = EventQueue::new();
        for i in 0..40u64 {
            source.schedule(SimTime::from_secs(((i * 7) % 13) as f64), i);
        }
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut want = Vec::new();
        while let Some((t, seq, e)) = {
            // Drain via a taken clone so `source` order is the reference.
            source.pop_keyed()
        } {
            want.push(e);
            if e % 2 == 0 {
                a.schedule_keyed(t, seq, e);
            } else {
                b.schedule_keyed(t, seq, e);
            }
        }
        let mut got = Vec::new();
        loop {
            match (a.next_time(), b.next_time()) {
                (None, None) => break,
                (Some(_), None) => got.push(a.pop_keyed().unwrap()),
                (None, Some(_)) => got.push(b.pop_keyed().unwrap()),
                (Some(ta), Some(tb)) => {
                    // Same instant never happens here (times distinct per
                    // parity stream at equal times are still seq-ordered);
                    // compare (time, seq) like a merged queue would.
                    let ka = (ta, a_peek_seq(&mut a));
                    let kb = (tb, a_peek_seq(&mut b));
                    if ka <= kb {
                        got.push(a.pop_keyed().unwrap());
                    } else {
                        got.push(b.pop_keyed().unwrap());
                    }
                }
            }
        }
        let got: Vec<u64> = got.into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(got, want);
    }

    /// Peeks the seq of the next event (test helper; pops and re-inserts).
    fn a_peek_seq(q: &mut EventQueue<u64>) -> u64 {
        let (t, seq, e) = q.pop_keyed().unwrap();
        q.schedule_keyed(t, seq, e);
        seq
    }

    #[test]
    fn plain_schedule_sorts_after_keyed_events_at_the_same_instant() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(1.0), 500, "routed");
        q.schedule(SimTime::from_secs(1.0), "dynamic");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "routed")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "dynamic")));
    }

    /// A xorshift64 stream: deterministic test randomness with no
    /// dependency.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Reference pop order: by `(time bits, seq)`, as the queue must pop.
    type Reference = std::collections::BTreeMap<(u64, u64), String>;

    /// Pops one event from both `q` and `reference` and asserts they agree;
    /// returns the popped time.
    fn pop_checked(q: &mut EventQueue<String>, reference: &mut Reference) -> Option<f64> {
        let (when, seq, got) = q.pop_keyed()?;
        let (key, want) = reference.pop_first().expect("reference nonempty");
        assert_eq!(got, want, "payload order diverged");
        assert_eq!((when.as_secs().to_bits(), seq), key, "key order diverged");
        Some(when.as_secs())
    }

    /// Entries the ring holds room for: tails, full chunks and pool.
    fn ring_capacity<E>(q: &EventQueue<E>) -> usize {
        let chunks = q.full.iter().flatten().chain(&q.pool);
        q.ring.iter().chain(chunks).map(Vec::capacity).sum()
    }

    /// Randomized cross-check against a reference priority queue: any
    /// interleaving of plain schedules, keyed schedules and pops must
    /// produce the exact `(time, seq)` order, including bucket-boundary
    /// times, with heap-owning payloads moved intact through every tier.
    #[test]
    fn matches_reference_order_on_random_interleavings() {
        let mut rand = xorshift(0x243F_6A88_85A3_08D3);
        for _ in 0..50 {
            let mut q = EventQueue::new();
            let mut reference = Reference::new();
            let mut now = 0.0f64;
            for _ in 0..400 {
                let op = rand() % 4;
                if op < 3 {
                    // Mix of in-bucket, cross-bucket, and boundary times.
                    let r = rand();
                    let dt = match r % 5 {
                        0 => 0.0,
                        1 => (r % 1000) as f64 * 1e-6,
                        2 => (r % 100) as f64 * WIDTH, // exact boundaries
                        3 => (r % 1000) as f64 * 1e-3,
                        _ => (r % 10) as f64 * 10.0, // far tier
                    };
                    let t = now + dt;
                    // Two schedules in three are keyed, skipping ahead in seq
                    // the way an event routed from another shard does.
                    let seq = q.next_seq() + r % 3;
                    let payload = format!("event {seq} at {t}");
                    reference.insert((t.to_bits(), seq), payload.clone());
                    if r.is_multiple_of(3) {
                        q.schedule(SimTime::from_secs(t), payload);
                    } else {
                        q.schedule_keyed(SimTime::from_secs(t), seq, payload);
                    }
                } else if let Some(t) = pop_checked(&mut q, &mut reference) {
                    now = t;
                }
            }
            while pop_checked(&mut q, &mut reference).is_some() {}
            assert!(reference.is_empty());
        }
    }

    /// The same cross-check with bursts of `CHUNK + 1` to `3·CHUNK` events
    /// into one bucket — the open one, one in the ring, or one beyond the
    /// horizon that later migrates from the far heap — so buckets park
    /// full chunks, open by gathering them, and chunks cycle through the
    /// pool. Keys come as a shard queue receives them: its own namespace
    /// at 2⁴⁸, two mailbox namespaces above it, and plain schedules.
    #[test]
    fn chunked_buckets_match_reference_order() {
        const SHIFT: u32 = 48;
        let mut rand = xorshift(0x1319_8A2E_0370_7344);
        let (mut most_parked, mut most_pooled) = (0, 0);
        for _ in 0..8 {
            let mut q = EventQueue::new();
            let mut reference = Reference::new();
            // The next unused key per namespace: 1 is the queue's own, 2
            // and 3 its mailboxes; plain keys start in 0 and follow the
            // largest key so far.
            let mut next = [0u64; 4];
            let mut now = 0.0f64;
            let mut put = |q: &mut EventQueue<String>, reference: &mut Reference, t: f64, ns| {
                let seq = if ns == 0 {
                    q.next_seq()
                } else {
                    next[ns] += 1;
                    ((ns as u64) << SHIFT) + next[ns] - 1
                };
                // A plain key is one past every key so far; keep its
                // namespace's later keyed events past it too.
                let own = &mut next[(seq >> SHIFT) as usize];
                *own = (*own).max((seq & ((1 << SHIFT) - 1)) + 1);
                let payload = format!("event {seq} at {t}");
                assert!(reference
                    .insert((t.to_bits(), seq), payload.clone())
                    .is_none());
                if ns == 0 {
                    q.schedule(SimTime::from_secs(t), payload);
                } else {
                    q.schedule_keyed(SimTime::from_secs(t), seq, payload);
                }
            };
            for _ in 0..150 {
                match rand() % 4 {
                    0 => {
                        // A burst into bucket `b + k`: k = 0 is the open
                        // bucket, k ≥ RING the far heap. Times repeat in
                        // 64 steps per bucket, so seq breaks many ties.
                        let b = bucket_of(SimTime::from_secs(now));
                        let k = rand() % (RING as u64 + 8);
                        let n = CHUNK + 1 + (rand() % (2 * CHUNK as u64)) as usize;
                        let (lo, hi) = ((b + k) as f64 * WIDTH, (b + k + 1) as f64 * WIDTH);
                        let lo = lo.max(now);
                        for _ in 0..n {
                            let step = (rand() % 64) as f64 / 64.0;
                            put(
                                &mut q,
                                &mut reference,
                                lo + step * (hi - lo),
                                (rand() % 4) as usize,
                            );
                        }
                    }
                    1 => {
                        for _ in 0..1 + rand() % 8 {
                            let r = rand();
                            let dt = match r % 4 {
                                0 => 0.0,
                                1 => (r % 1000) as f64 * 1e-6,
                                2 => (r % 100) as f64 * WIDTH,
                                _ => (r % 1000) as f64 * 1e-4,
                            };
                            put(&mut q, &mut reference, now + dt, (rand() % 4) as usize);
                        }
                    }
                    _ => {
                        for _ in 0..rand() % (2 * CHUNK as u64) {
                            match pop_checked(&mut q, &mut reference) {
                                Some(t) => now = t,
                                None => break,
                            }
                        }
                    }
                }
                most_parked = most_parked.max(q.full.iter().map(Vec::len).sum::<usize>());
                // A once-large `near` never stays resident as a tail.
                assert!(q.ring.iter().all(|tail| tail.capacity() <= CHUNK));
            }
            while pop_checked(&mut q, &mut reference).is_some() {}
            assert!(reference.is_empty());
            assert!(
                q.full.iter().all(Vec::is_empty),
                "a drained queue parks nothing"
            );
            most_pooled = most_pooled.max(q.pool.len());
        }
        assert!(
            most_parked >= 3,
            "bursts never parked a chunk ({most_parked})"
        );
        assert!(most_pooled > 0, "no bucket opened through its chunks");
    }

    /// A 10⁵-node ring's load in miniature: every pop schedules one event
    /// uniformly within the ring horizon, so each bucket fills to about
    /// 7 500 entries just before it opens while the live count stays at
    /// half of 64 such buckets. Over four ring turns, tails, full chunks
    /// and pool together never hold room for more than the live high-water
    /// mark plus one chunk per slot and one spare: 250 368 entries for
    /// 240 000 live. (One growable buffer per slot, the layout before
    /// chunks, reads 630 784 here, 2.6× live, and fails the bound.)
    #[test]
    fn ring_footprint_follows_the_live_high_water_mark() {
        const PER_BUCKET: usize = 7_500;
        let horizon = RING as f64 * WIDTH;
        let mut rand = xorshift(0xA409_3822_299F_31D0);
        let mut delay = move || (rand() >> 11) as f64 / (1u64 << 53) as f64 * horizon;
        let mut q = EventQueue::new();
        for i in 0..PER_BUCKET * RING / 2 {
            q.schedule(SimTime::from_secs(delay()), i);
        }
        let high_water = q.len();
        let bound = high_water + (RING + 1) * CHUNK;
        let mut open = 0;
        let mut most = 0;
        for _ in 0..4 * RING * PER_BUCKET {
            let (t, i) = q.pop().expect("constant population");
            q.schedule(SimTime::from_secs(t.as_secs() + delay()), i);
            if bucket_of(t) != open {
                open = bucket_of(t);
                most = most.max(ring_capacity(&q));
                assert!(most <= bound, "ring holds room for {most} > {bound}");
            }
        }
        assert_eq!(q.len(), high_water);
        assert!(
            most > high_water / 2,
            "the load never filled the ring ({most})"
        );
    }
}
