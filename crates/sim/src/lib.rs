//! Discrete-event simulation kernel for `gradient-clock-sync`.
//!
//! This crate provides the low-level substrate every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] — a totally ordered, finite wall-clock time point,
//! * [`EventQueue`] — a deterministic future-event list,
//! * [`DriftModel`] — bounded-drift rate schedules, including the adversarial
//!   ones used by the lower-bound experiments,
//! * [`rng`] — seeded, splittable random-number streams so that every
//!   simulation is reproducible from a single `u64` seed.
//!
//! The drifting clocks of §3 of the paper are not here: a node's hardware
//! and logical clocks are integrated once, in closed form from an anchor,
//! by `gcs-protocol`'s `NodeState`. A [`DriftSchedule`] only says when each
//! rate changes.
//!
//! The kernel is intentionally free of any networking or algorithm logic;
//! see `gcs-net` and `gcs-core` for those layers.
//!
//! # Example
//!
//! ```
//! use gcs_sim::{DriftModel, EventQueue, SimTime};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::from_secs(1.0), "hello");
//! queue.schedule(SimTime::from_secs(0.5), "world");
//!
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "world");
//! assert_eq!(t, SimTime::from_secs(0.5));
//!
//! // Half the nodes 1% fast, half 1% slow, for the whole run.
//! let drift = DriftModel::TwoBlock.realize(4, 0.01, SimTime::from_secs(10.0), 7);
//! assert!(drift.respects_bound(0.01));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod event;
pub mod rng;
mod time;

pub use drift::{DriftModel, DriftSchedule, RateChange};
pub use event::EventQueue;
pub use time::{SimDuration, SimTime};
