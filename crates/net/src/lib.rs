//! Dynamic estimate-graph model for `gradient-clock-sync`.
//!
//! This crate realizes §3.1 of the paper:
//!
//! * [`DynamicGraph`] — the *directed* dynamic estimate graph `G = (V, E(t))`.
//!   A directed edge `(u, v) ∈ E(t)` means `u` currently has a means of
//!   estimating `v`'s clock; the two directions of an undirected estimate
//!   edge may appear/disappear up to `τ` apart.
//! * [`EdgeParams`] / [`EdgeParamsMap`] — the per-edge quantities of the
//!   model: estimate uncertainty `ε`, detection delay `τ`, and the message
//!   delay range `[delay_min, delay_max]` (so `T = delay_max` and the delay
//!   *uncertainty* is `U = delay_max − delay_min`).
//! * [`Topology`] — static graph shapes (line, ring, grid, torus, star,
//!   complete, random) used as the backbone of dynamic schedules.
//! * [`NetworkSchedule`] — a deterministic, seeded script of edge events
//!   (the worst-case adversary of the paper, made concrete), including
//!   connectivity-preserving churn and chord-insertion scenarios.
//! * [`mobility`] — a random-waypoint generator producing schedules from
//!   node movement and radio range.
//! * [`transport`] — message envelopes and the edge-continuity delivery rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edge;
mod graph;
pub mod mobility;
mod schedule;
mod topology;
pub mod transport;

pub use edge::{EdgeParams, EdgeParamsError, EdgeParamsMap};
pub use graph::{support_connected, DynamicGraph, EdgeKey, NodeId};
pub use schedule::{ChurnOptions, EdgeEvent, EdgeEventKind, NetworkSchedule};
pub use topology::Topology;
