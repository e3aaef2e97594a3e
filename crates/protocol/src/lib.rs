//! `gcs-protocol` — the sans-IO per-node protocol core of the A_OPT
//! gradient clock synchronization algorithm (Kuhn, Lenzen, Locher,
//! Oshman; PODC 2010).
//!
//! Everything in this crate is a pure state machine: inputs are
//! timestamped inbound messages and local clock reads, outputs are
//! messages to send and mode decisions. There are no clocks, no RNG
//! draws, and no IO — the caller owns time and transport. Two harnesses
//! drive the same code:
//!
//! * the deterministic simulator in `gcs-core`: the sequential and the
//!   sharded engine call [`handlers`] for every node-local event and turn
//!   the effects into queue entries,
//! * the `gcs-node` socket daemon, which binds the sans-IO
//!   [`daemon::Daemon`] loop — many [`NodeCore`] virtual nodes, the other
//!   host of [`handlers`] — to real sockets and a wall clock.
//!
//! # Paper-to-module map
//!
//! | Module | Paper concept |
//! |---|---|
//! | [`node`] | per-node clock/bound state (`L_u`, `M_u`, `[W_u, P_u]`) |
//! | [`triggers`] | fast/slow mode triggers (Defs 4.5–4.7, Listing 3) |
//! | [`edge_state`] | staged insertion levels (Listings 1–2, §5.5 decay) |
//! | [`estimate`] | the estimate layer and its advertised uncertainty `ε` |
//! | [`flood`] | Condition 4.3 max-estimate flood merge with min-transit credit |
//! | [`handlers`] | what one node does: §3.1 delivery, flooding, the Listing 1 handshake, neighbour up/down, the Listing 3 decision — the only caller of the merge, the alignment and the policy |
//! | [`params`] | the paper's parameter soup (`ρ`, `µ`, `ι`, `κ`, `G̃`, …) |
//! | [`runtime`] | [`NodeCore`]: [`handlers`] hosted for real transports, plus the shared run-constant derivation |
//! | [`wire`] | length-prefixed frames carrying floods over real sockets |
//! | [`daemon`] | the daemon cluster's constants and its event loop, sans IO |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod edge_state;
pub mod estimate;
pub mod flood;
pub mod handlers;
pub mod node;
pub mod params;
pub mod runtime;
pub mod triggers;
pub mod wire;

pub use estimate::{ErrorModel, EstimateMode};
pub use flood::{flood_from, m_jump_triggers_fast, merge_flood, FloodMsg, MergeOutcome};
pub use node::{EdgeInfo, NeighborEntry, NeighborTable, NodeState};
pub use params::{InsertionStrategy, Params, ParamsBuilder, ParamsError};
pub use runtime::{EdgeInfoTable, NodeCore};
pub use triggers::{
    fast_trigger, slow_trigger, AoptPolicy, Mode, ModePolicy, NeighborView, NodeView, StabilityCert,
};
pub use wire::{Frame, FrameReader, WireError};
