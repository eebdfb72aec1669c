//! `pckpt-desim` — a discrete-event simulation engine.
//!
//! The paper evaluates its C/R models with SimPy. This crate is the Rust
//! substrate playing that role, in event-driven form: a model implements
//! [`engine::Model`] and handles typed events popped from a cancellable
//! priority queue ([`queue`]). Coordination protocols with aborts (live
//! migration cancelled by a higher-priority prediction) map naturally onto
//! explicit state machines plus event cancellation.
//!
//! Alongside the engine sits [`flow`], a fluid-flow model of shared links:
//! concurrent transfers progress simultaneously at a fair share of a
//! (possibly load-dependent) capacity, which is how the PFS and burst
//! buffer bandwidth contention of the paper's I/O model is simulated
//! without simulating individual I/O requests. [`ReferenceFlowLink`] is
//! the straightforward implementation the optimized link is tested
//! against.
//!
//! Determinism: ties in event time are broken by schedule order (a
//! monotone sequence number), so a simulation is a pure function of its
//! inputs and RNG seed.

#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod flow;
pub mod queue;
pub mod smallmap;
pub mod time;

pub use engine::{run_with_queue, Ctx, Model, Simulation};
pub use flow::{FlowLink, TransferId};
pub use flow::reference::ReferenceFlowLink;
pub use queue::{EventId, EventQueue};
pub use smallmap::SmallMap;
pub use time::{SimDuration, SimTime};

/// Re-export of the structured observability layer threaded through the
/// engine, queue and flow link (see `pckpt-simobs`).
pub use pckpt_simobs as obs;
