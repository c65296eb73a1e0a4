//! # netsim — deterministic discrete-event network simulation
//!
//! The paper's client-side measurements ride on real networks; we ride on
//! this crate. In the spirit of smoltcp ("simplicity and robustness" as
//! design goals), it is a *synchronous, event-driven* simulator: no async
//! runtime, no threads, no wall-clock — just a virtual microsecond clock, a
//! binary-heap event queue, per-destination path profiles and a TCP
//! handshake model with SYN retransmission.
//!
//! The crate deliberately models only what the measurement pipelines need:
//!
//! * [`event::EventQueue`] — a generic ordered event queue. Happy Eyeballs
//!   ([`happyeyeballs`](https://docs.rs)) schedules resolution timers and
//!   staggered connection attempts through it.
//! * [`path::Network`] — maps destination addresses to [`path::PathProfile`]s
//!   (RTT, loss, reachability): a default per family plus one optional
//!   IPv6 route (the NAT64 detour); this is where a residence with broken
//!   IPv6 (the paper's Residence C conjecture) is expressed as
//!   `v6_default.reachable = false`.
//! * [`tcp::TcpConnector`] — models connection establishment: a SYN is lost
//!   with the path's loss probability, retransmitted with exponential
//!   backoff, and the connection completes one RTT after the first SYN that
//!   survives.
//!
//! Determinism: all randomness comes from caller-provided [`rand::Rng`]
//! state, and ties in the event queue break by insertion sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod path;
pub mod tcp;

pub use event::EventQueue;
pub use path::{Network, PathProfile};
pub use tcp::{ConnectOutcome, TcpConnector};

/// Virtual time in microseconds since simulation start.
pub type Time = u64;

/// One virtual millisecond.
pub const MILLIS: Time = 1_000;

/// One virtual second.
pub const SECONDS: Time = 1_000_000;
