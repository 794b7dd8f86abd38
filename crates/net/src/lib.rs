//! # gcm-net — thread-per-core ingress with ⊙-priced load shedding
//!
//! The network front end of the serving stack: an acceptor thread plus
//! one epoll poll-loop thread per core ([`shard`]), a compact
//! length-prefixed wire protocol ([`wire`]), bounded per-shard ingress
//! queues feeding the [`gcm_service::QueryService`] batch scheduler
//! ([`server`]), and an open-loop Poisson/Zipf load generator
//! ([`loadgen`]).
//!
//! The point of putting the cost model *in* the network tier: overload
//! control usually guesses (queue length thresholds, static rate
//! limits). Here the admission layer already prices every pending
//! query's memory-hierarchy behaviour with the paper's ⊙ composition,
//! so the shed decision can be a *projection* — "given the work ahead
//! of it and the measured model-to-wall scale, this query will blow
//! its class's sojourn budget" — made at arrival cost, long before any
//! execution is wasted on a doomed request. Back-pressure to the
//! socket is the complementary half: queues are bounded, and a full
//! queue simply stops the shard reading, which closes the TCP window.
//!
//! Everything is dependency-free: epoll and pipes are raw
//! `extern "C"` shims ([`sys`]) against the libc the Rust runtime
//! already links, so the crate builds offline with plain std. The
//! event-loop modules are Linux-only; [`wire`] and [`loadgen`]'s
//! schedule math are portable.

#[cfg(target_os = "linux")]
pub mod sys;

pub mod wire;

#[cfg(target_os = "linux")]
pub mod shard;

#[cfg(target_os = "linux")]
pub mod server;

pub mod loadgen;

pub use loadgen::{ClassReport, LoadReport, LoadgenConfig};
#[cfg(target_os = "linux")]
pub use server::{Clock, NetConfig, NetServer};
pub use wire::{
    encode_response, encode_submit, Frame, FrameDecoder, ResponseFrame, SubmitFrame, WireError,
    MAX_FRAME,
};
