//! # cardopc-fleet — sharded multi-process correction
//!
//! The fleet layer promotes the runtime's tile from an internal scheduling
//! unit to the distributed unit of work. One **coordinator** partitions a
//! clip with the existing halo-aware partitioner and dispatches tile work
//! units to N **worker processes** over the same dependency-free HTTP/1.1
//! subset `cardopc-serve` speaks; each answer, a pattern's entry line, is
//! placed on its tiles for stitching and manifest aggregation.
//!
//! Because every tile correction is a pure, deterministic function of
//! `(work spec, tile index)`, the distributed run produces a timing-free
//! manifest byte-identical to the single-process runtime — for any worker
//! count, kill schedule, or steal pattern. That determinism is what makes
//! aggressive failure handling safe:
//!
//! - **leases** — each dispatched tile carries a lease; a worker that does
//!   not answer within it loses the tile back to the pending queue;
//! - **heartbeats** — a background prober retires crashed workers in
//!   hundreds of milliseconds instead of a full lease period;
//! - **work stealing** — near the tail, idle lanes duplicate-dispatch
//!   tiles still leased to slower workers; the first result wins and the
//!   loser's copy is discarded (byte-identical by construction);
//! - **checkpoints** — a worker's tile cache can persist in its run
//!   directory; a restarted coordinator rebuilds job state from its own
//!   run dir and the entry lines it harvests from `GET /v1/records`.
//!
//! Module map: [`spec`] is the wire-level work description (design +
//! tiling + full `OpcConfig`, exhaustively serialised); [`proto`] the
//! tile-dispatch wire schema; [`worker`] the worker-process server;
//! [`coord`] the coordinator state machine; [`http`] / [`client`] the
//! HTTP/1.1 subset shared with (and re-exported by) `cardopc-serve`.

pub mod client;
pub mod coord;
pub mod http;
pub mod proto;
pub mod spec;
pub mod worker;

pub use coord::{run_fleet, run_fleet_clip, FleetConfig, FleetError, FleetOutcome, FleetStats};
pub use spec::{DesignSpec, WorkSpec};
pub use worker::{WorkerConfig, WorkerServer};
