//! # nbc-pipeline — a concurrent multi-transaction commit scheduler
//!
//! The rest of the repository studies one commit round at a time. This
//! crate asks the throughput question: what happens when a cluster keeps
//! *many* distributed transactions in flight, each running its own
//! 2PC/3PC round over shared sites, logs, and lock tables?
//!
//! It is also the repository's one multi-transaction runtime:
//! [`PipelineConfig::serial`] runs the same scheduler one round at a
//! time, which is how the failure experiments measure blocking.
//!
//! Three mechanisms interact:
//!
//! * **Multiplexing** — every round is an independent [`nbc_engine`]
//!   simulation tagged with its transaction id and started mid-timeline;
//!   the scheduler interleaves all pending events in global time order,
//!   so the merged execution is one deterministic discrete-event history.
//! * **Group commit** — per-site WALs batch sync requests inside a
//!   configurable window ([`nbc_storage::Wal::sync_batched`]); the report
//!   counts how many physical forces the overlap saved.
//! * **Admission control** — wait-die locking at admission, with parked
//!   (waiting) transactions, classic die-and-retry restarts, and
//!   termination-protocol reaping of blocked 2PC rounds so strand-locks
//!   are a measurable cost instead of a wedge.
//!
//! Everything is deterministic: the same seed produces the same
//! interleaving and a bit-identical [`ThroughputReport`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod scheduler;
pub mod txn;

pub use report::ThroughputReport;
pub use scheduler::{Pipeline, PipelineConfig};
pub use txn::{bank_transfer_txns, PipeOp, PipelineTxn};
