//! # nbc-txn — the application layer over the commit engine
//!
//! The paper motivates unilateral aborts with local concurrency control:
//! *"a server may not be able to commit its part of a transaction due to
//! issues of concurrency control — e.g. the resolution of a deadlock, when
//! a locking scheme is adopted."* This crate supplies that application
//! layer; `nbc-pipeline` runs it:
//!
//! * [`locks`] — a per-site lock manager with shared/exclusive locks and
//!   **wait-die** deadlock avoidance, so no votes arise organically;
//! * [`ProtocolKind`] — which commit protocol a multi-site deployment
//!   runs (2PC or 3PC, central or decentralized, or Paxos Commit);
//! * [`workload`] — bank-transfer and inventory workload generators with
//!   conservation invariants used by the property tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod locks;
pub mod workload;

pub use locks::{LockManager, LockMode, LockOutcome};
pub use workload::{BankWorkload, InventoryWorkload, Op};

use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};
use nbc_core::Protocol;
use nbc_engine::TerminationRule;

/// Which commit protocol a deployment runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// Central-site two-phase commit (blocking).
    Central2pc,
    /// Central-site three-phase commit (nonblocking).
    Central3pc,
    /// Decentralized two-phase commit (blocking).
    Decentralized2pc,
    /// Decentralized three-phase commit (nonblocking).
    Decentralized3pc,
    /// Paxos Commit with `2f + 1` acceptor sites riding on top of the
    /// data sites. The data sites are the protocol's participants; the
    /// acceptors carry no keys, locks, or WAL — they exist only inside
    /// the commit round.
    Paxos {
        /// Tolerated acceptor crashes.
        f: usize,
    },
}

impl ProtocolKind {
    /// Instantiate the protocol for `n` sites.
    pub fn build(self, n: usize) -> Protocol {
        match self {
            Self::Central2pc => central_2pc(n),
            Self::Central3pc => central_3pc(n),
            Self::Decentralized2pc => decentralized_2pc(n),
            Self::Decentralized3pc => decentralized_3pc(n),
            Self::Paxos { f } => nbc_paxos::paxos_commit(n, f),
        }
    }

    /// The termination rule a deployment of this protocol would use:
    /// cooperative termination for the blocking protocols, the paper's
    /// rule for the nonblocking ones. Paxos Commit participants behave
    /// like 2PC slaves, so they terminate cooperatively.
    pub fn rule(self) -> TerminationRule {
        match self {
            Self::Central2pc | Self::Decentralized2pc | Self::Paxos { .. } => {
                TerminationRule::Cooperative
            }
            Self::Central3pc | Self::Decentralized3pc => TerminationRule::Skeen,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Central2pc => "central 2PC",
            Self::Central3pc => "central 3PC",
            Self::Decentralized2pc => "decentralized 2PC",
            Self::Decentralized3pc => "decentralized 3PC",
            Self::Paxos { .. } => "paxos commit",
        }
    }
}
