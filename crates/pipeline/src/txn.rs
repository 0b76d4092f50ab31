//! Pipeline transaction descriptions: operations, per-round crash
//! schedules, and the bank-transfer workload generator used by the CLI,
//! the benches, and the property tests.

use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, Op};

/// One data operation of a pipelined transaction.
///
/// [`PipeOp::AddI64`] is the read-modify-write primitive the concurrent
/// scheduler needs: under overlap the value a transfer writes depends on
/// what committed before it, so the delta is resolved against the
/// committed (plus own-staged) state *at admission*, after the exclusive
/// lock is granted — two-phase locking makes that serializable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipeOp {
    /// Read `key` at `site` (shared lock).
    Read {
        /// Site holding the key.
        site: usize,
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Write `key = value` at `site` (exclusive lock).
    Write {
        /// Site holding the key.
        site: usize,
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Add `delta` to the little-endian i64 at `key` on `site`
    /// (exclusive lock; missing key reads as 0).
    AddI64 {
        /// Site holding the key.
        site: usize,
        /// Key bytes.
        key: Vec<u8>,
        /// Signed delta applied at admission time.
        delta: i64,
    },
}

impl PipeOp {
    /// The site this operation addresses.
    pub fn site(&self) -> usize {
        match self {
            Self::Read { site, .. } | Self::Write { site, .. } | Self::AddI64 { site, .. } => *site,
        }
    }

    /// The key this operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            Self::Read { key, .. } | Self::Write { key, .. } | Self::AddI64 { key, .. } => key,
        }
    }
}

impl From<&Op> for PipeOp {
    fn from(op: &Op) -> Self {
        match op {
            Op::Read { site, key } => Self::Read { site: *site, key: key.clone() },
            Op::Write { site, key, value } => {
                Self::Write { site: *site, key: key.clone(), value: value.clone() }
            }
        }
    }
}

/// One transaction submitted to the pipeline: its operations plus the
/// crash schedule injected into its commit round.
#[derive(Clone, Debug, Default)]
pub struct PipelineTxn {
    /// Data operations, executed under wait-die locking at admission.
    pub ops: Vec<PipeOp>,
    /// Crashes injected into this transaction's commit round.
    pub crashes: Vec<CrashSpec>,
}

impl PipelineTxn {
    /// A crash-free transaction.
    pub fn new(ops: Vec<PipeOp>) -> Self {
        Self { ops, crashes: Vec::new() }
    }

    /// Attach a crash schedule for this transaction's commit round.
    pub fn with_crashes(mut self, crashes: Vec<CrashSpec>) -> Self {
        self.crashes = crashes;
        self
    }

    /// Convert a workload generator's [`Op`] list (e.g. a setup
    /// transaction).
    pub fn from_ops(ops: &[Op]) -> Self {
        Self::new(ops.iter().map(PipeOp::from).collect())
    }
}

/// Generate `count` random bank transfers as pipeline transactions, each
/// with probability `crash_pct`% of a coordinator crash partway through
/// its second transition (the same injection point as bench B4).
pub fn bank_transfer_txns(
    w: &mut BankWorkload,
    count: usize,
    crash_pct: u32,
    rng: &mut SimRng,
) -> Vec<PipelineTxn> {
    (0..count)
        .map(|_| {
            let (from, to, amount) = w.random_transfer();
            let ops = vec![
                PipeOp::AddI64 {
                    site: w.site_of(from),
                    key: BankWorkload::key_of(from),
                    delta: -amount,
                },
                PipeOp::AddI64 {
                    site: w.site_of(to),
                    key: BankWorkload::key_of(to),
                    delta: amount,
                },
            ];
            let crashes = if crash_pct > 0 && rng.gen_ratio(crash_pct, 100) {
                vec![CrashSpec {
                    site: 0,
                    point: CrashPoint::OnTransition {
                        ordinal: 2,
                        progress: TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)),
                    },
                    recover_at: None,
                }]
            } else {
                Vec::new()
            };
            PipelineTxn::new(ops).with_crashes(crashes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accessors() {
        let op = PipeOp::AddI64 { site: 2, key: b"k".to_vec(), delta: -5 };
        assert_eq!(op.site(), 2);
        assert_eq!(op.key(), b"k");
    }

    #[test]
    fn from_workload_ops() {
        let ops = vec![
            Op::Read { site: 0, key: b"a".to_vec() },
            Op::Write { site: 1, key: b"b".to_vec(), value: b"v".to_vec() },
        ];
        let t = PipelineTxn::from_ops(&ops);
        assert_eq!(t.ops.len(), 2);
        assert_eq!(t.ops[1], PipeOp::Write { site: 1, key: b"b".to_vec(), value: b"v".to_vec() });
    }

    #[test]
    fn generator_shapes_transfers() {
        let mut w = BankWorkload::new(3, 12, 1_000, 9);
        let mut rng = SimRng::seed_from_u64(9);
        let txns = bank_transfer_txns(&mut w, 20, 50, &mut rng);
        assert_eq!(txns.len(), 20);
        for t in &txns {
            assert_eq!(t.ops.len(), 2);
            let deltas: i64 = t
                .ops
                .iter()
                .map(|o| match o {
                    PipeOp::AddI64 { delta, .. } => *delta,
                    _ => panic!("transfers are AddI64 pairs"),
                })
                .sum();
            assert_eq!(deltas, 0, "transfer legs must cancel");
        }
        assert!(txns.iter().any(|t| !t.crashes.is_empty()), "50% crash rate yields some");
        assert!(txns.iter().any(|t| t.crashes.is_empty()));
    }
}
