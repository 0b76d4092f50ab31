//! A sharded bank running distributed transfers under failures: the
//! application-level face of nonblocking commit.
//!
//! Accounts are spread over three sites; every transfer debits one site
//! and credits another, so transaction atomicity *is* conservation of
//! money. We run the same crash-ridden workload under 2PC and 3PC, one
//! commit round at a time, and compare what survives.
//!
//! ```text
//! cargo run --example bank_cluster
//! ```

use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig, PipelineTxn};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

fn run(kind: ProtocolKind) {
    let n_sites = 3;
    let mut w = BankWorkload::new(n_sites, 12, 1_000, 42);
    let mut cluster = Pipeline::new(PipelineConfig::serial(n_sites, kind));
    let setup = cluster.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
    assert_eq!(setup.committed, 1);

    let mut rng = SimRng::seed_from_u64(99);
    let mut transfers = bank_transfer_txns(&mut w, 100, 0, &mut rng);
    for t in &mut transfers {
        // 20% of commit rounds lose the coordinator at a random point of
        // its decision broadcast.
        if rng.gen_bool(0.2) {
            t.crashes = vec![CrashSpec {
                site: 0,
                point: CrashPoint::OnTransition {
                    ordinal: 2,
                    progress: TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)),
                },
                recover_at: None,
            }];
        }
    }
    // A blocked round keeps its locks until the batch ends; then recovery
    // resolves it (adopting a decision durable at the crashed coordinator,
    // else aborting) and frees them.
    let r = cluster.run(transfers);

    println!("--- {} ---", kind.name());
    println!(
        "  committed: {:>3}   aborted: {:>3}   blocked (locks stranded): {:>3}",
        r.committed, r.aborted, r.blocked,
    );
    println!(
        "  messages: {}   blocked rounds committed by recovery: {}",
        setup.msgs + r.msgs,
        r.reaped_commits
    );
    let total = cluster.total_balance(&w);
    println!(
        "  after recovery: total balance = {} (expected {}) — money {}",
        total,
        w.expected_total(),
        if total == w.expected_total() { "conserved ✓" } else { "LOST ✗" }
    );
    assert_eq!(total, w.expected_total());
    assert_eq!(cluster.locked_keys(), 0);
    println!();
}

fn main() {
    println!("100 transfers, 20% coordinator-crash rate, 3 sites, 12 accounts\n");
    run(ProtocolKind::Central2pc);
    run(ProtocolKind::Central3pc);
    println!(
        "Shape: both protocols preserve atomicity (money is conserved after \
         recovery), but 2PC\nstrands transactions whose held locks poison \
         later transfers, while 3PC keeps deciding."
    );
}
