//! One commit round at a time ([`PipelineConfig::serial`]): blocking,
//! lock poisoning, and recovery of blocked rounds, told through the
//! conservation of money and of stock.

use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_pipeline::{PipeOp, Pipeline, PipelineConfig, PipelineTxn};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, InventoryWorkload, ProtocolKind};

fn seeded(kind: ProtocolKind, w: &BankWorkload) -> Pipeline {
    let mut p = Pipeline::new(PipelineConfig::serial(w.n_sites, kind));
    assert_eq!(p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]).committed, 1);
    p
}

fn transfer(w: &BankWorkload, from: usize, to: usize, amount: i64) -> PipelineTxn {
    let leg = |acct: usize, delta: i64| PipeOp::AddI64 {
        site: w.site_of(acct),
        key: BankWorkload::key_of(acct),
        delta,
    };
    PipelineTxn::new(vec![leg(from, -amount), leg(to, amount)])
}

fn coordinator_crash(ordinal: u32, progress: TransitionProgress) -> Vec<CrashSpec> {
    vec![CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal, progress },
        recover_at: None,
    }]
}

fn balance(p: &Pipeline, w: &BankWorkload, acct: usize) -> i64 {
    BankWorkload::decode(p.get(w.site_of(acct), &BankWorkload::key_of(acct)).unwrap())
}

#[test]
fn blocked_two_pc_round_poisons_its_accounts_until_recovery() {
    let w = BankWorkload::new(3, 6, 500, 2);
    let mut p = seeded(ProtocolKind::Central2pc, &w);
    // The coordinator dies right after durably committing, telling
    // nobody: the slaves block and the locks on accounts 0 and 1 stay
    // held. A later transfer on the same accounts conflicts and aborts;
    // one on disjoint accounts commits.
    let r = p.run(vec![
        transfer(&w, 0, 1, 50).with_crashes(coordinator_crash(2, TransitionProgress::AfterMsgs(0))),
        transfer(&w, 0, 1, 10),
        transfer(&w, 2, 3, 10),
    ]);
    assert_eq!((r.committed, r.aborted, r.blocked), (1, 1, 1), "{r}");
    // Recovery adopts the coordinator's durable commit and frees the locks.
    assert_eq!(r.reaped_commits, 1, "{r}");
    assert_eq!(p.locked_keys(), 0);
    assert_eq!(p.total_balance(&w), w.expected_total());
    assert_eq!(balance(&p, &w, 0), 450, "debited by the blocked transfer only");
    assert_eq!(balance(&p, &w, 1), 550);
    assert_eq!((balance(&p, &w, 2), balance(&p, &w, 3)), (490, 510));
}

#[test]
fn blocked_round_with_undecided_coordinator_aborts_on_recovery() {
    let w = BankWorkload::new(2, 4, 500, 9);
    let mut p = seeded(ProtocolKind::Central2pc, &w);
    // The coordinator dies after collecting the vote but before logging
    // a decision: undecided everywhere, so recovery aborts.
    let r = p
        .run(vec![transfer(&w, 0, 1, 75)
            .with_crashes(coordinator_crash(2, TransitionProgress::BeforeLog))]);
    assert_eq!((r.blocked, r.reaped_commits), (1, 0), "{r}");
    assert_eq!(p.total_balance(&w), w.expected_total());
    assert_eq!(balance(&p, &w, 0), 500, "undecided transfer rolled back");
}

#[test]
fn three_pc_never_blocks_under_coordinator_crashes() {
    for kind in [ProtocolKind::Central3pc, ProtocolKind::Decentralized3pc] {
        let mut w = BankWorkload::new(3, 9, 1000, 5);
        let mut p = seeded(kind, &w);
        // Every third round crashes site 0 at its first, second, or third
        // transition, before logging or partway through sending.
        let txns = (0..20u32)
            .map(|i| {
                let (from, to, amount) = w.random_transfer();
                let t = transfer(&w, from, to, amount);
                if i % 3 == 0 {
                    let progress = if i % 2 == 0 {
                        TransitionProgress::AfterMsgs(1)
                    } else {
                        TransitionProgress::BeforeLog
                    };
                    t.with_crashes(coordinator_crash(1 + (i / 3) % 3, progress))
                } else {
                    t
                }
            })
            .collect();
        let r = p.run(txns);
        assert_eq!(r.blocked, 0, "{}: 3PC never blocks: {r}", kind.name());
        assert_eq!(r.decided(), 20);
        assert_eq!(p.total_balance(&w), w.expected_total(), "{}", kind.name());
    }
}

#[test]
fn inventory_orders_conserve_stock_under_crashes() {
    let mut rng = SimRng::seed_from_u64(8);
    for kind in [ProtocolKind::Central3pc, ProtocolKind::Decentralized3pc] {
        let mut w = InventoryWorkload::new(3, 6, 100, 13);
        let mut p = Pipeline::new(PipelineConfig::serial(3, kind));
        assert_eq!(p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]).committed, 1);
        // An order moves `qty` from an item's stock to its sold ledger on
        // site 0; 30% of rounds lose a random site at a random point.
        let orders = (0..40)
            .map(|_| {
                let (item, qty) = w.random_order();
                let t = PipelineTxn::new(vec![
                    PipeOp::AddI64 {
                        site: w.site_of(item),
                        key: InventoryWorkload::stock_key(item),
                        delta: -qty,
                    },
                    PipeOp::AddI64 { site: 0, key: InventoryWorkload::sold_key(item), delta: qty },
                ]);
                if rng.gen_bool(0.3) {
                    t.with_crashes(vec![CrashSpec {
                        site: rng.gen_range(0usize..3),
                        point: CrashPoint::OnTransition {
                            ordinal: rng.gen_range(1u32..=3),
                            progress: TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)),
                        },
                        recover_at: None,
                    }])
                } else {
                    t
                }
            })
            .collect();
        let r = p.run(orders);
        assert_eq!(r.blocked, 0, "{}: {r}", kind.name());
        assert!(r.committed > 0, "{}: {r}", kind.name());
        for item in 0..w.n_items {
            let cell = |site: usize, key: Vec<u8>| BankWorkload::decode(p.get(site, &key).unwrap());
            let stock = cell(w.site_of(item), InventoryWorkload::stock_key(item));
            let sold = cell(0, InventoryWorkload::sold_key(item));
            assert_eq!(stock + sold, 100, "{}: item {item} stock+sold drifted", kind.name());
        }
    }
}
