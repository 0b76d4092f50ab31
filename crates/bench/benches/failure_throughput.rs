//! B4 (timing face): serial transaction throughput under coordinator
//! crashes, 2PC vs 3PC over the bank workload.

use nbc_bench::BenchGroup;
use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig, PipelineTxn};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

fn run_batch(kind: ProtocolKind, crash_pct: u32, txns: usize) -> u64 {
    let mut w = BankWorkload::new(3, 12, 1_000, 31);
    let mut p = Pipeline::new(PipelineConfig::serial(3, kind));
    assert_eq!(p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]).committed, 1);
    let mut rng = SimRng::seed_from_u64(7);
    p.run(bank_transfer_txns(&mut w, txns, crash_pct, &mut rng)).committed
}

fn main() {
    let mut g = BenchGroup::new("serial_throughput");
    g.sample_size(20);
    const TXNS: usize = 50;
    for kind in [ProtocolKind::Central2pc, ProtocolKind::Central3pc] {
        for crash_pct in [0u32, 25] {
            let name = kind.name().replace(' ', "_");
            g.bench(&format!("{name}/crash{crash_pct}pct"), || run_batch(kind, crash_pct, TXNS));
        }
    }
}
