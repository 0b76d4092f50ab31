//! Quantitative shape experiments B1–B4: blocking probability, message
//! complexity, phase latency, and throughput under failures.

use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};
use nbc_core::{Analysis, Protocol};
use nbc_engine::{
    enumerate_crash_specs, run_with, sweep, CrashPoint, CrashSpec, RunConfig, TerminationRule,
    TransitionProgress,
};
use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig, PipelineTxn, ThroughputReport};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

use crate::table::Table;

fn rule_for(p: &Protocol) -> TerminationRule {
    if p.phase_count() >= 3 {
        TerminationRule::Skeen
    } else {
        TerminationRule::Cooperative
    }
}

/// B1 — blocking probability over the exhaustive crash-point space, per
/// protocol and site count. Shape: 2PC has a nonzero blocking window that
/// persists as n grows; 3PC is zero everywhere.
///
/// The per-(protocol, n) sweeps are independent, so they run on scoped
/// threads.
pub fn b1_blocking_probability() -> String {
    let mut jobs: Vec<Protocol> = Vec::new();
    for n in [3usize, 5, 7] {
        jobs.push(central_2pc(n));
        jobs.push(central_3pc(n));
    }
    for n in [3usize, 4] {
        jobs.push(decentralized_2pc(n));
        jobs.push(decentralized_3pc(n));
    }

    let rows: Vec<[String; 5]> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|p| {
                scope.spawn(move || {
                    let n = p.n_sites();
                    let a = Analysis::build(p).expect("analyzable");
                    let specs = enumerate_crash_specs(p, None);
                    let base = RunConfig::happy(n).with_rule(rule_for(p));
                    let s = sweep(p, &a, &base, &specs);
                    assert!(s.all_consistent(), "{}: {:?}", p.name, s.inconsistent_runs);
                    [
                        p.name.clone(),
                        n.to_string(),
                        s.total.to_string(),
                        s.blocked.to_string(),
                        format!("{:.3}", s.blocking_rate()),
                    ]
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep thread")).collect()
    });

    let mut t =
        Table::new(["protocol", "n", "crash points", "blocked runs", "blocking probability"]);
    for row in rows {
        t.row(row);
    }
    format!(
        "{}\nShape: every 2PC row has blocking probability > 0 (the window \
         where the coordinator dies holding the only copy of the decision); \
         every 3PC row is exactly 0.\n",
        t.render()
    )
}

/// B2 — messages per committed transaction. Shape: central 2PC = 3(n−1),
/// central 3PC = 5(n−1); decentralized 2PC = n², decentralized 3PC = 2n².
pub fn b2_message_complexity() -> String {
    let mut t = Table::new(["protocol", "n", "messages (measured)", "formula", "predicted"]);
    let push = |t: &mut Table, p: Protocol, n: usize, formula: &str, predicted: usize| {
        let a = Analysis::build(&p).expect("analyzable");
        let r = run_with(&p, &a, RunConfig::happy(n));
        assert_eq!(r.decision(), Some(true));
        t.row([
            p.name.clone(),
            n.to_string(),
            r.msgs_sent.to_string(),
            formula.to_string(),
            predicted.to_string(),
        ]);
    };
    for n in [2usize, 3, 5, 8] {
        push(&mut t, central_2pc(n), n, "3(n-1)", 3 * (n - 1));
        push(&mut t, central_3pc(n), n, "5(n-1)", 5 * (n - 1));
        // The decentralized analyses grow exponentially; n=5 already shows
        // the quadratic message shape.
        if n <= 5 {
            push(&mut t, decentralized_2pc(n), n, "n^2", n * n);
            push(&mut t, decentralized_3pc(n), n, "2n^2", 2 * n * n);
        }
    }
    format!(
        "{}\nShape: the buffer round costs 2(n−1) extra messages in the \
         central paradigm and n² in the decentralized one — the price of \
         nonblocking.\n",
        t.render()
    )
}

/// B3 — latency: protocol phases and end-to-end simulated time (constant
/// unit latency). Shape: 3PC adds exactly one phase (one round trip in the
/// central paradigm, one interchange in the decentralized one).
pub fn b3_latency() -> String {
    let mut t = Table::new(["protocol", "n", "phases", "sim time to all-final"]);
    for n in [3usize, 5] {
        for p in [central_2pc(n), central_3pc(n), decentralized_2pc(n), decentralized_3pc(n)] {
            let a = Analysis::build(&p).expect("analyzable");
            let r = run_with(&p, &a, RunConfig::happy(n));
            t.row([
                p.name.clone(),
                n.to_string(),
                p.phase_count().to_string(),
                r.finished_at.to_string(),
            ]);
        }
    }
    format!(
        "{}\nShape: with unit latency, commit latency grows by one message \
         round per added phase; decentralized protocols pay the same rounds \
         with quadratic bandwidth.\n",
        t.render()
    )
}

/// B4 — committed-transaction throughput under coordinator crashes, 2PC vs
/// 3PC over the bank workload, one round at a time. Shape: 3PC keeps
/// terminating (no blocked transactions, bounded abort rate); 2PC strands
/// transactions whose locks then poison later conflicting transactions.
pub fn b4_throughput_under_failures() -> String {
    let mut t = Table::new([
        "protocol",
        "crash rate",
        "txns",
        "committed",
        "aborted",
        "blocked",
        "goodput",
    ]);
    for kind in [ProtocolKind::Central2pc, ProtocolKind::Central3pc] {
        for crash_pct in [0u32, 10, 25, 50] {
            let (mut p, mut w, _) = serial_bank(kind, 3);
            let total = 200usize;
            let mut rng = SimRng::seed_from_u64(2024);
            let r = p.run(bank_transfer_txns(&mut w, total, crash_pct, &mut rng));
            t.row([
                kind.name().to_string(),
                format!("{crash_pct}%"),
                total.to_string(),
                r.committed.to_string(),
                r.aborted.to_string(),
                r.blocked.to_string(),
                format!("{:.2}", r.committed as f64 / total as f64),
            ]);
            assert_eq!(
                p.total_balance(&w),
                w.expected_total(),
                "{}: conservation after recovery",
                kind.name()
            );
        }
    }
    format!(
        "{}\nShape: at 0% both protocols commit everything; as the crash \
         rate rises, 2PC goodput collapses (blocked transactions hold locks \
         and poison successors) while 3PC degrades only by the transactions \
         aborted by the termination protocol itself.\n",
        t.render()
    )
}

/// A serial pipeline over `n` sites whose 12-account bank (seed 31) has
/// been set up by one committed transaction, plus that setup run's report.
fn serial_bank(kind: ProtocolKind, n: usize) -> (Pipeline, BankWorkload, ThroughputReport) {
    let w = BankWorkload::new(n, 12, 1_000, 31);
    let mut p = Pipeline::new(PipelineConfig::serial(n, kind));
    let setup = p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
    assert_eq!(setup.committed, 1);
    (p, w, setup)
}

/// B6 — concurrent commit pipeline vs one round at a time: transactions
/// per kilotick at growing in-flight limits, with group-commit savings.
/// Shape: concurrency multiplies throughput for both protocols (rounds
/// overlap on the wire), but 2PC's blocked rounds strand locks until the
/// reaper fires, so its speedup saturates below 3PC's under crashes.
pub fn b6_pipeline_group_commit() -> String {
    let mut t = Table::new([
        "protocol",
        "crash rate",
        "in-flight",
        "committed",
        "aborted",
        "blocked",
        "ticks",
        "txn/ktick",
        "speedup",
        "syncs saved",
    ]);
    let txns = 100usize;
    for kind in [ProtocolKind::Central2pc, ProtocolKind::Central3pc] {
        for crash_pct in [0u32, 25] {
            let w = BankWorkload::new(3, 24, 1_000, 31);
            let batch = {
                let mut rng = SimRng::seed_from_u64(0xB6);
                bank_transfer_txns(&mut w.clone(), txns, crash_pct, &mut rng)
            };
            // Speedups are relative to the in-flight-1 row.
            let mut serial_ticks = 0;
            for in_flight in [1usize, 4, 8] {
                let mut p = Pipeline::new(
                    PipelineConfig::new(3, kind)
                        .with_in_flight(in_flight)
                        .with_group_window(3)
                        .with_reap_after(60),
                );
                p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
                let start = p.now();
                let r = p.run(batch.clone());
                assert_eq!(
                    p.total_balance(&w),
                    w.expected_total(),
                    "{}: pipeline conservation",
                    kind.name()
                );
                assert_eq!(p.locked_keys(), 0);
                let ticks = (r.finished_at - start).max(1);
                if in_flight == 1 {
                    serial_ticks = ticks;
                }
                let rate = txns as f64 * 1000.0 / ticks as f64;
                let speedup = serial_ticks as f64 / ticks as f64;
                if in_flight == 8 {
                    assert!(
                        speedup >= 2.0,
                        "{} @ {crash_pct}%: pipeline must be >= 2x serial, got {speedup:.2}",
                        kind.name()
                    );
                    assert!(r.syncs_saved > 0, "group commit must save syncs");
                }
                t.row([
                    kind.name().to_string(),
                    format!("{crash_pct}%"),
                    in_flight.to_string(),
                    r.committed.to_string(),
                    r.aborted.to_string(),
                    r.blocked.to_string(),
                    ticks.to_string(),
                    format!("{rate:.1}"),
                    format!("{speedup:.2}x"),
                    r.syncs_saved.to_string(),
                ]);
            }
        }
    }
    format!(
        "{}\nShape: overlapping rounds multiply throughput and group commit \
         absorbs most log forces; under crashes 2PC pays twice — blocked \
         rounds finish only at the reap deadline (latency tail) and their \
         strand-locks abort younger transactions in the meantime.\n",
        t.render()
    )
}

/// B8 — Paxos Commit resilience: goodput and per-round cost vs the
/// acceptor-fault tolerance F under injected acceptor crashes, plus the
/// Gray–Lamport cost table. Shape: F=0 has a 1-of-1 quorum and blocks
/// like 2PC the moment its lone acceptor dies mid-relay; F>=1 absorbs one
/// crashed acceptor per round with goodput intact, paying a linear
/// message premium per extra acceptor pair.
pub fn b8_paxos_resilience() -> String {
    use nbc_paxos::{central_2pc_cost, central_3pc_cost, gl_2pc_cost, gl_paxos_cost, paxos_cost};

    let n = 3usize;
    let mut t = Table::new([
        "F",
        "acceptors",
        "crash rate",
        "txns",
        "committed",
        "aborted",
        "blocked",
        "goodput",
        "msgs/txn",
    ]);
    for f in [0usize, 1, 2] {
        let acceptors = 2 * f + 1;
        for crash_pct in [0u32, 25, 50] {
            let (mut p, mut w, setup) = serial_bank(ProtocolKind::Paxos { f }, n);
            let total = 120usize;
            let mut rng = SimRng::seed_from_u64(0xB8 + f as u64);
            let mut txns = bank_transfer_txns(&mut w, total, 0, &mut rng);
            for txn in &mut txns {
                if rng.gen_ratio(crash_pct, 100) {
                    // One random acceptor dies before relaying its verdict
                    // to the leader — the crash the quorum exists to absorb.
                    txn.crashes = vec![CrashSpec {
                        site: n + rng.gen_range(0..acceptors),
                        point: CrashPoint::OnTransition {
                            ordinal: 1,
                            progress: TransitionProgress::AfterMsgs(0),
                        },
                        recover_at: None,
                    }];
                }
            }
            let r = p.run(txns);
            if f >= 1 {
                assert_eq!(
                    r.blocked, 0,
                    "f={f} @ {crash_pct}%: a quorum must absorb one acceptor crash"
                );
            }
            t.row([
                f.to_string(),
                acceptors.to_string(),
                format!("{crash_pct}%"),
                total.to_string(),
                r.committed.to_string(),
                r.aborted.to_string(),
                r.blocked.to_string(),
                format!("{:.2}", r.committed as f64 / total as f64),
                // Per round, the setup transaction's included.
                format!("{:.1}", (setup.msgs + r.msgs) as f64 / (total + 1) as f64),
            ]);
            assert_eq!(
                p.total_balance(&w),
                w.expected_total(),
                "f={f} @ {crash_pct}%: conservation after recovery"
            );
        }
    }

    let mut cost = Table::new([
        "protocol",
        "msgs/txn",
        "stable writes",
        "delays",
        "GL msgs",
        "GL writes",
        "GL delays",
    ]);
    let gl = |r: nbc_paxos::CostRow| {
        [r.messages.to_string(), r.stable_writes.to_string(), r.delays.to_string()]
    };
    let mut push = |name: String, m: nbc_paxos::CostRow, g: Option<nbc_paxos::CostRow>| {
        let [gm, gw, gd] = g.map(gl).unwrap_or_else(|| ["-".into(), "-".into(), "-".into()]);
        cost.row([
            name,
            m.messages.to_string(),
            m.stable_writes.to_string(),
            m.delays.to_string(),
            gm,
            gw,
            gd,
        ]);
    };
    push("central-2pc".into(), central_2pc_cost(n), Some(gl_2pc_cost(n)));
    push("central-3pc".into(), central_3pc_cost(n), None);
    for f in [0usize, 1, 2] {
        push(format!("paxos-commit f={f}"), paxos_cost(n, f), Some(gl_paxos_cost(n, f)));
    }

    format!(
        "{}\nShape: at F=0 goodput collapses with the acceptor crash rate \
         exactly like 2PC under coordinator crashes (the stranded rounds \
         hold locks and poison successors); at F>=1 every round decides and \
         goodput stays near 1.0, bought with (n-1)+2 extra messages per \
         acceptor pair.\n\nCost per committed transaction at n={n} \
         (measured model vs Gray-Lamport analytic; GL colocate acceptors \
         with RMs, eliding the relay messages and the 3 log forces each \
         distinct acceptor site pays here):\n{}\n",
        t.render(),
        cost.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b2_formulas_hold() {
        let s = b2_message_complexity();
        for line in s.lines().filter(|l| l.contains("central-site")) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            // measured == predicted (last two numeric columns).
            let measured = cells[cells.len() - 3];
            let predicted = cells[cells.len() - 1];
            assert_eq!(measured, predicted, "{line}");
        }
    }

    #[test]
    fn b1_shapes() {
        let s = b1_blocking_probability();
        assert!(s.contains("0.000"), "3PC rows must be zero: {s}");
        // Some 2PC row must be nonzero.
        assert!(
            s.lines().any(|l| l.contains("2PC") && !l.contains("0.000") && l.contains("0.")),
            "{s}"
        );
    }

    /// B4 and B8 run one round at a time through `PipelineConfig::serial`;
    /// these are the figures the dedicated serial executor it replaced
    /// printed, cell for cell.
    #[test]
    fn b4_and_b8_keep_the_serial_figures() {
        let b4 = b4_throughput_under_failures();
        let expected = "\
central 2PC  0%          200   200        0        0        1.00
central 2PC  10%         200   79         118      3        0.40
central 2PC  25%         200   42         151      7        0.21
central 2PC  50%         200   21         171      8        0.10
central 3PC  0%          200   200        0        0        1.00
central 3PC  10%         200   193        7        0        0.96
central 3PC  25%         200   185        15       0        0.93
central 3PC  50%         200   165        35       0        0.82
";
        assert!(b4.contains(expected), "{b4}");

        // F, crash rate, committed, aborted, blocked, msgs/txn.
        let expected = [
            "0 0% 120 0 0 8.0",
            "0 25% 20 84 16 7.5",
            "0 50% 11 75 34 6.7",
            "1 0% 120 0 0 16.0",
            "1 25% 120 0 0 15.8",
            "1 50% 120 0 0 15.5",
            "2 0% 120 0 0 24.0",
            "2 25% 120 0 0 23.7",
            "2 50% 120 0 0 23.5",
        ];
        let b8 = b8_paxos_resilience();
        let rows: Vec<String> = b8
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|c| c.len() == 9 && c[2].ends_with('%'))
            .map(|c| [c[0], c[2], c[4], c[5], c[6], c[8]].join(" "))
            .collect();
        assert_eq!(rows, expected, "{b8}");
    }
}
