//! The experiment registry: one entry per paper figure/table (E1–E12) and
//! per quantitative shape claim (B1–B5). See `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for paper-vs-measured notes.

mod analysis_exps;
mod extensions;
mod figures;
mod graphs;
mod perf;
mod synthesis_exps;
mod termination_exps;

/// One runnable experiment.
pub struct Experiment {
    /// Identifier used on the command line, e.g. `"e4"`.
    pub id: &'static str,
    /// What the experiment regenerates.
    pub title: &'static str,
    /// Produce the report.
    pub run: fn() -> String,
}

/// All experiments in presentation order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            title: "Fig.: the FSAs for the central-site 2PC protocol",
            run: figures::e1_central_2pc_fsas,
        },
        Experiment {
            id: "e2",
            title: "Fig.: reachable state graph for the 2-site 2PC protocol",
            run: graphs::e2_two_site_2pc_graph,
        },
        Experiment {
            id: "e3",
            title: "Fig.: the decentralized 2PC protocol",
            run: figures::e3_decentralized_2pc_fsa,
        },
        Experiment {
            id: "e4",
            title: "Table: concurrency sets in the canonical 2PC protocol",
            run: analysis_exps::e4_concurrency_sets,
        },
        Experiment {
            id: "e5",
            title: "Blocking in the canonical 2PC protocol (theorem violations)",
            run: analysis_exps::e5_blocking_2pc,
        },
        Experiment {
            id: "e6",
            title: "Making 2PC nonblocking: buffer-state synthesis -> 3PC",
            run: synthesis_exps::e6_synthesis,
        },
        Experiment {
            id: "e7",
            title: "Fig.: a nonblocking central-site 3PC protocol",
            run: figures::e7_central_3pc_fsas,
        },
        Experiment {
            id: "e8",
            title: "Fig.: a nonblocking decentralized 3PC protocol",
            run: figures::e8_decentralized_3pc_fsa,
        },
        Experiment {
            id: "e9",
            title: "Termination protocol for the canonical 3PC (decision table + crash sweep)",
            run: termination_exps::e9_termination,
        },
        Experiment {
            id: "e10",
            title: "Corollary: k-resiliency of the catalog",
            run: termination_exps::e10_resilience,
        },
        Experiment {
            id: "e11",
            title: "Fundamental nonblocking theorem across the catalog",
            run: analysis_exps::e11_theorem_catalog,
        },
        Experiment {
            id: "e12",
            title: "Synchronicity within one state transition",
            run: analysis_exps::e12_synchronicity,
        },
        Experiment {
            id: "b1",
            title: "Blocking probability vs. crash point (2PC vs 3PC)",
            run: perf::b1_blocking_probability,
        },
        Experiment {
            id: "b2",
            title: "Message complexity per protocol and paradigm",
            run: perf::b2_message_complexity,
        },
        Experiment {
            id: "b3",
            title: "Latency in phases and simulated time",
            run: perf::b3_latency,
        },
        Experiment {
            id: "b4",
            title: "Transaction throughput under coordinator crashes (2PC vs 3PC)",
            run: perf::b4_throughput_under_failures,
        },
        Experiment {
            id: "b5",
            title: "Reachable-state-graph growth with the number of sites",
            run: graphs::b5_graph_growth,
        },
        Experiment {
            id: "b6",
            title: "Concurrent commit pipeline with group commit vs one round at a time",
            run: perf::b6_pipeline_group_commit,
        },
        Experiment {
            id: "b8",
            title: "Paxos Commit: goodput vs acceptor-fault tolerance F under acceptor crashes",
            run: perf::b8_paxos_resilience,
        },
        Experiment {
            id: "x1",
            title: "Extension/ablation: the k-phase commit family (is one buffer state enough?)",
            run: extensions::x1_kpc_ablation,
        },
        Experiment {
            id: "x2",
            title: "Extension: independent recovery classification",
            run: extensions::x2_independent_recovery,
        },
        Experiment {
            id: "x3",
            title: "Extension: why 'the network never fails' matters (3PC under partition)",
            run: extensions::x3_partition_unsafety,
        },
        Experiment {
            id: "x4",
            title: "Extension: quorum-gated termination closes the partition window",
            run: extensions::x4_quorum_termination,
        },
    ]
}

/// Find one experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let exps = all();
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), exps.len());
        assert_eq!(exps.len(), 23);
    }

    #[test]
    fn lookup_by_id() {
        assert!(by_id("E4").is_some());
        assert!(by_id("b5").is_some());
        assert!(by_id("zzz").is_none());
    }
}
