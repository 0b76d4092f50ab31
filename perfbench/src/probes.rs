//! Per-call cost probes for the traced run: each one times a crate's
//! public function on inputs drawn from the run's seed and returns mean
//! microseconds per call (the median of [`ROUNDS`] rounds). Each probe
//! runs inside a span named after the crate it calls.

use std::collections::VecDeque;
use std::hint::black_box;

use nbc_check::explore::plan_config;
use nbc_check::{Oracles, CHECK_TXN};
use nbc_core::{Analysis, Protocol, RunSet};
use nbc_engine::{run_with, RunConfig, Runner, TerminationRule, Wire};
use nbc_pipeline::{PipeOp, PipelineTxn};
use nbc_simnet::{LatencyModel, Network, SimRng};
use nbc_storage::{KvStore, LogRecord, Wal};
use nbc_txn::{LockManager, LockMode, ProtocolKind};

use crate::spans::Recorder;
use crate::sys::{median, per_call_us};

/// Rounds per probe; a probe reports the median round.
const ROUNDS: usize = 5;
/// Calls per sampled state in one engine-probe round.
const REPEAT: usize = 16;

fn probe(rec: &mut Recorder, span: &'static str, mut round: impl FnMut() -> f64) -> f64 {
    rec.span(span, |_| median((0..ROUNDS).map(|_| round())))
}

/// States reached by a seeded random walk: each walk starts from a fresh
/// runner (all-yes votes, or site 1 voting no), fires a random pending
/// event per step, and crashes one random site at most once per walk.
/// Every state sampled still has a pending event.
pub fn walk_states<'a>(
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    rule: TerminationRule,
    seed: u64,
    count: usize,
) -> Vec<Runner<'a>> {
    let n = protocol.n_sites();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut votes = vec![true; n];
        votes[1] = !rng.gen_ratio(1, 4);
        let mut r = Runner::new(protocol, analysis, plan_config(n, &votes, rule));
        let mut crashed = false;
        while out.len() < count {
            let pending = r.pending_events();
            if pending.is_empty() {
                break;
            }
            out.push(r.clone());
            if !crashed && rng.gen_ratio(1, 16) {
                r.crash_now(rng.gen_range(0..n));
                crashed = true;
            } else {
                r.fire_scheduled(pending[rng.gen_range(0..pending.len())].0);
            }
        }
    }
    out
}

/// Microseconds per call of the checker's per-action steps on `states`.
pub struct ActionCost {
    pub clone_us: f64,
    pub fire_us: f64,
    pub digest_us: f64,
    pub oracle_us: f64,
}

impl ActionCost {
    pub fn total_us(&self) -> f64 {
        self.clone_us + self.fire_us + self.digest_us + self.oracle_us
    }
}

pub fn action_cost(
    rec: &mut Recorder,
    protocol: &Protocol,
    analysis: &Analysis,
    states: &[Runner<'_>],
) -> ActionCost {
    let calls = states.len() * REPEAT;
    let clone_us = probe(rec, "engine.clone", || {
        per_call_us(calls, || {
            for s in states {
                for _ in 0..REPEAT {
                    drop(black_box(s.clone()));
                }
            }
        })
    });
    let fire_us = probe(rec, "engine.fire", || {
        let mut work: Vec<(Runner<'_>, u64)> = Vec::with_capacity(calls);
        for s in states {
            let seq = s.pending_events()[0].0;
            work.extend((0..REPEAT).map(|_| (s.clone(), seq)));
        }
        per_call_us(calls, || {
            for (r, seq) in &mut work {
                black_box(r.fire_scheduled(*seq));
            }
        })
    });
    let digest_us = probe(rec, "engine.digest", || {
        per_call_us(calls, || {
            for s in states {
                for _ in 0..REPEAT {
                    black_box(s.digest());
                }
            }
        })
    });
    let oracle_us = probe(rec, "check.oracle", || {
        let mut oracles = Oracles::new(protocol, analysis, CHECK_TXN);
        per_call_us(calls, || {
            for s in states {
                for _ in 0..REPEAT {
                    let _ = black_box(oracles.observe_state(s));
                }
            }
        })
    });
    ActionCost { clone_us, fire_us, digest_us, oracle_us }
}

/// Records per spilled run: about what a 64 KiB hot tier of 32-byte
/// records holds.
const RUN_RECORDS: usize = 2048;
const RUNS: usize = 8;
const PROBE_KEYS: usize = 1024;

/// `(spill_us, probe_us)`: one [`RunSet::spill`] of a [`RUN_RECORDS`]-record
/// hot tier, and one [`RunSet::contains_batch`] of [`PROBE_KEYS`] sorted
/// keys (half of them present) against [`RUNS`] runs. Keys are uniform
/// 128-bit values, the shape of the checker's state digests.
pub fn runset_cost(rec: &mut Recorder, seed: u64) -> (f64, f64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut key = move || ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
    let runs: Vec<Vec<(u128, [u8; 16])>> =
        (0..RUNS).map(|_| (0..RUN_RECORDS).map(|_| (key(), [0u8; 16])).collect()).collect();
    let mut probes: Vec<u128> =
        runs.iter().flat_map(|r| r.iter().step_by(RUNS * 4).map(|e| e.0)).collect();
    probes.extend((0..PROBE_KEYS - probes.len()).map(|_| key()));
    probes.sort_unstable();
    probes.dedup();
    let keep = |older: &[u8; 16], newer: &[u8; 16]| if newer >= older { *newer } else { *older };
    let mut set = RunSet::<16>::new();
    let spill_us = probe(rec, "core.runset_spill", || {
        set = RunSet::new();
        per_call_us(RUNS, || {
            for r in &runs {
                set.spill(r.clone(), keep).expect("spill to the temp dir");
            }
        })
    });
    let probe_us = probe(rec, "core.runset_probe", || {
        per_call_us(1, || {
            black_box(set.contains_batch(&probes).expect("read back run files"));
        })
    });
    (spill_us, probe_us)
}

/// Per-call costs of the layers under one pipeline transaction.
pub struct TxnCost {
    /// `run_with`: one crash-free commit round, per protocol kind.
    pub round_us: Vec<f64>,
    /// `LockManager::request` for a transaction's keys plus `release_all`.
    pub lock_us: f64,
    /// One `Wal::append` plus `Wal::sync_batched`.
    pub wal_append_us: f64,
    /// `KvStore::stage_put` for a transaction's writes plus `commit`.
    pub kv_us: f64,
    /// One `Network::send` plus the `next_event` that delivers it.
    pub send_us: f64,
}

pub fn txn_cost(
    rec: &mut Recorder,
    n: usize,
    kinds: &[ProtocolKind],
    txns: &[PipelineTxn],
) -> TxnCost {
    let mut round_us = Vec::new();
    for &kind in kinds {
        let protocol = kind.build(n);
        let analysis = Analysis::build(&protocol).expect("catalog protocols analyze");
        let config = RunConfig::happy(n).with_rule(kind.rule());
        let calls = 200;
        let us = probe(rec, "engine.run_with", || {
            per_call_us(calls, || {
                for _ in 0..calls {
                    black_box(run_with(&protocol, &analysis, config.clone()));
                }
            })
        });
        round_us.push(us);
    }

    // Eight transactions in flight, as in the pipeline's default.
    let lock_us = probe(rec, "txn.lock", || {
        let mut locks: Vec<LockManager> = (0..n).map(|_| LockManager::new()).collect();
        let mut window = VecDeque::new();
        per_call_us(txns.len(), || {
            for (id, t) in txns.iter().enumerate() {
                for op in &t.ops {
                    let mode = match op {
                        PipeOp::Read { .. } => LockMode::Shared,
                        _ => LockMode::Exclusive,
                    };
                    black_box(locks[op.site()].request(id as u64, op.key(), mode));
                }
                window.push_back(id as u64);
                if window.len() > 8 {
                    let old = window.pop_front().expect("non-empty window");
                    locks.iter_mut().for_each(|l| l.release_all(old));
                }
            }
        })
    });

    let records: Vec<LogRecord> = (0..4096u64)
        .map(|i| match i % 4 {
            0 => LogRecord::Begin { txn: i },
            3 => LogRecord::Decision { txn: i, commit: true },
            _ => LogRecord::Put {
                txn: i,
                key: format!("acct{:06}", i % 300).into_bytes(),
                value: (i as i64).to_le_bytes().to_vec(),
            },
        })
        .collect();
    let wal_append_us = probe(rec, "storage.wal_append", || {
        let mut wal = Wal::new();
        wal.set_group_window(2);
        per_call_us(records.len(), || {
            for (i, rec) in records.iter().enumerate() {
                black_box(wal.append(rec).expect("record fits"));
                black_box(wal.sync_batched(i as u64 / 4));
            }
        })
    });

    let kv_us = probe(rec, "storage.kv", || {
        let mut kv = KvStore::new();
        per_call_us(txns.len(), || {
            for (id, t) in txns.iter().enumerate() {
                for op in &t.ops {
                    if let PipeOp::AddI64 { key, delta, .. } = op {
                        kv.stage_put(id as u64, key.clone(), delta.to_le_bytes().to_vec());
                    }
                }
                kv.commit(id as u64);
            }
        })
    });

    let send_us = probe(rec, "simnet.send", || {
        let mut net: Network<Wire> = Network::new(n, LatencyModel::constant(1), 5);
        let msgs = 8192;
        per_call_us(msgs, || {
            for i in 0..msgs {
                let msg = Wire::TermDecision { backup: 0, commit: true };
                black_box(net.send(i as u64 / 8, i % n, (i + 1) % n, msg));
                if i >= 8 {
                    black_box(net.next_event());
                }
            }
        })
    });

    TxnCost { round_us, lock_us, wal_append_us, kv_us, send_us }
}
