//! The `pipeline` workload: a seeded bank workload through
//! `Pipeline::run`, once under central 3PC and once under central 2PC.

use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_obs::{MemorySink, SharedSink, Tracer};
use nbc_pipeline::{PipeOp, Pipeline, PipelineConfig, PipelineTxn, ThroughputReport};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

use crate::probes;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::sys::{closed_loop, fastest, median, timed, Parts, Sample, SetupTimer};
use crate::Args;

const SITES: usize = 3;
const ACCOUNTS: usize = 300;
/// Transactions per protocol per batch: about 0.1 s of `Pipeline::run`,
/// short enough to fit the host's fast spells (see the README).
const TXNS: usize = 3_000;
/// Timed set-ups per block, after as many untimed ones: one block before
/// the measured phase and one after every protocol's run in every batch.
const SETUP_REPS: usize = 10;
/// Share of read-only two-account audits (shared locks, nothing staged).
const AUDIT_PCT: u32 = 25;
/// Share of transactions whose coordinator crashes mid-round.
const CRASH_PCT: u32 = 10;
const KINDS: [ProtocolKind; 2] = [ProtocolKind::Central3pc, ProtocolKind::Central2pc];
/// Untraced and tracer-on batches the traced run alternates.
const RATIO_PAIRS: usize = 3;
/// Transactions the per-layer probes replay.
const PROBE_TXNS: usize = 2_000;

/// The seeded bank batch: transfers and audits over [`ACCOUNTS`]
/// accounts on [`SITES`] sites, some with a coordinator crash.
pub fn bank_batch(seed: u64, count: usize) -> (BankWorkload, Vec<PipelineTxn>) {
    let mut w = BankWorkload::new(SITES, ACCOUNTS, 1_000, seed);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed_ba7c);
    let txns = (0..count)
        .map(|_| {
            let (from, to, amount) = w.random_transfer();
            let leg = |acct: usize, delta: i64| PipeOp::AddI64 {
                site: w.site_of(acct),
                key: BankWorkload::key_of(acct),
                delta,
            };
            let read = |acct: usize| PipeOp::Read {
                site: w.site_of(acct),
                key: BankWorkload::key_of(acct),
            };
            let ops = if rng.gen_ratio(AUDIT_PCT, 100) {
                vec![read(from), read(to)]
            } else {
                vec![leg(from, -amount), leg(to, amount)]
            };
            let crashes = if rng.gen_ratio(CRASH_PCT, 100) {
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
        .collect();
    (w, txns)
}

/// A pipeline with every account already created.
pub fn fresh(kind: ProtocolKind, w: &BankWorkload, series_every: u64) -> Pipeline {
    let mut p = Pipeline::new(PipelineConfig::new(SITES, kind).with_series_every(series_every));
    p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
    p
}

/// One protocol's `Pipeline::run` over the batch.
#[derive(Clone, PartialEq)]
struct KindRun {
    report: ThroughputReport,
    ticks: u64,
    wal_bytes: u64,
}

/// Run the batch under `kind` on a fresh pipeline; only `Pipeline::run`
/// is timed. `Err` names a broken invariant.
fn run_kind(
    rec: &mut Recorder,
    kind: ProtocolKind,
    w: &BankWorkload,
    batch: &[PipelineTxn],
    tracer: Option<Tracer>,
) -> (Result<KindRun, String>, Sample) {
    let mut p = fresh(kind, w, 0);
    if let Some(t) = tracer {
        p.set_tracer(t);
    }
    let start = p.now();
    let txns = batch.to_vec();
    let (report, sample) = timed(|| rec.span("pipeline.run", |_| p.run(txns)));
    let total = p.total_balance(w);
    let res = if total != w.expected_total() {
        Err(format!("{}: bank total {total}, expected {}", kind.name(), w.expected_total()))
    } else if p.locked_keys() != 0 {
        Err(format!("{}: {} keys still locked", kind.name(), p.locked_keys()))
    } else if report.decided() != batch.len() as u64 {
        Err(format!("{}: {} of {} txns decided", kind.name(), report.decided(), batch.len()))
    } else {
        Ok(KindRun { ticks: report.finished_at - start, wal_bytes: p.wal_bytes() as u64, report })
    };
    (res, sample)
}

pub fn run(args: &Args, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome { threads: 1, ..Outcome::default() };
    let set_up = |rec: &mut Recorder| rec.span("bench.setup", |_| bank_batch(args.seed, TXNS));
    let mut setup = SetupTimer::default();
    let (w, batch) = setup.time(SETUP_REPS, SETUP_REPS, || set_up(rec));

    // Measured phase: each batch runs every protocol once; every rerun
    // must reproduce the first batch's reports.
    let mut first: Vec<KindRun> = Vec::new();
    let mut runs: Vec<KindRun> = Vec::new();
    let mut parts = Parts::default();
    let samples = closed_loop(args.seconds, || {
        let mut total = Sample { wall: 0.0, cpu: 0.0 };
        let mut batch_runs = Vec::new();
        rec.span("bench.batch", |rec| {
            for (i, &kind) in KINDS.iter().enumerate() {
                let (res, s) = run_kind(rec, kind, &w, &batch, None);
                parts.push(i, s);
                total.wall += s.wall;
                total.cpu += s.cpu;
                setup.time(SETUP_REPS, SETUP_REPS, || set_up(rec));
                let res = res.and_then(|r| match first.get(i) {
                    Some(f) if *f != r => Err(format!("{}: rerun report differs", kind.name())),
                    _ => Ok(r),
                });
                out.op(res.is_ok(), || res.clone().err().unwrap_or_default());
                if let Ok(r) = res {
                    batch_runs.push(r);
                }
            }
        });
        if first.is_empty() {
            first = batch_runs.clone();
        }
        runs = batch_runs;
        total
    });
    let rss = setup.peak_rss();
    if runs.len() != KINDS.len() {
        return out;
    }

    let sum = |f: fn(&KindRun) -> u64| runs.iter().map(f).sum::<u64>();
    let decided = sum(|r| r.report.decided());
    let best = parts.fastest();
    let wall = best.wall;
    out.batch_walls = samples.iter().map(|s| s.wall).collect();
    out.metric("wall_s", wall, "s");
    out.metric("setup_s", setup.fastest(), "s");
    out.metric("cpu_s", best.cpu, "s");
    out.metric("wall_median_s", median(samples.iter().map(|s| s.wall)), "s");
    out.metric("cpu_median_s", median(samples.iter().map(|s| s.cpu)), "s");
    out.metric("setup_median_s", setup.median(), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    let unfinished = sum(|r| r.report.aborted + r.report.blocked);
    out.metric("failed_ratio", unfinished as f64 / decided.max(1) as f64, "ratio");
    out.metric("txns_per_s", decided as f64 / wall, "1/s");
    out.metric("work_per_s", decided as f64 / wall, "1/s");
    for (kind, r) in KINDS.iter().zip(&runs) {
        let tag = tag(*kind);
        let per_ktick = r.report.decided() as f64 * 1000.0 / r.ticks.max(1) as f64;
        out.metric(format!("txn_per_ktick[{tag}]"), per_ktick, "txn/ktick");
        out.metric(format!("commit_p50_ticks[{tag}]"), r.report.p50_commit_latency as f64, "ticks");
        out.metric(format!("commit_p99_ticks[{tag}]"), r.report.p99_commit_latency as f64, "ticks");
    }

    for (kind, r) in KINDS.iter().zip(&runs) {
        let tag = tag(*kind);
        let rep = &r.report;
        for (name, v) in [
            ("committed", rep.committed),
            ("aborted", rep.aborted),
            ("blocked", rep.blocked),
            ("reaped_commits", rep.reaped_commits),
            ("deferrals", rep.deferrals),
            ("ticks", r.ticks),
            ("events", rep.events),
            ("msgs", rep.msgs),
            ("wal_syncs", rep.wal_syncs),
            ("wal_forces", rep.wal_forces),
            ("wal_bytes", r.wal_bytes),
        ] {
            out.count(format!("pipeline.{name}[{tag}]"), v);
        }
    }
    let counts: [(&'static str, u64); 8] = [
        ("engine.events", sum(|r| r.report.events)),
        ("simnet.msgs", sum(|r| r.report.msgs)),
        ("storage.wal_syncs", sum(|r| r.report.wal_syncs)),
        ("storage.wal_forces", sum(|r| r.report.wal_forces)),
        ("storage.wal_bytes", sum(|r| r.wal_bytes)),
        ("pipeline.deferrals", sum(|r| r.report.deferrals)),
        ("pipeline.blocked", sum(|r| r.report.blocked)),
        ("pipeline.reaped_commits", sum(|r| r.report.reaped_commits)),
    ];
    for (name, v) in counts {
        out.count(name, v);
    }

    if rec.on() {
        for (name, v) in counts {
            out.layer(name, v as f64);
        }
        // Batches without spans, alternating with batches that attach the
        // program's own tracer, recording every event into memory.
        let mut off = Recorder::new(false, "pipeline");
        let mut batch_wall = |tracer: fn() -> Option<Tracer>| -> f64 {
            KINDS.iter().map(|&k| run_kind(&mut off, k, &w, &batch, tracer()).1.wall).sum()
        };
        let (mut untraced, mut tracer_on) = (Vec::new(), Vec::new());
        for _ in 0..RATIO_PAIRS {
            untraced.push(batch_wall(|| None));
            tracer_on
                .push(batch_wall(|| Some(Tracer::to_sink(SharedSink::new(MemorySink::default())))));
        }
        let untraced = fastest(untraced);
        out.layer("bench.trace_overhead_ratio", wall / untraced);
        out.layer("obs.tracer_on_ratio", fastest(tracer_on) / untraced);

        let cost = probes::txn_cost(rec, SITES, &KINDS, &batch[..PROBE_TXNS]);
        let mut attributed = 0.0;
        for (round_us, r) in cost.round_us.iter().zip(&runs) {
            let rep = &r.report;
            attributed += rep.decided() as f64 * round_us
                + (rep.txns + rep.deferrals) as f64 * cost.lock_us
                + rep.wal_syncs as f64 * cost.wal_append_us
                + rep.txns as f64 * cost.kv_us;
        }
        let share = attributed * 1e-6 / wall;
        out.layer("pipeline.run_s", wall);
        out.layer("pipeline.attributed_share", share);
        out.layer("pipeline.unattributed_share", 1.0 - share);
        let rounds = &cost.round_us;
        out.layer("engine.round_us", rounds.iter().sum::<f64>() / rounds.len() as f64);
        out.layer("txn.lock_us", cost.lock_us);
        out.layer("storage.wal_append_us", cost.wal_append_us);
        out.layer("storage.kv_us", cost.kv_us);
        out.layer("simnet.send_us", cost.send_us);
    }
    out
}

fn tag(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Central2pc => "central-2pc",
        _ => "central-3pc",
    }
}
