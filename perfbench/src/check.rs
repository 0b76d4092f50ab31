//! The `check` and `check-spill` workloads: exhaustive `run_check` runs
//! whose verdicts and state counts are known.

use nbc_check::{explore, run_check, shrink, CheckOptions, CheckReport, Oracles};
use nbc_core::protocols::{central_2pc, central_3pc};
use nbc_core::{theorem, Analysis, Protocol};
use nbc_engine::TerminationRule;
use nbc_paxos::paxos_commit;

use crate::probes;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::sys::{closed_loop, median, timed, Parts, Sample, SetupTimer};
use crate::Args;

/// The hot-tier budget of `check-spill`: small enough to force merges.
const SPILL_BUDGET: usize = 4 * 1024;
/// Untimed, then timed set-ups per block: one block before the measured
/// phase and one after every case of every batch. A `check` run has only
/// about seven blocks, so each spans about 0.2 s of timed set-ups, long
/// enough to take in one of the host's fast spells (see the README).
const SETUP_WARMUP: usize = 50;
const SETUP_REPS: usize = 300;
/// States sampled per protocol for the per-action probes.
const PROBE_STATES: usize = 192;

/// What the current code reports for one case (the gate).
struct Expect {
    ok: bool,
    states: usize,
    actions: u64,
    blocking_witness: bool,
}

struct Case {
    label: &'static str,
    protocol: Protocol,
    expect: Expect,
}

fn cases(spill: bool) -> Vec<Case> {
    let case = |label, protocol, states, actions, blocking_witness| Case {
        label,
        protocol,
        expect: Expect { ok: true, states, actions, blocking_witness },
    };
    if spill {
        vec![case(
            "central-3pc n=3 suspicions=1 faults=0 quorum",
            central_3pc(3),
            7_540,
            17_552,
            true,
        )]
    } else {
        vec![
            case("central-2pc n=4", central_2pc(4), 221_339, 749_110, true),
            case("central-3pc n=4", central_3pc(4), 226_420, 764_206, false),
            case("paxos:1 n=2", paxos_commit(2, 1), 55_947, 270_877, false),
        ]
    }
}

/// `nbc check`'s defaults (canonical traversal order, all vote plans)
/// at `threads`. The traversal seed stays unset: it reorders the search,
/// and on central-3pc n=4 at 2 threads two seeds differed by 15% in CPU
/// time for the same report, which would swamp the bounds.
fn options(spill: bool, threads: usize) -> CheckOptions {
    let mut o = CheckOptions { threads, ..CheckOptions::default() };
    if spill {
        // Every site stays up, so every suspicion is false. With crashes
        // as well (the default budget of one) a batch takes about 4 s,
        // too long to fit the host's fast spells (see the README).
        o.faults = 0;
        o.suspicions = 1;
        o.rule = TerminationRule::QuorumSkeen;
        o.mem_budget = SPILL_BUDGET;
    }
    o
}

/// `Err` describes how `r` differs from what the current code reports.
fn verify(case: &Case, r: &CheckReport) -> Result<(), String> {
    let e = &case.expect;
    let s = &r.stats;
    let ok = r.ok() == e.ok
        && s.distinct_states == e.states
        && s.actions == e.actions
        && !s.truncated
        && r.blocking_witness.is_some() == e.blocking_witness;
    if ok {
        return Ok(());
    }
    Err(format!(
        "{}: ok={} states={} actions={} witness={}, expected ok={} states={} actions={} \
         witness={}",
        case.label,
        r.ok(),
        s.distinct_states,
        s.actions,
        r.blocking_witness.is_some(),
        e.ok,
        e.states,
        e.actions,
        e.blocking_witness
    ))
}

/// One gated operation: `r` must match the expected counts and, when
/// given, render the same JSON as the `twin` report.
fn gate(out: &mut Outcome, case: &Case, r: &CheckReport, twin: Option<(&str, &str)>) {
    let res = verify(case, r).and_then(|()| match twin {
        Some((json, what)) if json != r.to_json() => {
            Err(format!("{}: report differs from the {what} report", case.label))
        }
        _ => Ok(()),
    });
    out.op(res.is_ok(), || res.unwrap_err());
}

/// Build every case's analysis and theorem verdict: the checker's set-up.
fn analyze(rec: &mut Recorder, cases: &[Case]) -> Vec<Analysis> {
    cases
        .iter()
        .map(|c| {
            rec.span("core.analysis", |_| {
                let a = Analysis::build(&c.protocol).expect("catalog protocols analyze");
                std::hint::black_box(theorem::check_with(&c.protocol, &a));
                a
            })
        })
        .collect()
}

pub fn run(args: &Args, rec: &mut Recorder, spill: bool) -> Outcome {
    let nproc = crate::sys::nproc();
    let threads = if spill { 1 } else { nproc };
    let mut out = Outcome { threads, ..Outcome::default() };
    // Set-up builds the protocols and their analyses. `run_check` redoes
    // the analysis itself; timing it here gives `setup_s` core's share.
    fn set_up(rec: &mut Recorder, spill: bool) -> Vec<Case> {
        rec.span("bench.setup", |rec| {
            let cases = cases(spill);
            analyze(rec, &cases);
            cases
        })
    }
    let mut setup = SetupTimer::default();
    let cases = setup.time(SETUP_WARMUP, SETUP_REPS, || set_up(rec, spill));

    // Measured phase: whole batches (every case once) in a closed loop.
    // Each repeat must reproduce the first batch's reports.
    let mut first: Vec<String> = Vec::new();
    let mut reports: Vec<CheckReport> = Vec::new();
    // A batch's time is the sum of its cases' times; the set-up blocks
    // between cases sample the run at more points than one per batch.
    let mut parts = Parts::default();
    let samples = closed_loop(args.seconds, || {
        let mut sample = Sample { wall: 0.0, cpu: 0.0 };
        let batch = rec.span("bench.batch", |rec| {
            cases
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let (r, s) = timed(|| {
                        rec.span("check.run_check", |_| {
                            run_check(&c.protocol, options(spill, threads))
                                .expect("catalog protocols analyze")
                        })
                    });
                    parts.push(i, s);
                    sample.wall += s.wall;
                    sample.cpu += s.cpu;
                    setup.time(SETUP_WARMUP, SETUP_REPS, || set_up(rec, spill));
                    r
                })
                .collect::<Vec<_>>()
        });
        for (i, (c, r)) in cases.iter().zip(&batch).enumerate() {
            gate(&mut out, c, r, first.get(i).map(|f| (f.as_str(), "first batch")));
        }
        if first.is_empty() {
            first = batch.iter().map(CheckReport::to_json).collect();
        }
        reports = batch;
        sample
    });
    let rss = setup.peak_rss();

    // Determinism gates outside the measured phase.
    if spill {
        // The spilled report must equal the unbudgeted one.
        let case = &cases[0];
        let mut o = options(true, 1);
        o.mem_budget = 0;
        let r = run_check(&case.protocol, o).expect("catalog protocols analyze");
        gate(&mut out, case, &r, Some((&first[0], "spilled")));
    } else if !rec.on() {
        // One case per run, rotating with the seed, at one thread; the
        // traced run covers all of them.
        let ix = (args.seed % cases.len() as u64) as usize;
        one_thread_gate(&mut out, &cases[ix], &reports[ix]);
    }

    let states: usize = reports.iter().map(|r| r.stats.distinct_states).sum();
    let actions: u64 = reports.iter().map(|r| r.stats.actions).sum();
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
    out.metric("failed_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    out.metric("states_per_s", states as f64 / wall, "1/s");
    out.metric("actions_per_s", actions as f64 / wall, "1/s");
    out.metric("work_per_s", states as f64 / wall, "1/s");

    for (c, r) in cases.iter().zip(&reports) {
        let tag = c.label.split_whitespace().next().unwrap_or(c.label);
        out.count(format!("check.states[{tag}]"), r.stats.distinct_states as u64);
        out.count(format!("check.actions[{tag}]"), r.stats.actions);
        out.count(format!("check.fused[{tag}]"), r.stats.fused);
    }
    let fused: u64 = reports.iter().map(|r| r.stats.fused).sum();
    let spill_stats = |f: fn(&CheckReport) -> u64| reports.iter().map(f).sum::<u64>();
    let spill_runs = spill_stats(|r| r.spill.runs_written);
    let spill_bytes = spill_stats(|r| r.spill.bytes_written);
    let merges = spill_stats(|r| r.spill.merge_passes);
    out.count("check.states", states as u64);
    out.count("check.actions", actions);
    out.count("check.fused", fused);
    out.count("core.spill_runs", spill_runs);
    out.count("core.spill_bytes", spill_bytes);
    out.count("core.merge_passes", merges);

    if rec.on() {
        out.layer("check.states", states as f64);
        out.layer("check.actions", actions as f64);
        out.layer("check.fused", fused as f64);
        out.layer("core.spill_runs", spill_runs as f64);
        out.layer("core.spill_bytes", spill_bytes as f64);
        out.layer("core.merge_passes", merges as f64);
        let untraced = timed(|| {
            for c in &cases {
                std::hint::black_box(run_check(&c.protocol, options(spill, threads)).ok());
            }
        })
        .1;
        out.layer("bench.trace_overhead_ratio", wall / untraced.wall);
        layers(args, rec, &mut out, &cases, &reports, spill);
    }
    out
}

/// Run `case` at one thread and require the report the measured phase
/// produced at `nproc` threads.
fn one_thread_gate(out: &mut Outcome, case: &Case, at_nproc: &CheckReport) {
    let r = run_check(&case.protocol, options(false, 1)).expect("catalog protocols analyze");
    gate(out, case, &r, Some((&at_nproc.to_json(), "nproc-thread")));
}

/// The traced attribution pass: `run_check`'s pieces called one by one at
/// one thread (analysis, exploration, witness shrinking), gated against
/// the measured reports, then the per-action probes on states sampled
/// from the same protocols.
fn layers(
    args: &Args,
    rec: &mut Recorder,
    out: &mut Outcome,
    cases: &[Case],
    reports: &[CheckReport],
    spill: bool,
) {
    let analysis_before = rec.self_secs("core.analysis");
    let analyses = analyze(rec, cases);
    out.layer("core.analysis_s", rec.self_secs("core.analysis") - analysis_before);
    let mut attributed = 0.0;
    let mut explore_total = 0.0;
    let mut costs = Vec::new();
    for ((case, analysis), report) in cases.iter().zip(&analyses).zip(reports) {
        let opts = options(spill, 1);
        let before = rec.self_secs("check.explore");
        let x = rec.span("check.explore", |_| explore::explore(&case.protocol, analysis, &opts));
        let explore_s = rec.self_secs("check.explore") - before;
        let same = x.stats.distinct_states == report.stats.distinct_states
            && x.stats.actions == report.stats.actions
            && x.stats.fused == report.stats.fused;
        let witness = x.blocking_witness.as_ref().map(|(votes, path)| {
            rec.span("check.shrink", |_| {
                shrink(&case.protocol, analysis, &opts, votes, path, |r, _| {
                    !Oracles::blocked_sites(r).is_empty()
                })
            })
        });
        let same = same
            && witness.as_ref().map(|w| w.to_jsonl())
                == report.blocking_witness.as_ref().map(|w| w.to_jsonl());
        out.op(same, || format!("{}: 1-thread exploration differs from the report", case.label));

        let rule = opts.rule;
        let states = rec.span("bench.walk", |_| {
            probes::walk_states(&case.protocol, analysis, rule, args.seed, PROBE_STATES)
        });
        let cost = probes::action_cost(rec, &case.protocol, analysis, &states);
        attributed += x.stats.actions as f64 * cost.total_us() * 1e-6;
        explore_total += explore_s;
        costs.push((x.stats.actions as f64, cost));
    }
    let weight: f64 = costs.iter().map(|c| c.0).sum();
    let mean = |f: fn(&probes::ActionCost) -> f64| {
        costs.iter().map(|(w, c)| w * f(c)).sum::<f64>() / weight.max(1.0)
    };
    out.layer("engine.clone_us", mean(|c| c.clone_us));
    out.layer("engine.fire_us", mean(|c| c.fire_us));
    out.layer("engine.digest_us", mean(|c| c.digest_us));
    out.layer("check.oracle_us", mean(|c| c.oracle_us));
    let share = attributed / explore_total.max(f64::MIN_POSITIVE);
    out.layer("check.attributed_share", share);
    out.layer("check.unattributed_share", 1.0 - share);
    out.layer("check.explore_s", explore_total);
    out.layer("check.shrink_s", rec.self_secs("check.shrink"));
    if spill {
        let (spill_us, probe_us) = probes::runset_cost(rec, args.seed);
        out.layer("core.runset_spill_us", spill_us);
        out.layer("core.runset_probe_us", probe_us);
    }
}
