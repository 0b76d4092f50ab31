//! The `trace-audit` workload: set-up writes the JSONL trace of a traced
//! pipeline run; the measured phase reads it back, parses it, builds the
//! causal trace, and runs the offline oracles and the latency stats.

use std::path::Path;

use nbc_obs::analyze::{parse_jsonl, stats, verify};
use nbc_obs::export::to_jsonl;
use nbc_obs::{CausalTrace, MemorySink, SharedSink, Tracer};
use nbc_txn::ProtocolKind;

use crate::pipeline::{bank_batch, fresh};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::sys::{closed_loop, fastest, median, timed, SetupTimer};
use crate::Args;

/// Transactions in the traced run (about 70 events each). Larger traces
/// leave the caches: on a 2-vCPU VM a 14,000-transaction trace (about
/// 10^6 events, 380 MiB resident) spread 20% between runs and a 3,500-
/// transaction one 21-32%, while this size (about 49,000 events, 23 MiB
/// resident) spread 4%.
const TRACE_TXNS: usize = 700;
/// Each set-up writes a full trace (it rewrites the same bytes), so one
/// runs before the measured phase and one after every this many batches,
/// with no untimed warm-up: at about 0.1 s a set-up warms itself.
const SETUP_EVERY: usize = 2;
/// Metrics-snapshot interval of the traced run, in sim ticks.
const SERIES_EVERY: u64 = 100;

/// Write the trace of a traced 3PC pipeline run to `path`; returns the
/// event count and byte length written.
fn write_trace(rec: &mut Recorder, seed: u64, path: &Path) -> (u64, u64) {
    let (w, batch) = bank_batch(seed, TRACE_TXNS);
    let mut p = fresh(ProtocolKind::Central3pc, &w, SERIES_EVERY);
    let sink = SharedSink::new(MemorySink::default());
    p.set_tracer(Tracer::to_sink(sink.clone()));
    rec.span("pipeline.run", |_| p.run(batch));
    let text = rec.span("obs.export", |_| sink.with(|s| to_jsonl(&s.events)));
    std::fs::write(path, &text).expect("write the trace into the work directory");
    (sink.with(|s| s.events.len() as u64), text.len() as u64)
}

/// One audit: what the gates and counts need from it.
#[derive(PartialEq)]
struct Audit {
    events: u64,
    txns: u64,
    ok: bool,
    report: String,
}

fn audit(rec: &mut Recorder, path: &Path) -> Audit {
    let text =
        rec.span("obs.read", |_| std::fs::read_to_string(path).expect("read the trace back"));
    let events =
        rec.span("obs.parse", |_| parse_jsonl(&text).expect("the exporter's own output parses"));
    let causal = rec.span("obs.causal", |_| CausalTrace::build(events));
    let report = rec.span("obs.verify", |_| verify(causal.events()));
    let st = rec.span("obs.stats", |_| stats(causal.events()));
    Audit { events: st.events, txns: st.txns, ok: report.ok(), report: report.to_json() }
}

pub fn run(args: &Args, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome { threads: 1, ..Outcome::default() };
    let path = args.work.join(format!("trace-seed{}.jsonl", args.seed));
    let set_up =
        |rec: &mut Recorder| rec.span("bench.setup", |rec| write_trace(rec, args.seed, &path));
    let mut setup = SetupTimer::default();
    let (events, bytes) = setup.time(0, 1, || set_up(rec));
    let mut audits = 0;

    let mut first: Option<Audit> = None;
    let samples = closed_loop(args.seconds, || {
        let (a, sample) = timed(|| rec.span("bench.batch", |rec| audit(rec, &path)));
        let res = if !a.ok {
            Err("trace verify failed".to_string())
        } else if a.events != events {
            Err(format!("audited {} events, wrote {events}", a.events))
        } else if first.as_ref().is_some_and(|f| *f != a) {
            Err("a repeated audit differs from the first".to_string())
        } else {
            Ok(())
        };
        out.op(res.is_ok(), || res.clone().unwrap_err());
        first.get_or_insert(a);
        audits += 1;
        if audits % SETUP_EVERY == 0 {
            setup.time(0, 1, || set_up(rec));
        }
        sample
    });
    let rss = setup.peak_rss();
    let reps = samples.len() as f64;

    let wall = fastest(samples.iter().map(|s| s.wall));
    out.batch_walls = samples.iter().map(|s| s.wall).collect();
    out.metric("wall_s", wall, "s");
    out.metric("setup_s", setup.fastest(), "s");
    out.metric("cpu_s", fastest(samples.iter().map(|s| s.cpu)), "s");
    out.metric("wall_median_s", median(samples.iter().map(|s| s.wall)), "s");
    out.metric("cpu_median_s", median(samples.iter().map(|s| s.cpu)), "s");
    out.metric("setup_median_s", setup.median(), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("failed_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    out.metric("events_per_s", events as f64 / wall, "1/s");
    out.metric("work_per_s", events as f64 / wall, "1/s");
    out.count("obs.events", events);
    out.count("obs.trace_bytes", bytes);
    out.count("obs.txns", first.as_ref().map_or(0, |a| a.txns));

    if rec.on() {
        // Per audit. `verify` and `stats` each build their own causal
        // trace inside; the standalone build's time stands in for it.
        let per = |name| rec.self_secs(name) / reps;
        let causal = per("obs.causal");
        out.layer("obs.read_s", per("obs.read"));
        out.layer("obs.parse_s", per("obs.parse"));
        out.layer("obs.causal_s", causal);
        out.layer("obs.verify_s", (per("obs.verify") - causal).max(0.0));
        out.layer("obs.stats_s", (per("obs.stats") - causal).max(0.0));
        out.layer("obs.events", events as f64);
        out.layer("obs.trace_bytes", bytes as f64);
        let mut off = Recorder::new(false, "trace-audit");
        let untraced = fastest((0..5).map(|_| timed(|| audit(&mut off, &path)).1.wall));
        out.layer("bench.trace_overhead_ratio", wall / untraced);
    }
    let _ = std::fs::remove_file(&path);
    out
}
