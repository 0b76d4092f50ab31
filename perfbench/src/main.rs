//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <check|check-spill|pipeline|trace-audit> --seed N
//!           --seconds N --trace <0|1> [--rev REV] [--work DIR]
//! ```
//!
//! Runs one workload in a closed loop from this process for `--seconds`
//! seconds, gates every output for correctness, and prints its metrics;
//! the last stdout line is the JSON result. `--trace 1` adds the span
//! recorder and the per-layer probes and reports per-layer metrics
//! instead of end-to-end ones. Results and spans are written under
//! `--work` (default `.perfbench`). Exit codes: 0 all gates passed,
//! 1 a gate failed, 2 bad arguments.

mod audit;
mod check;
mod pipeline;
mod probes;
mod report;
mod spans;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use spans::Recorder;

pub const WORKLOADS: [&str; 4] = ["check", "check-spill", "pipeline", "trace-audit"];

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rev: String,
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <check|check-spill|pipeline|trace-audit> \
                     --seed N --seconds N --trace <0|1> [--rev REV] [--work DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut rev = "unknown".to_string();
    let mut work = PathBuf::from(".perfbench");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|_| format!("bad {flag} value {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                })
            }
            "--rev" => rev = value()?.clone(),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        rev,
        work,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut rec = Recorder::new(args.trace, args.workload);
    let mut out: Outcome = match args.workload {
        "check" => check::run(&args, &mut rec, false),
        "check-spill" => check::run(&args, &mut rec, true),
        "pipeline" => pipeline::run(&args, &mut rec),
        _ => audit::run(&args, &mut rec),
    };
    if args.trace {
        for (krate, secs) in rec.self_by_crate() {
            if let Some((name, _, _)) =
                report::PER_LAYER.iter().find(|l| l.0.strip_suffix(".self_s") == Some(krate))
            {
                out.layer(name, secs);
            }
        }
    }

    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} threads={} rev={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        out.threads,
        args.rev,
        profile
    );
    let text = out.print(&header, args.trace);
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let mut files = vec![(args.work.join(format!("{stem}.txt")), text.clone())];
    if args.trace {
        files.push((args.work.join(format!("{stem}.spans.jsonl")), rec.to_jsonl(&header)));
    }
    for (path, body) in files {
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    print!("{text}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
