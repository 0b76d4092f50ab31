#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Every workload, with a table of all end-to-end metrics at the end:

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

Run from the repository root. The benchmark is built from source with
cargo (release profile) into $CARGO_TARGET_DIR, default `.bench_build`.
Results, spans and temporary files go under `.perfbench/`. The exit code
is the benchmark's: 0 when every correctness gate passed, 1 when one
failed, 2 when the build or the arguments failed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["check", "check-spill", "pipeline", "trace-audit"]
WORK = ".perfbench"


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git commit of the checkout, or a hash of the sources when the
    checkout is not a git repository."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "--git-dir=.git", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for base, dirs, names in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def env():
    e = dict(os.environ)
    e.setdefault("CARGO_TARGET_DIR", ".bench_build")
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # Spilled run files and compiler scratch stay inside the checkout.
    e["TMPDIR"] = tmp
    return e


def build(e):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if subprocess.run(cmd, env=e, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    return os.path.join(e["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, e, workload, seed, seconds, trace, rev, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", rev, "--work", WORK]
    if capture:
        p = subprocess.run(cmd, env=e, capture_output=True, text=True)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        return p.returncode, p.stdout
    return subprocess.run(cmd, env=e).returncode, ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.all == (a.workload is not None):
        fail("give exactly one of --workload and --all")

    if not os.path.isfile(os.path.join("crates", "core", "Cargo.toml")):
        fail("run from the repository root: crates/ is missing")
    e = env()
    binary = build(e)
    rev = revision()
    sys.stdout.flush()
    if a.workload:
        code, _ = run_one(binary, e, a.workload, a.seed, a.seconds, a.trace, rev)
        sys.exit(code)

    worst = 0
    table = []
    for w in WORKLOADS:
        code, out = run_one(binary, e, w, a.seed, a.seconds, a.trace, rev, capture=True)
        worst = max(worst, code)
        for line in out.splitlines():
            parts = line.split()
            if parts[:1] == ["metric"] or (a.trace and parts[:1] == ["layer"]):
                table.append((w, parts[1], parts[2], parts[3]))
    print(f"\n{'workload':<12} {'metric':<34} {'value':>18} unit")
    for w, name, value, unit in table:
        print(f"{w:<12} {name:<34} {float(value):>18.6g} {unit}")
    print("all gates passed" if worst == 0 else "GATE FAILURE (see above)")
    sys.exit(worst)


if __name__ == "__main__":
    main()
