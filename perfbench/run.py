#!/usr/bin/env python3
"""Build the simulator-throughput benchmark and run one workload.

    python3 perfbench/run.py --workload ooo-wide --seed 1 --seconds 30 --trace 0

Run it from the repository root. The benchmark is compiled from source with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr. The benchmark prints a summary
on stderr and, as the last line of stdout, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result file
(provenance, per-pass and per-unit times, spans of a traced run) is written
to perfbench/results/<workload>-seed<seed>-trace<trace>.json.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("ooo-wide", "inorder-cached", "sweep-grid")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Sources whose digest identifies what was measured when git cannot.
DIGEST_PATHS = ("Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml",
                "perfbench/Cargo.lock", "perfbench/src")


def source_digest():
    h = hashlib.sha256()
    for rel in DIGEST_PATHS:
        path = ROOT / rel
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode() + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def git_revision():
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    return command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(BENCH / "results"),
                    help="directory for the result file (default: perfbench/results)")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("run.py: the simulator sources (Cargo.toml, crates/) are missing", file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    # A fixed glibc malloc: blocks under 32 MiB (glibc's largest threshold)
    # come from the heap, and freed heap memory stays mapped. The default
    # threshold moves with the sizes freed so far, which made peak RSS
    # bimodal; a small fixed one re-faulted every large block of every
    # set-up and pass, two thirds of set-up time and its noise.
    env = dict(os.environ, CARGO_TARGET_DIR=str(target),
               MALLOC_MMAP_THRESHOLD_=str(32 << 20), MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    out = pathlib.Path(args.results) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out),
           "--git-rev", git_revision(),
           "--rustc", command_output(["rustc", "-V"]) or "unknown",
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
