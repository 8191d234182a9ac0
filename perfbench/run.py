#!/usr/bin/env python3
"""XPMemSim benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--toy]

Run from the root of a checkout. On first use it builds perfbench/ and
the simulator sources it drives (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. It then runs the one workload in its own
process, passes that process's report through, and checks that the
final line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names and units are exactly BENCHMARK.json's end_to_end
(--trace 0) or per_layer (--trace 1) list. Traced runs also write the
run's spans to .bench_build/spans/<workload>.tsv.

Exit status: 0 on a correct run; 1 when the build, a correctness gate or
the result check fails (no result line is trusted then); 2 on bad usage.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("kv_update", "kv_read", "device_panel", "kv_degraded")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build; returns the binary or None."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def commit_id():
    """Git HEAD of this checkout, else a digest of the sources built."""
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the final result line (empty list = well formed)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    if res["correct"] is not True:
        return ["a correctness gate failed (see the # GATE FAILED lines)"]
    problems = []
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        problems.append("attempted/failed are not counts")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or mis-united %s" % (
                            sorted(set(want.items()) - set(got.items())),
                            sorted(set(got.items()) - set(want.items()))))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (the smoke test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build(build_dir())
    if binary is None:
        log("build failed")
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.toy:
        cmd.append("--toy")
    if args.trace:
        spans = build_dir().parent / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    report, last = lines[:-1], lines[-1]
    sys.stdout.write("".join(l + "\n" for l in report))
    problems = check_result(last, args.trace)
    if proc.returncode != 0 and not problems:
        problems = [f"benchmark exited with status {proc.returncode}"]
    if problems:
        for p in problems:
            log(p)
        if last.startswith('{"correct": false'):
            print(last, flush=True)  # the failed verdict, with no numbers
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
