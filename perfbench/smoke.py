#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at toy size through run.py, untraced and traced,
and checks that each run passes every gate, prints every end-to-end
metric by name with its unit (the three workload-specific ones too),
returns exactly BENCHMARK.json's metric set with positive end-to-end
values, and (traced) writes a span file. Finally it checks that a
directory holding only BENCHMARK.json and perfbench/ fails cleanly:
non-zero exit and no result line. Exits 0 when all checks pass.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
# Every end-to-end metric of the benchmark, with its unit, as printed in
# the human-readable report of every workload.
REPORTED = {
    "sim_kops": "kops/s", "sim_ack_kops": "kops/s", "sim_p50_ns": "ns",
    "sim_p99_ns": "ns", "sim_p999_ns": "ns", "host_kops": "kops/s",
    "setup_s": "s", "peak_rss_mb": "MiB", "failed_ops_frac": "ratio",
    "time_to_healthy_us": "us", "model_err_pct": "%",
}


def run(workload, trace, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(workload, trace, spec, errors):
    before = len(errors)
    p = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    if p.returncode != 0:
        errors.append(f"{tag}: exit {p.returncode}\n{p.stdout[-3000:]}"
                      f"{p.stderr[-3000:]}")
        return
    lines = p.stdout.strip().split("\n")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{tag}: result {lines[-1][:200]}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    if [m["name"] for m in want] != list(got):
        errors.append(f"{tag}: metric names differ from BENCHMARK.json")
    for m in want:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"]:
            errors.append(f"{tag}: {m['name']} unit {v.get('unit')}")
        if not trace and not v.get("value", 0) > 0:
            errors.append(f"{tag}: {m['name']} = {v.get('value')}")
    if "GATE FAILED" in p.stdout:
        errors.append(f"{tag}: a gate failed")
    if not trace:
        for name, unit in REPORTED.items():
            if not re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}"
                             r"(\s|$)", p.stdout, re.M):
                errors.append(f"{tag}: report lacks {name} [{unit}]")
    else:
        base = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        spans = base / "spans" / f"{workload}.tsv"
        rows = spans.read_text().splitlines() if spans.exists() else []
        if len(rows) < 3 or not rows[0].startswith("# {"):
            errors.append(f"{tag}: span file {spans} missing or empty")
    print(("ok   " if len(errors) == before else "FAIL ") + tag, flush=True)


def check_bare(errors):
    """Only BENCHMARK.json + perfbench/: must fail without a result."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run(RUN + ["--workload", "kv_read", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True,
                       timeout=180)
    if p.returncode == 0 or '"correct"' in p.stdout:
        errors.append("bare directory: expected a failure without a result")
        print("FAIL bare directory", flush=True)
    else:
        print("ok   bare directory fails without a result", flush=True)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec, errors)
    check_bare(errors)
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
