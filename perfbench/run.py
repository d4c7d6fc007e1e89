#!/usr/bin/env python3
"""End-to-end benchmark of the Prudence allocator.

    python3 perfbench/run.py --workload churn_defer|churn_nodefer|server_burst
                             --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run builds prudbench
(perfbench/CMakeLists.txt) into .bench_build/perfbench; later runs only
re-check the build. Every workload runs in processes of its own, so
memory metrics never inherit another workload's pages.

--trace 0 measures the end-to-end metrics. It runs the workload in
thirty processes of S/30 seconds each, on identical inputs, and reports
each metric (setup_s too) as the median over the thirty, so that one
scheduling stall or one unlucky process cannot set the figure.

--trace 1 produces the per-layer metrics: an untraced and a traced run
of S/2 seconds each. Per-layer values come from the traced run, and
trace_overhead.<metric> is traced minus untraced for every end-to-end
metric. Spans go to .bench_build/perfbench/spans/.

Every process checks its outputs and the allocator's state after
teardown (see perfbench/spec.json, "checks"). Human-readable lines come
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A failed check exits 1 with correct
false; a missing source tree or a failed build exits 2 with no result.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "prudbench"
PROCESSES = 30


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no allocator sources next to {HERE.name}/ (expected "
             "CMakeLists.txt and src/ at the tree root)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "prudbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """Commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build_type():
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def run_process(args, seconds):
    """Run prudbench once; return its result record."""
    cmd = [str(BINARY)] + args
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=seconds + 120)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"prudbench exited {done.returncode} without a result: "
             f"{' '.join(cmd)}", 1)
    if done.returncode != 0 and not rec.get("failed_checks"):
        fail(f"prudbench exited {done.returncode}: {' '.join(cmd)}", 1)
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected-fingerprint", action="store_true",
                    help="self-test: the shard replay check must fail")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload '{args.workload}'; choose from "
             f"{', '.join(spec['workloads'])}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    build()

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.corrupt_expected_fingerprint:
        base.append("--corrupt-expected-fingerprint")
    if args.trace == 0:
        part = args.seconds / PROCESSES
        records = [run_process(base + ["--seconds", str(part)], part)
                   for _ in range(PROCESSES)]
        for rec in records:
            rec["e2e"]["setup_s"] = rec["setup_s"]
        values = {name: statistics.median(r["e2e"][name] for r in records)
                  for name in records[0]["e2e"]}
        wanted = bench["end_to_end"]
    else:
        half = str(args.seconds / 2)
        plain = run_process(base + ["--seconds", half], args.seconds / 2)
        spans = BUILD / "spans" / f"{args.workload}_seed{args.seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        every = spec["workloads"][args.workload]["trace_every"]
        traced = run_process(base + ["--seconds", half, "--trace-every",
                                     str(every), "--spans", str(spans)],
                             args.seconds / 2)
        records = [plain, traced]
        values = dict(traced["layer"])
        for rec in records:
            rec["e2e"]["setup_s"] = rec["setup_s"]
        for name, v in traced["e2e"].items():
            values["trace_overhead." + name] = v - plain["e2e"][name]
        log(f"perfbench: spans written to {spans.relative_to(ROOT)}")
        wanted = bench["per_layer"]

    failed_checks = [c for r in records for c in r["failed_checks"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    facts = {"nproc": os.cpu_count(), "build_type": build_type(),
             "commit": source_id(), "workers": records[-1]["workers"],
             "seed": args.seed, "workload": args.workload,
             "seconds": args.seconds, "trace": args.trace}
    print("# host " + json.dumps(facts))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"prudbench did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"{'failed_pct':<40} {100.0 * failed / max(attempted, 1):>16.6g} %")
    for c in failed_checks:
        print(f"# check failed: {c}")
    print(json.dumps({"correct": not failed_checks,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(1 if failed_checks else 0)


if __name__ == "__main__":
    main()
