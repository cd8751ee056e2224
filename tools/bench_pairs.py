"""Run perfbench/run.py on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload nees-sweep --seeds 101 102 103 --pairs 10 \
        --claim wall_s --min-gain 0.25 --out BENCH_x.json --section claim

Pair i runs seed ``seeds[i % len(seeds)]`` on both checkouts, the parent
first in even pairs and the change first in odd ones.  Every run keeps its
exit code, its last-line JSON result (``None`` when the line is missing or
not JSON) and the last 2 kB of its standard error, so a run that crashes is
recorded rather than dropped.  Each run keeps the benchmark's own run length
and is stopped after ``RUN_TIMEOUT_S`` seconds.

For every metric that all runs of both sides report, the summary gives each
side's median, quartiles and range, the pairs the change wins (ties count
for neither side) and the parent's interquartile range.  With ``--claim``,
the claim holds when the change wins at least nine tenths of the pairs, the
medians differ in the better direction by more than the parent's
interquartile range and, with ``--min-gain``, the median improves by at least
that fraction.  The directions come from the parent's BENCHMARK.json.

The results go into one section of the output JSON file; other sections
already in the file are kept, so one file can hold several runs of the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

STDERR_TAIL = 2048
RUN_TIMEOUT_S = 1800.0
CLAIM_WIN_FRAC = 0.9


def git_state(checkout):
    """Commit and whether the working tree has uncommitted changes."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def run_once(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code = "timeout"
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr or ""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        result = None
    return {"seed": seed, "exit_code": code, "elapsed_s": time.perf_counter() - t0,
            "result": result, "stderr_tail": stderr[-STDERR_TAIL:]}


def metric_values(run):
    """Metric name -> value of one run; empty when the run gave no result."""
    if run["result"] is None:
        return {}
    return {k: v["value"] for k, v in run["result"].get("metrics", {}).items()}


def side_stats(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarise(pairs, directions):
    parent_vals = [metric_values(p["parent"]) for p in pairs]
    change_vals = [metric_values(p["change"]) for p in pairs]
    names = set.intersection(*(set(v) for v in parent_vals + change_vals)) \
        if pairs else set()
    summary = {}
    for name in sorted(names):
        # "all" runs prefix each metric with its workload name
        better = directions.get(name) or directions.get(name.split(".", 1)[-1])
        lower = better != "higher"
        a = [v[name] for v in parent_vals]
        b = [v[name] for v in change_vals]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        pa, pb = side_stats(a), side_stats(b)
        summary[name] = {
            "better": "lower" if lower else "higher",
            "parent": pa, "change": pb, "pairs": len(pairs),
            "change_better": wins, "ties": ties,
            "median_change_frac": ((pb["median"] - pa["median"]) / pa["median"]
                                   if pa["median"] else None),
            "parent_iqr": pa["q3"] - pa["q1"],
        }
    return summary


def claim_result(summary, metric, min_gain):
    """The claim rule: wins in at least nine tenths of the pairs, and a
    median gap in the better direction beyond the parent's quartile spread
    (and at least ``min_gain`` as a fraction, when given)."""
    row = summary.get(metric)
    if row is None:
        return {"metric": metric, "met": False,
                "reason": "not reported by every run of both sides"}
    sign = -1.0 if row["better"] == "lower" else 1.0
    gap = sign * (row["change"]["median"] - row["parent"]["median"])
    frac = row["median_change_frac"]
    gain = None if frac is None else sign * frac
    wins_ok = row["change_better"] >= CLAIM_WIN_FRAC * row["pairs"]
    gap_ok = gap > row["parent_iqr"]
    gain_ok = min_gain is None or (gain is not None and gain >= min_gain)
    return {"metric": metric,
            "change_better_pairs": f"{row['change_better']}/{row['pairs']}",
            "median_gap": gap, "parent_iqr": row["parent_iqr"],
            "median_gain_frac": gain, "min_gain": min_gain,
            "met": bool(wins_ok and gap_ok and gain_ok)}


def host():
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu_model": cpu or platform.processor(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="metric the change claims to improve")
    parser.add_argument("--min-gain", type=float,
                        help="smallest median improvement the claim needs, as a fraction")
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--section", default="runs")
    args = parser.parse_args(argv)
    n_pairs = args.pairs or len(args.seeds)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{path} has no perfbench/run.py")
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    pairs = []
    for i in range(n_pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.trace)
            run = pair[side]
            print(f"pair {i} seed {seed} {side}: exit {run['exit_code']}, "
                  f"correct {run['result'] and run['result'].get('correct')}, "
                  f"{run['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
        pairs.append(pair)

    summary = summarise(pairs, directions)
    section = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed SEED --trace {args.trace}",
        "checkouts": {side: {"path": str(path), **git_state(path)}
                      for side, path in sides.items()},
        "host": host(),
        "all_exit_zero": all(p[s]["exit_code"] == 0 for p in pairs for s in sides),
        "all_correct": all(p[s]["result"] is not None and p[s]["result"].get("correct")
                           is True for p in pairs for s in sides),
        "summary": summary,
        "pairs": pairs,
    }
    if args.claim:
        section["claim"] = claim_result(summary, args.claim, args.min_gain)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc[args.section] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim:
        print(json.dumps(section["claim"]))
    return 0 if section["all_exit_zero"] else 1


if __name__ == "__main__":
    sys.exit(main())
