"""Peak memory of ``run --runs N`` on the Case-A dataset, per checkout.

    python3 tools/run_memory.py --parent ../parent --change . \
        --runs 1 10 40 --repeats 3 --seed 1 --out BENCH_x.json --section run_memory

Each measurement runs ``python -m drs_inekf.harness run --runs N`` in a fresh
process, with the checkout's ``src/`` as the only package path, and reads the
child's peak resident set size from ``os.wait4`` (``ru_maxrss``, kB on
Linux).  The Case-A dataset (the benchmark's ``rocking-mc`` scenario: TM1 with
``phase_s = 2.8``, RM1, 8 s, 200 Hz IMU, 100 Hz encoders, 15 Hz surface
orientation) is generated once, with the change's sources, and both sides run
on that file.  For each N the sides alternate, the parent first in even
repeats, and every run's exit code and peak are kept.

The summary gives, per side, the median peak at each N and the growth per
extra run between the smallest and the largest N.  The results go into one
section of the output JSON file; other sections already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

from bench_pairs import git_state, host

CASE_A = ("from drs_inekf import drs, sim\n"
          "ds = sim.generate(sim.ScenarioConfig(\n"
          "    profile=drs.PitchProfile(kind='TM1', phase_s=2.8),\n"
          "    robot_motion='RM1', duration=8.0, imu_rate=200.0,\n"
          "    meas_rate=100.0, orient_rate=15.0, seed={seed}))\n"
          "sim.save_jsonl(ds, {path!r})\n")
RUN_TIMEOUT_S = 1800.0


def child_env(checkout):
    return dict(os.environ, PYTHONPATH=str(checkout / "src"),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def peak_run(checkout, dataset, n_runs, seed, workdir):
    """Exit code and peak RSS in MB of one ``run`` in a fresh process."""
    outdir = workdir / "runs"
    cmd = [sys.executable, "-m", "drs_inekf.harness", "run", "--dataset",
           str(dataset), "--runs", str(n_runs), "--seed", str(seed),
           "--out", str(outdir)]
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=checkout, env=child_env(checkout),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")[-2048:]
    return {"exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr_tail": stderr}


def summarise(runs, counts):
    medians = {n: statistics.median(r["peak_rss_mb"] for r in runs[str(n)])
               for n in counts}
    lo, hi = min(counts), max(counts)
    return {"median_peak_rss_mb": {str(n): medians[n] for n in counts},
            "mb_per_extra_run": ((medians[hi] - medians[lo]) / (hi - lo)
                                 if hi > lo else None)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--runs", type=int, nargs="+", default=[1, 10, 40])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--section", default="run_memory")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        if not (path / "src" / "drs_inekf" / "harness.py").is_file():
            parser.error(f"{path} has no src/drs_inekf/harness.py")

    runs = {side: {str(n): [] for n in args.runs} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        dataset = tmp / "case_a.jsonl"
        subprocess.run([sys.executable, "-c",
                        CASE_A.format(seed=args.seed, path=str(dataset))],
                       env=child_env(sides["change"]), check=True,
                       timeout=RUN_TIMEOUT_S)
        for n in args.runs:
            for k in range(args.repeats):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = peak_run(sides[side], dataset, n, args.seed, tmp / side)
                    runs[side][str(n)].append(run)
                    print(f"N={n} repeat {k} {side}: exit {run['exit_code']}, "
                          f"{run['peak_rss_mb']:.1f} MB", file=sys.stderr,
                          flush=True)

    section = {
        "command": "python -m drs_inekf.harness run --dataset CASE_A "
                   f"--runs N --seed {args.seed} --out DIR",
        "checkouts": {side: {"path": str(path), **git_state(path)}
                      for side, path in sides.items()},
        "host": host(),
        "all_exit_zero": all(r["exit_code"] == 0 for side in runs.values()
                             for rs in side.values() for r in rs),
        "summary": {side: summarise(runs[side], args.runs) for side in sides},
        "runs": runs,
    }
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc[args.section] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(section["summary"]))
    return 0 if section["all_exit_zero"] else 1


if __name__ == "__main__":
    sys.exit(main())
