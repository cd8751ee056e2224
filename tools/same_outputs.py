"""Check that two checkouts write the same bytes on the CLI's outputs.

    python3 tools/same_outputs.py --parent ../parent --change . \
        --seeds 1 2 3 4 5 --tm2-seeds 5000 5001 5002

For each seed, each checkout generates a dataset and runs its CLI on it:
``run --variant drs`` and ``run --variant srs`` (``RUNS`` runs, the seed as
``--seed``), then ``eval`` on every written run file.  ``--seeds`` take
four datasets:

- the Case-A dataset of the ``rocking-mc`` workload, imported from the
  checkout's ``perfbench/workloads.py``;
- criterion 7's: Case A with the filter told of TM3 at the same phase;
- Case A on a three-row ``custom`` profile table, written by ``simulate``
  from a config file that names the table's CSV file;
- a schedule-stress dataset: 2 s of Case A with 125 Hz measurements, a
  0.014 s step period and 50 Hz surface orientation, where some contact
  switches move off a measurement step, some past the switch before, and
  some orientation samples tie between two measurement steps.

``--tm2-seeds`` take criterion 8's TM2/RM2 dataset, and the same dataset
with no surface-orientation stream (``orient_rate = 0``), whose ``drs_pose``
and ``contact_switch`` record kinds are empty.  Each checkout also runs
``obs`` once, over the workload's tilt range in steps of ``OBS_STEP_DEG``,
and three units that fail: ``simulate`` of ``profile = TM9``, ``run`` on the
Case-A dataset (seed 1) with every encoder time shifted by 0.002 s, and
``eval`` of an estimate outside that dataset's truth window.
The units are the tool's own, not the workload's ``RockingMC._calls``: they
also evaluate the SRS runs and run on datasets that no workload writes to
files.

Every unit runs in-process in one interpreter per checkout and seed, with
the checkout's root and ``src`` on the path.  The tool compares each unit's
exit code, standard output and standard error, the dataset file and every
file the runs write, and prints one JSON document: the number of items compared
and the first that differs, with its first differing line, or null.  It
exits 0 when everything is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

RUNS = 10
OBS_STEP_DEG = 0.05

# runs inside a checkout: argv[1] is a JSON job, the result goes to stdout
_DRIVER = r"""
import contextlib, io, json, os, pathlib, sys
from drs_inekf.drs import PitchProfile
from drs_inekf.harness import main
from drs_inekf.sim import ScenarioConfig, generate, save_jsonl
from perfbench.workloads import CASE_A, OBS_MAX_TILT_DEG

# the rocking-mc workload's Case A, and criterion 7's mismatch on it;
# criterion 8's scenario (test_acceptance), also without its
# surface-orientation stream
TM2_RM2 = dict(profile=PitchProfile(kind="TM2"), robot_motion="RM2",
               duration=10.0, meas_rate=15.0)
SCENARIOS = {"case-a": CASE_A,
             "schedule-stress": dict(CASE_A, duration=2.0, meas_rate=125.0,
                                     orient_rate=50.0, step_period=0.014),
             "case-a-tm3-filter": dict(CASE_A, filter_profile=PitchProfile(
                 kind="TM3", phase_s=CASE_A["profile"].phase_s)),
             "tm2-rm2": TM2_RM2,
             "tm2-rm2-no-orient": dict(TM2_RM2, orient_rate=0.0)}
# Case A on a profile table, written by simulate from a config file
TABLE_CSV = "0.0,-4.0\n3.0,6.0\n8.0,1.0\n"

job = json.loads(sys.argv[1])
out = pathlib.Path(job["out"])
out.mkdir(parents=True)
os.chdir(out)        # simulate prints its --out path, so that one is relative
results = []


def call(name, argv):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([name, code, buf.getvalue(), err.getvalue()])
    return code


if job["scenario"] is None:
    call("obs", ["obs", "--max-tilt-deg", str(OBS_MAX_TILT_DEG),
                 "--step-deg", str(job["step"])])
elif job["scenario"] == "failures":     # paths relative, so the errors match
    pathlib.Path("tm9.cfg").write_text("profile = TM9\n")
    call("simulate-tm9", ["simulate", "--config", "tm9.cfg",
                          "--out", "tm9.jsonl"])
    ds = generate(ScenarioConfig(seed=job["seed"], **CASE_A))
    save_jsonl(ds, "dataset.jsonl")
    ds.meas_t += 0.002
    save_jsonl(ds, "shifted.jsonl")
    call("run-shifted-encoder", ["run", "--dataset", "shifted.jsonl",
                                 "--out", "runs"])
    pathlib.Path("late.jsonl").write_text(json.dumps(
        {"t": CASE_A["duration"] + 1.0, "quat": [1, 0, 0, 0], "v": [0, 0, 0]}) + "\n")
    call("eval-late-estimate", ["eval", "--truth", "dataset.jsonl",
                                "--estimate", "late.jsonl"])
else:
    data = str(out / "dataset.jsonl")
    if job["scenario"] == "custom-table":
        (out / "table.csv").write_text(TABLE_CSV)
        (out / "scenario.cfg").write_text("".join(
            f"{key} = {value}\n" for key, value in
            dict(CASE_A, profile="table.csv", seed=job["seed"]).items()))
        call("simulate", ["simulate", "--config", "scenario.cfg",
                          "--out", "dataset.jsonl"])
    else:
        cfg = ScenarioConfig(seed=job["seed"], **SCENARIOS[job["scenario"]])
        save_jsonl(generate(cfg), data)
    for v in ("drs", "srs"):
        if call(f"run-{v}", ["run", "--dataset", data, "--variant", v,
                             "--runs", str(job["runs"]),
                             "--seed", str(job["seed"]),
                             "--out", str(out / v)]) == 0:
            for path in sorted((out / v).glob("run_*.jsonl")):
                call(f"eval-{v}-{path.stem}",
                     ["eval", "--truth", data, "--estimate", str(path)])
json.dump(results, sys.stdout)
"""


def run_job(checkout, job):
    root = pathlib.Path(checkout).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root)]))
    proc = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(job)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: driver failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def first_line_diff(a, b):
    """1-based number of the first line where two texts differ."""
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return i
    return min(len(a.splitlines()), len(b.splitlines())) + 1


def compare(label, parent, change, workdir):
    """The first difference between the two checkouts' results of one job,
    or None; and the number of items compared."""
    n = 0
    if [r[0] for r in parent] != [r[0] for r in change]:
        return {"job": label, "unit": "unit list", "field": "units",
                "line": None}, n
    for (name, *p), (_, *c) in zip(parent, change):
        for field, x, y in zip(("exit code", "stdout", "stderr"), p, c):
            n += 1
            if x != y:
                line = first_line_diff(x, y) if isinstance(x, str) else None
                return {"job": label, "unit": name, "field": field,
                        "line": line}, n
    sides = [workdir / side / label for side in ("parent", "change")]
    names = [sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())
             if d.exists() else [] for d in sides]
    if names[0] != names[1]:
        return {"job": label, "unit": "file list", "field": "files",
                "line": None}, n
    for rel in names[0]:
        n += 1
        x, y = ((d / rel).read_bytes() for d in sides)
        if x != y:
            return {"job": label, "unit": rel, "field": "bytes",
                    "line": first_line_diff(x.decode(), y.decode())}, n
    return None, n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4, 5])
    ap.add_argument("--tm2-seeds", type=int, nargs="*",
                    default=[5000, 5001, 5002])
    ap.add_argument("--workdir", help="where the outputs go (default: a new "
                    "temporary directory, removed afterwards)")
    args = ap.parse_args(argv)

    jobs = [("obs", dict(scenario=None, step=OBS_STEP_DEG)),
            ("failures", dict(scenario="failures", seed=1))]
    jobs += [(f"{name}-{s}", dict(scenario=name, seed=s, runs=RUNS))
             for name, seeds in (("case-a", args.seeds),
                                 ("case-a-tm3-filter", args.seeds),
                                 ("custom-table", args.seeds),
                                 ("schedule-stress", args.seeds),
                                 ("tm2-rm2", args.tm2_seeds),
                                 ("tm2-rm2-no-orient", args.tm2_seeds))
             for s in seeds]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(args.workdir or tmp)
        first, compared = None, 0
        for label, job in jobs:
            results = [run_job(checkout,
                               dict(job, out=str(workdir / side / label)))
                       for side, checkout in (("parent", args.parent),
                                              ("change", args.change))]
            first, n = compare(label, *results, workdir)
            compared += n
            if first is not None:
                break
    print(json.dumps({"jobs": [label for label, _ in jobs],
                      "compared": compared, "first_difference": first,
                      "identical": first is None}, indent=2))
    return 0 if first is None else 1


if __name__ == "__main__":
    sys.exit(main())
