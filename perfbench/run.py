"""Benchmark entry point for drs_inekf.

    python3 perfbench/run.py --workload rocking-mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a source checkout and imports the package from its
``src/``.  One workload runs per process, single-threaded (BLAS pinned to one
thread).  The workload's set-up is timed several times, then repetitions run
until ``--seconds`` have passed.  Output checks run outside the timed region;
a failed check counts against ``ok_frac`` and makes the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs one
repetition under ``tracing.Tracer`` and reports the per-layer metrics instead;
the traced repetition must give bit-identical outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record, with
sample counts, checks and provenance, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import drs_inekf; "
                "print(time.perf_counter() - t)")


def load_package():
    """Import drs_inekf from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "drs_inekf" / "__init__.py").is_file():
        raise SystemExit(f"error: no drs_inekf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drs_inekf
    if pathlib.Path(drs_inekf.__file__).resolve().parent != SRC / "drs_inekf":
        raise SystemExit(f"error: drs_inekf imported from {drs_inekf.__file__}")


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip())


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def provenance(args):
    import hashlib

    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "drs_inekf").glob("*.py")):
        src_hash.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": blas_threads(),
        "workload_seed": args.seed,
        "argv": sys.argv,
    }


def measure(workload, seconds, trace):
    """Set up, run repetitions for ``seconds``, check; traced rep if asked."""
    setups = []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        workload.prepare()
        setups.append(imp + time.perf_counter() - t0)

    reps = []
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < seconds:
        gc.collect()
        rep = workload.rep()
        workload.check_rep(rep)
        reps.append(rep)

    traced = tracer = None
    if trace:
        import tracing
        with tracing.Tracer() as tracer:
            workload.prepare()
            gc.collect()
            traced = workload.rep()
        workload.check_rep(traced)
    failures = [f for rep in reps for f in rep.failures]
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        failures.append(f"{len(digests)} different outputs from "
                        f"{len(reps)} identical repetitions")
    if traced is not None and traced.digest != reps[0].digest:
        failures.append("traced outputs differ from untraced outputs")
    failures += workload.final_checks(reps)
    return setups, reps, traced, tracer, failures


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(setups, reps, attempted, failed):
    """End-to-end metrics as name -> (value, sample count)."""
    walls = [r.wall_s for r in reps]
    # the repetitions are identical, so each latency sample is taken as its
    # median over them; the percentiles then describe the program's own
    # tail (sub-steps, 6-row updates, jumps) rather than scheduler noise
    epochs = [statistics.median(s) for s in zip(*(r.epoch_s for r in reps))]
    wall = statistics.median(walls)
    p99 = statistics.quantiles(epochs, n=100, method="inclusive")[98]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall, len(walls)),
        "runs_per_s": (reps[0].runs / wall, len(walls)),
        "epoch_us_p50": (statistics.median(epochs) * 1e6, len(epochs)),
        "epoch_us_p99": (p99 * 1e6, len(epochs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "ok_frac": ((attempted - failed) / attempted, attempted),
    }


def run_one(args, spec):
    load_package()
    import workloads
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, OUT / f"work-{args.workload}")
    setups, reps, traced, tracer, failures = measure(workload, args.seconds,
                                                     args.trace)
    attempted = sum(r.units for r in reps) + (traced.units if traced else 0)
    failed = min(len(failures), attempted)
    e2e = end_to_end(setups, reps, attempted, failed)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": units[k], "n": n}
                       for k, (v, n) in e2e.items()},
        "failed_frac": failed / attempted,
        "failures": failures,
        "rep_wall_s": [r.wall_s for r in reps],
        "setup_s": setups,
        "checks": getattr(workload, "summary", None),
        "provenance": provenance(args),
    }
    if args.trace:
        values = tracer.layer_metrics(traced.wall_s, e2e["wall_s"][0])
        record["per_layer"] = values
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    else:
        values = {k: v for k, (v, _) in e2e.items()}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    for name, (value, n) in e2e.items():
        print(f"{args.workload:14s} {name:14s} {value:14.6g} "
              f"{units[name]:6s} n={n}")
    print(f"{args.workload:14s} failed_frac    {failed / attempted:14.6g} "
          f"ratio  n={attempted}")
    for f in failures:
        print(f"{args.workload:14s} FAILED: {f}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def run_all(args, spec):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None):
    # before numpy is first imported, so BLAS starts single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
