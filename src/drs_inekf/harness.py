"""CLI entry point and evaluation utilities.

Subcommands: ``simulate`` (scenario generation), ``run`` (Monte Carlo filter
execution), ``eval`` (RMS error report for one trajectory), ``obs``
(observability tilt sweep).  Exit codes: 0 success, 1 input error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from dataclasses import dataclass, fields

import numpy as np

from .drs import make_profile
from .filter import FilterVariant, run_variant
from .kinematics import VirtualLeg
from .liegroup import GroupElement, quat_to_rot, rot_to_quat, so3_exp, so3_log
from .sim import (ScenarioConfig, generate, initial_error_draw, json_lines,
                  load_jsonl, read_column, read_jsonl, write_jsonl)
from .state import (BiasState, FilterState, NoiseConfig, read_config,
                    run_covariance)
from .observability import tilt_sweep

ERROR_VARS = ("v_x", "v_y", "v_z", "yaw", "pitch", "roll")
DEFAULT_THRESHOLDS = {
    "v_x": 0.1, "v_y": 0.1, "v_z": 0.1,
    "yaw": 0.1, "pitch": 0.05, "roll": 0.05,
}
POST_WINDOW_START = 5.0
# a covariance eigenvalue below -PSD_TOL times the largest one is not rounding
PSD_TOL = 1e-9
MAX_TILTS = 10**6   # the most tilts that `obs` sweeps
_CHUNK = 64     # states that `run` stacks at a time to check and to write
# the fields of a trajectory record, in the order written
TRAJECTORY_KEYS = ("t", "quat", "v", "p", "p_c", "b_omega", "b_acc", "p_diag")


def error_angles(R_est, R_true):
    """(roll, pitch, yaw) Euler angles of the error rotation R_est R_true^T,
    each over the leading shape of the rotations."""
    E = np.asarray(R_est) @ np.swapaxes(R_true, -1, -2)
    pitch = np.arcsin(np.clip(-E[..., 2, 0], -1.0, 1.0))
    roll = np.arctan2(E[..., 2, 1], E[..., 2, 2])
    yaw = np.arctan2(E[..., 1, 0], E[..., 0, 0])
    return roll, pitch, yaw


def interpolate_truth(dataset, t):
    """Ground truth at time t, or at each of an array of times; rotations
    interpolated geodesically."""
    ts = dataset.truth_t
    i = np.clip(np.searchsorted(ts, t) - 1, 0, ts.size - 2)
    s = np.clip((t - ts[i]) / (ts[i + 1] - ts[i]), 0.0, 1.0)[..., None]
    R0, R1 = dataset.truth_rot[i], dataset.truth_rot[i + 1]
    R = R0 @ so3_exp(s * so3_log(np.swapaxes(R0, -1, -2) @ R1))
    v, p, pc = ((1 - s) * x[i] + s * x[i + 1] for x in
                (dataset.truth_v, dataset.truth_p, dataset.truth_pc))
    return R, v, p, pc


def epoch_errors(dataset, times, rotations, velocities):
    """Per-epoch error table, columns ordered as ERROR_VARS, for estimated
    rotations and velocities at the given times."""
    R_true, v_true, _, _ = interpolate_truth(dataset, times)
    roll, pitch, yaw = error_angles(rotations, R_true)
    return np.column_stack([velocities - v_true, yaw, pitch, roll])


def trajectory_errors(dataset, trajectory):
    """Per-epoch error table for one filter trajectory.

    Returns (times, errors) with columns ordered as ERROR_VARS.
    """
    times = np.array([st.t for st in trajectory])
    return times, epoch_errors(dataset, times,
                               [st.X.rot for st in trajectory],
                               [st.X.v for st in trajectory])


def convergence_time(times, series, threshold):
    """First time after which |series| stays below threshold; None if never."""
    below = np.abs(series) < threshold
    if not below[-1]:
        return None
    idx = np.where(~below)[0]
    if idx.size == 0:
        return float(times[0])
    return float(times[idx[-1] + 1])


@dataclass
class RunReport:
    rms_full: dict
    rms_post: dict
    convergence: dict
    n_runs: int
    duration: float

    def to_dict(self):
        return {
            "rms_full_window": self.rms_full,
            "rms_post_%gs" % POST_WINDOW_START: self.rms_post,
            "convergence_time_s": self.convergence,
            "n_runs": self.n_runs,
            "duration_s": self.duration,
        }


def make_report(times, error_stack):
    """RunReport from stacked per-run errors (n_runs, n_epochs, 6).  An RMS
    error that overflows raises FloatingPointError naming its variable."""
    error_stack = np.asarray(error_stack)
    post = times >= POST_WINDOW_START
    rms_full, rms_post, conv = {}, {}, {}
    for j, name in enumerate(ERROR_VARS):
        col = error_stack[:, :, j]
        rms_full[name] = float(np.sqrt(np.mean(col**2)))
        rms_post[name] = (float(np.sqrt(np.mean(col[:, post]**2)))
                          if post.any() else None)
        if not math.isfinite(rms_full[name]):   # then so is rms_post
            raise FloatingPointError(f"the RMS error of {name} is not finite")
        worst = np.max(np.abs(col), axis=0)
        conv[name] = convergence_time(times, worst, DEFAULT_THRESHOLDS[name])
    return RunReport(rms_full, rms_post, conv,
                     error_stack.shape[0], float(times[-1]))


def initial_state_for_run(dataset, rng):
    """Truth-based initial state with a drawn velocity/orientation error."""
    dv, dphi = initial_error_draw(rng)
    X0 = dataset.initial_group_element()
    X = GroupElement.from_parts(so3_exp(dphi) @ X0.rot, X0.v + dv, X0.p, X0.pc)
    return FilterState(X, BiasState(), run_covariance(), 0.0)


def monte_carlo(dataset, variant, noise, n_runs, seed):
    """Yield n_runs filter trajectories with independent initial-error
    draws, each as soon as its run finishes."""
    model = VirtualLeg()
    rng = np.random.default_rng(seed)
    for _ in range(n_runs):
        yield run_variant(initial_state_for_run(dataset, rng), dataset,
                          variant, model, noise)


def _run_fault(trajectory):
    """What `run` reports of a trajectory, or None: a non-finite state before
    a covariance with lambda_min < -PSD_TOL lambda_max.  A chunk whose
    Cholesky factor exists passes (README, numerical notes)."""
    psd = True
    for start in range(0, len(trajectory), _CHUNK):
        chunk = trajectory[start:start + _CHUNK]
        P = np.array([st.P for st in chunk])
        if not all(np.isfinite(a).all() for a in (
                P, [st.X.rot for st in chunk], [st.X.cols for st in chunk],
                [(st.theta.b_omega, st.theta.b_acc) for st in chunk])):
            return "a non-finite state"
        if psd:
            try:
                np.linalg.cholesky(P)
            except np.linalg.LinAlgError:
                lam = np.linalg.eigvalsh(P)
                psd = not np.any(lam[:, 0] < -PSD_TOL * lam[:, -1])
    return None if psd else "a covariance that is not positive semidefinite"


def save_trajectory(trajectory, path):
    """One JSON record per state, written _CHUNK states at a time from
    stacked fields."""
    with open(path, "w") as fh:
        for start in range(0, len(trajectory), _CHUNK):
            chunk = trajectory[start:start + _CHUNK]
            fh.writelines(json_lines(TRAJECTORY_KEYS, [
                [st.t for st in chunk],
                rot_to_quat(np.array([st.X.rot for st in chunk])),
                *np.array([(*st.X.cols.T, st.theta.b_omega, st.theta.b_acc)
                           for st in chunk]).swapaxes(0, 1),
                np.array([st.P.diagonal() for st in chunk])]))


def load_trajectory_arrays(path):
    """Times, rotations, velocities from a trajectory JSONL file."""
    records = read_jsonl(path)
    if not all(isinstance(rec, dict) for rec in records):
        raise ValueError(f"{path}: a line is not a trajectory record")
    ts, quats, vs = (read_column(records, "trajectory", key, shape) for key, shape
                     in zip(TRAJECTORY_KEYS, ((), (4,), (3,))))
    return ts, quat_to_rot(quats), vs


# ---------------------------------------------------------------------------
# config parsing

_BOOLEANS = {"1": True, "0": False, "true": True, "false": False,
             "yes": True, "no": False}
# a ScenarioConfig field's declared type -> the reader of its value
_READERS = {"float": float, "float | None": float, "int": int, "str": str,
            "bool": lambda raw: _BOOLEANS[raw.lower()],
            "PitchProfile": make_profile, "PitchProfile | None": make_profile}


def parse_scenario_config(path):
    """A ScenarioConfig from a ``key = value`` file: the noise keys of
    ``read_config``, and every other field by its name."""
    noise_kwargs, values = read_config(path)
    types = {f.name: f.type for f in fields(ScenarioConfig) if f.name != "noise"}
    kwargs = {}
    for key, raw in values.items():
        if key not in types:
            raise ValueError(f"unknown config key: {key}")
        if types[key] == "bool" and raw.lower() not in _BOOLEANS:
            raise ValueError(f"{key} must be one of "
                             f"{'/'.join(_BOOLEANS)}, got {raw!r}")
        kwargs[key] = _READERS[types[key]](raw)
    if noise_kwargs:
        kwargs["noise"] = NoiseConfig(**noise_kwargs)
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# subcommands

def cli_simulate(args):
    config = parse_scenario_config(args.config)
    # open --out first, so that a path that cannot be written fails before
    # generating, but to append: a failed run leaves an existing file whole,
    # and removes a file that it created
    try:
        fh, created = open(args.out, "x"), True
    except FileExistsError:
        fh, created = open(args.out, "a"), False
    with fh:
        try:
            dataset = generate(config)
            fh.truncate(0)
            write_jsonl(dataset, fh)
        except BaseException:
            if created:
                pathlib.Path(args.out).unlink()
            raise
    # hypot squares nothing, so a finite |v_c| near the float limit stays finite
    x, y, z = dataset.contact_v.T
    max_vc = float(np.max(np.hypot(np.hypot(x, y), z)))
    print(f"wrote {args.out}: duration {config.duration} s, "
          f"{dataset.imu_t.size} IMU samples, {dataset.meas_t.size} "
          f"measurements, {dataset.switch_t.size} contact switches, "
          f"max |v_c| {max_vc:.3f} m/s")
    return 0


def cli_run(args):
    """Check, write and score each run as it finishes: only one run's states
    are alive at a time, and the report keeps each run's error table."""
    outdir = pathlib.Path(args.out)
    error_rows = []
    dataset = load_jsonl(args.dataset)
    outdir.mkdir(parents=True, exist_ok=True)
    for traj in monte_carlo(dataset, FilterVariant(args.variant),
                            NoiseConfig(), args.runs, args.seed):
        i = len(error_rows)
        if fault := _run_fault(traj):
            raise FloatingPointError(f"run {i} produced {fault}")
        save_trajectory(traj, outdir / f"run_{i:02d}.jsonl")
        times, errs = trajectory_errors(dataset, traj)
        error_rows.append(errs)
        del traj    # else the loop target keeps run i alive during run i+1
    error_stack = np.array(error_rows)
    report = make_report(times, error_stack)
    # per epoch, the min and max over runs of each error, in ERROR_VARS order
    envelope = np.stack([error_stack.min(axis=0), error_stack.max(axis=0)], axis=2)
    with open(outdir / "envelope.csv", "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([times, envelope.reshape(times.size, -1)]),
                   fmt=["%.6f"] + ["%.9g"] * 2 * len(ERROR_VARS), delimiter=",",
                   newline="\r\n", comments="", header=",".join(
                       ["t", *(f"{name}_{end}" for name in ERROR_VARS
                               for end in ("min", "max"))]))
    _write_json(report.to_dict(), outdir / "report.json")
    return 0


def cli_eval(args):
    dataset = load_jsonl(args.truth)
    ts, rots, vs = load_trajectory_arrays(args.estimate)
    if not (ts.size and ts.min() >= dataset.truth_t[0] - dataset.time_tol
            and ts.max() <= dataset.truth_t[-1] + dataset.time_tol):
        raise ValueError("estimate epochs lie outside the truth window")
    # the report's duration and convergence times read the epochs in order
    if (late := np.flatnonzero(np.diff(ts) <= 0.0)).size:
        raise ValueError(f"estimate epoch {late[0] + 2} (t={ts[late[0] + 1]:.6g} s)"
                         " is not after the one before it")
    errors = epoch_errors(dataset, ts, rots, vs)
    _write_json(make_report(ts, errors[None, :, :]).to_dict(), args.out)
    return 0


def cli_obs(args):
    # np.arange makes ceil(this quotient) tilts
    if (args.max_tilt_deg + 1e-9) / args.step_deg > MAX_TILTS:
        raise ValueError(f"--max-tilt-deg {args.max_tilt_deg:g} in steps of "
                         f"{args.step_deg:g} is more than {MAX_TILTS:,} tilts")
    tilts = np.radians(np.arange(0.0, args.max_tilt_deg + 1e-9, args.step_deg))
    _write_json({"tilt_sweep": [r.to_dict() for r in tilt_sweep(tilts)]},
                args.out)
    return 0


def _write_json(doc, path):
    """Write a JSON document to path, if any, then print it.  Strict JSON:
    a non-finite number raises ValueError rather than print NaN."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    if path:
        pathlib.Path(path).write_text(text)
    print(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1: the CLI keeps 2 for numerical
    failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _positive(kind, zero=False):
    """argparse type: a finite ``kind`` greater than zero, or at least zero
    when ``zero`` is set."""
    def parse(raw):
        try:
            value = kind(raw)
        except ValueError:
            value = math.nan
        if not (0 <= value < math.inf if zero else 0 < value < math.inf):
            raise argparse.ArgumentTypeError(
                f"expected a {'nonnegative' if zero else 'positive'} "
                f"{kind.__name__}, got {raw!r}")
        return value
    return parse


def build_parser():
    parser = _Parser(
        prog="drs-inekf",
        description="Invariant-filter toolkit for locomotion on a moving surface")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cli_simulate)

    p = sub.add_parser("run", help="run the filter over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--variant", choices=["drs", "srs"], default="drs")
    p.add_argument("--runs", type=_positive(int), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cli_run)

    p = sub.add_parser("eval", help="RMS error report for one trajectory")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli_eval)

    p = sub.add_parser("obs", help="observability tilt sweep")
    p.add_argument("--max-tilt-deg", type=_positive(float, zero=True),
                   default=10.0)
    p.add_argument("--step-deg", type=_positive(float), default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cli_obs)
    return parser


# the failures that exit 2, tested first: a LinAlgError is also a ValueError
_NUMERICAL_FAILURES = (FloatingPointError, np.linalg.LinAlgError)


def main(argv=None):
    """Run one subcommand; the one map from its failures to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        # non-finite results are checked where made (_run_fault, make_report,
        # generate): a numpy warning would only precede that check's error
        with np.errstate(all="ignore"):
            return args.func(args)
    except (*_NUMERICAL_FAILURES, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _NUMERICAL_FAILURES) else 1


if __name__ == "__main__":
    sys.exit(main())
