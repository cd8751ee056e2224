"""CLI entry point and evaluation utilities.

Subcommands: ``simulate`` (scenario generation), ``run`` (Monte Carlo filter
execution), ``eval`` (RMS error report for one trajectory), ``obs``
(observability tilt sweep).  Exit codes: 0 success, 1 input error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from .drs import make_profile, profile_from_csv
from .filter import FilterVariant, run_variant
from .kinematics import VirtualLeg
from .liegroup import GroupElement, quat_to_rot, rot_to_quat, so3_exp, so3_log
from .sim import (ScenarioConfig, generate, initial_error_draw, load_jsonl,
                  read_column, write_jsonl)
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
    last_bad = idx[-1]
    if last_bad + 1 >= times.size:
        return None
    return float(times[last_bad + 1])


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
    """RunReport from stacked per-run errors (n_runs, n_epochs, 6)."""
    error_stack = np.asarray(error_stack)
    post = times >= POST_WINDOW_START
    rms_full, rms_post, conv = {}, {}, {}
    for j, name in enumerate(ERROR_VARS):
        col = error_stack[:, :, j]
        rms_full[name] = float(np.sqrt(np.mean(col**2)))
        rms_post[name] = (float(np.sqrt(np.mean(col[:, post]**2)))
                          if post.any() else None)
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
    """Run the filter n_runs times with independent initial-error draws."""
    model = VirtualLeg()
    rng = np.random.default_rng(seed)
    trajectories = []
    for _ in range(n_runs):
        state = initial_state_for_run(dataset, rng)
        trajectories.append(run_variant(state, dataset, variant, model, noise))
    return trajectories


def save_trajectory(trajectory, path):
    quats = rot_to_quat(np.array([st.X.rot for st in trajectory]).reshape(-1, 3, 3))
    with open(path, "w") as fh:
        for st, quat in zip(trajectory, quats.tolist()):
            fh.write(json.dumps({
                "t": st.t, "quat": quat,
                "v": list(st.X.v), "p": list(st.X.p), "p_c": list(st.X.pc),
                "b_omega": list(st.theta.b_omega), "b_acc": list(st.theta.b_acc),
                "p_diag": list(np.diag(st.P)),
            }) + "\n")


def load_trajectory_arrays(path):
    """Times, rotations, velocities from a trajectory JSONL file."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    if not all(isinstance(rec, dict) for rec in records):
        raise ValueError(f"{path}: a line is not a trajectory record")
    ts = read_column(records, "trajectory", "t")
    quats = read_column(records, "trajectory", "quat", (4,))
    vs = read_column(records, "trajectory", "v", (3,))
    return ts, quat_to_rot(quats), vs


# ---------------------------------------------------------------------------
# config parsing

_PROFILE_KEYS = ("profile", "filter_profile")
_FLOAT_KEYS = {
    "duration", "imu_rate", "meas_rate", "orient_rate", "step_period",
    "stride_width", "base_height",
}


def parse_scenario_config(path):
    noise_kwargs, values = read_config(path)
    kwargs = {}
    for key, raw in values.items():
        if key in _PROFILE_KEYS:
            if raw.endswith(".csv"):
                kwargs[key] = profile_from_csv(raw)
            else:
                kwargs[key] = make_profile(raw)
        elif key == "robot_motion":
            kwargs[key] = raw
        elif key == "seed":
            kwargs[key] = int(raw)
        elif key == "draw_biases":
            kwargs[key] = raw.lower() in ("1", "true", "yes")
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(raw)
        else:
            raise ValueError(f"unknown config key: {key}")
    if noise_kwargs:
        kwargs["noise"] = NoiseConfig(**noise_kwargs)
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# subcommands

def cli_simulate(args):
    try:
        config = parse_scenario_config(args.config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # open --out first: a path that cannot be written fails before generating
    with open(args.out, "w") as fh:
        dataset = generate(config)
        write_jsonl(dataset, fh)
    max_vc = float(np.max(np.linalg.norm(dataset.contact_v, axis=1)))
    print(f"wrote {args.out}: duration {config.duration} s, "
          f"{dataset.imu_t.size} IMU samples, {dataset.meas_t.size} "
          f"measurements, {dataset.switch_t.size} contact switches, "
          f"max |v_c| {max_vc:.3f} m/s")
    return 0


def cli_run(args):
    outdir = pathlib.Path(args.out)
    try:
        dataset = load_jsonl(args.dataset)
        if dataset.meas_t.size == 0:
            raise ValueError("the dataset has no encoder records to score")
        outdir.mkdir(parents=True, exist_ok=True)
        trajectories = monte_carlo(dataset, FilterVariant(args.variant),
                                   NoiseConfig(), args.runs, args.seed)
    except np.linalg.LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    error_stack = []
    times = None
    for i, traj in enumerate(trajectories):
        if not all(np.isfinite(a).all() for st in traj for a in
                   (st.X.rot, st.X.cols, st.theta.as_vector(), st.P)):
            print(f"error: run {i} produced a non-finite state", file=sys.stderr)
            return 2
        # one state at a time: a stacked (n, 18, 18) copy of a run's P
        # raises the peak memory of `run` by 4 MB on Case A
        if any(lam[0] < -PSD_TOL * lam[-1]
               for lam in map(np.linalg.eigvalsh, (st.P for st in traj))):
            print(f"error: run {i} produced a covariance that is not positive "
                  "semidefinite", file=sys.stderr)
            return 2
        save_trajectory(traj, outdir / f"run_{i:02d}.jsonl")
        times, errs = trajectory_errors(dataset, traj)
        error_stack.append(errs)
    error_stack = np.array(error_stack)
    report = make_report(times, error_stack)
    with open(outdir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    with open(outdir / "envelope.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for name in ERROR_VARS:
            header += [f"{name}_min", f"{name}_max"]
        writer.writerow(header)
        lo = error_stack.min(axis=0)
        hi = error_stack.max(axis=0)
        for i, t in enumerate(times):
            row = [f"{t:.6f}"]
            for j in range(6):
                row += [f"{lo[i, j]:.9g}", f"{hi[i, j]:.9g}"]
            writer.writerow(row)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cli_eval(args):
    try:
        dataset = load_jsonl(args.truth)
        ts, rots, vs = load_trajectory_arrays(args.estimate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tol = 0.25 * dataset.dt     # load_jsonl's tolerance
    if not (ts.size and ts.min() >= dataset.truth_t[0] - tol
            and ts.max() <= dataset.truth_t[-1] + tol):
        print("error: estimate epochs lie outside the truth window",
              file=sys.stderr)
        return 1
    errors = epoch_errors(dataset, ts, rots, vs)
    report = make_report(ts, errors[None, :, :])
    out = report.to_dict()
    print(json.dumps(out, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


def cli_obs(args):
    try:
        tilts = np.radians(np.arange(0.0, args.max_tilt_deg + 1e-9, args.step_deg))
        reports = tilt_sweep(tilts, dt=args.dt, n_blocks=args.blocks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = [r.to_dict() for r in reports]
    out = {"tilt_sweep": table}
    print(json.dumps(out, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


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
    p.add_argument("--dt", type=_positive(float), default=1e-2)
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cli_obs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:      # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
