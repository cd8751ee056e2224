"""The three benchmark workloads.

Each workload is built from the workload seed alone and is driven only
through the public library and ``harness.main(argv)``.  The package's
functions are always looked up through their module at call time, so a
``tracing.Tracer`` that replaces them sees every call.

A workload has three parts:

* ``prepare()`` - the set-up, repeated to time it (dataset generation and
  saving);
* ``rep()`` - one timed repetition; returns a ``Rep`` with its wall time,
  the number of filter runs, latency samples and its raw outputs.  Every
  repetition of a workload runs the same inputs;
* ``check_rep(rep)`` and ``final_checks(reps)`` - output checks, run outside
  the timed and traced regions.  Each failed check names the unit it fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from drs_inekf import drs as D
from drs_inekf import filter as F
from drs_inekf import harness as H
from drs_inekf import kinematics as K
from drs_inekf import liegroup as L
from drs_inekf import sim as S
from drs_inekf import state as ST

# criterion-5 setup (tests/test_acceptance.py): stepping robot on the
# phase-advanced trapezoid, 100 Hz leg odometry, 15 Hz surface orientation
CASE_A = dict(profile=D.PitchProfile(kind="TM1", phase_s=2.8),
              robot_motion="RM1", duration=8.0, imu_rate=200.0,
              meas_rate=100.0, orient_rate=15.0)
MC_RUNS = 10
V_DEADLINE, RP_DEADLINE, YAW_DEADLINE = 1.5, 1.5, 5.0
OBS_MAX_TILT_DEG, OBS_STEP_DEG = 10, 0.01

# criterion-8 setup: matched noise on the sinusoid, standing robot
NEES_RUNS = 10
NEES_IDX = [0, 1, 3, 4, 5]          # roll, pitch, v
NEES_VAR_POSE = 0.01

STREAM_DRAWS = 8
STREAM_TOL = 1e-12


@dataclass
class Rep:
    wall_s: float
    runs: int
    epoch_s: list               # latency samples, seconds
    units: int                  # units attempted in this repetition
    outputs: object             # raw outputs, consumed by check_rep
    digest: str = ""            # hash of every output, set by check_rep
    failures: list = field(default_factory=list)
    scores: list = field(default_factory=list)   # per-run mean NEES


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _state_bytes(st):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in
                    (st.X.rot, st.X.cols, st.theta.b_omega, st.theta.b_acc,
                     st.P, np.array([st.t])))


def _finite(st):
    return all(np.all(np.isfinite(a)) for a in
               (st.X.rot, st.X.cols, st.theta.as_vector(), st.P))


class _RunTimer:
    """Times each DRS ``run_variant`` call made through ``harness``; the
    sample of one run is its wall time over its number of updates.  SRS runs
    are left out: their 3-row updates are cheaper, and a median over two
    clusters of equal size would jump between them."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        inner = self.inner = H.run_variant

        def timed(state, dataset, variant, *args, **kwargs):
            t0 = time.perf_counter()
            traj = inner(state, dataset, variant, *args, **kwargs)
            if variant is F.FilterVariant.DRS:
                self.samples.append((time.perf_counter() - t0) / len(traj))
            return traj

        H.run_variant = timed
        return self

    def __exit__(self, *exc):
        H.run_variant = self.inner
        return False


class RockingMC:
    """Case A through the CLI: DRS and SRS Monte Carlo, eval, obs."""

    name = "rocking-mc"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = pathlib.Path(workdir)
        self.dataset = self.workdir / "case_a.jsonl"
        self.n_obs = int(round(OBS_MAX_TILT_DEG / OBS_STEP_DEG)) + 1

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        ds = S.generate(S.ScenarioConfig(seed=self.seed, **CASE_A))
        S.save_jsonl(ds, self.dataset)

    def _calls(self):
        out = {v: self.workdir / v for v in ("drs", "srs")}
        calls = [("run-" + v, ["run", "--dataset", str(self.dataset),
                               "--variant", v, "--runs", str(MC_RUNS),
                               "--seed", str(self.seed), "--out", str(out[v])])
                 for v in ("drs", "srs")]
        calls += [(f"eval-{i:02d}",
                   ["eval", "--truth", str(self.dataset),
                    "--estimate", str(out["drs"] / f"run_{i:02d}.jsonl")])
                  for i in range(MC_RUNS)]
        calls.append(("obs", ["obs", "--max-tilt-deg", str(OBS_MAX_TILT_DEG),
                              "--step-deg", str(OBS_STEP_DEG)]))
        return calls

    def rep(self):
        results = []
        with _RunTimer() as timer:
            t0 = time.perf_counter()
            for unit, argv in self._calls():
                buf, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf), \
                            contextlib.redirect_stderr(err):
                        code = H.main(argv)
                except Exception as exc:  # a unit that raises has failed
                    code = f"raised {exc!r}"
                results.append((unit, code, buf.getvalue(), err.getvalue()))
            wall = time.perf_counter() - t0
        return Rep(wall, 2 * MC_RUNS, timer.samples, len(results), results)

    def check_rep(self, rep):
        fails = rep.failures
        chunks = []
        for unit, code, stdout, stderr in rep.outputs:
            chunks.append(stdout.encode())
            if code != 0:
                fails.append(f"{unit}: exit {code}: {stderr.strip()[-200:]}")
                continue
            try:
                out = json.loads(stdout)
            except ValueError:
                fails.append(f"{unit}: output is not JSON")
                continue
            if unit == "run-drs":
                conv = out["convergence_time_s"]
                late = [k for k, lim in (("v_x", V_DEADLINE), ("v_y", V_DEADLINE),
                                         ("v_z", V_DEADLINE), ("roll", RP_DEADLINE),
                                         ("pitch", RP_DEADLINE), ("yaw", YAW_DEADLINE))
                        if conv[k] is None or conv[k] > lim]
                if late:
                    fails.append(f"{unit}: late convergence of {late}: {conv}")
            elif unit == "run-srs":
                if out["convergence_time_s"]["yaw"] is not None:
                    fails.append(f"{unit}: static-surface yaw converged")
            elif unit == "obs":
                ranks = [r["rank"] for r in out["tilt_sweep"]]
                if len(ranks) != self.n_obs or ranks[0] != 8 \
                        or set(ranks[1:]) != {9}:
                    fails.append(f"{unit}: ranks {sorted(set(ranks))} "
                                 f"over {len(ranks)} tilts")
            elif not all(math.isfinite(v) for v in out["rms_full_window"].values()):
                fails.append(f"{unit}: non-finite RMS")
        for v in ("drs", "srs"):
            for path in sorted((self.workdir / v).iterdir()):
                chunks.append(path.read_bytes())
        rep.digest = _sha(*chunks)
        rep.outputs = None

    def final_checks(self, reps):
        return []


class NeesSweep:
    """Criterion 8 in shape: fresh TM2/RM2 dataset and one DRS run each."""

    name = "nees-sweep"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.P0 = ST.run_covariance(var_pose=NEES_VAR_POSE)
        self.noise = ST.NoiseConfig()
        self.leg = K.VirtualLeg()

    def prepare(self):
        pass

    def _config(self, r):
        ds_seed = np.random.SeedSequence([self.seed, r]).generate_state(1)[0]
        return S.ScenarioConfig(profile=D.PitchProfile(kind="TM2"),
                                robot_motion="RM2", duration=10.0,
                                meas_rate=15.0, seed=int(ds_seed))

    def rep(self):
        wall, samples, outputs = 0.0, [], []
        for r in range(NEES_RUNS):
            config = self._config(r)
            rng = np.random.default_rng([self.seed, r])
            t0 = time.perf_counter()
            ds = S.generate(config)
            xi = rng.multivariate_normal(np.zeros(18), self.P0)
            X0 = L.compose(L.sek3_exp(xi[:12]), ds.initial_group_element())
            st = ST.FilterState(X0, ST.BiasState.from_vector(xi[12:]),
                                self.P0.copy(), 0.0)
            t1 = time.perf_counter()
            traj = F.run_variant(st, ds, F.FilterVariant.DRS, self.leg,
                                 self.noise)
            t2 = time.perf_counter()
            wall += t2 - t0
            samples.append((t2 - t1) / len(traj))
            outputs.append((ds, traj))
        return Rep(wall, NEES_RUNS, samples, NEES_RUNS, outputs)

    def check_rep(self, rep):
        chunks = []
        for r, (ds, traj) in enumerate(rep.outputs):
            if not all(_finite(s) for s in traj):
                rep.failures.append(f"run {r}: non-finite state")
                continue
            row = []
            for s in traj:
                i = int(round(s.t / ds.dt))
                X_true = L.GroupElement.from_parts(ds.truth_rot[i], ds.truth_v[i],
                                                   ds.truth_p[i], ds.truth_pc[i])
                e = L.sek3_log(L.compose(s.X, L.inverse(X_true)))[NEES_IDX]
                Psub = s.P[np.ix_(NEES_IDX, NEES_IDX)]
                row.append(float(e @ np.linalg.solve(Psub, e)))
                chunks.append(_state_bytes(s))
            rep.scores.append(float(np.mean(row)))
        rep.digest = _sha(*chunks)
        rep.outputs = None

    def final_checks(self, reps):
        from scipy import stats
        nees = reps[0].scores
        n = len(nees)
        if n == 0:
            return []
        mean = float(np.mean(nees))
        lo = 0.75 * stats.chi2.ppf(0.025, 5 * n) / n
        hi = 1.25 * stats.chi2.ppf(0.975, 5 * n) / n
        self.summary = {"mean_nees": mean, "band": [lo, hi], "runs": n}
        if not lo <= mean <= hi:
            return [f"mean NEES {mean:.3f} over {n} runs outside "
                    f"[{lo:.3f}, {hi:.3f}]"]
        return []


class OnlineStream:
    """Case A streamed one sample at a time, as a robot's estimator loop."""

    name = "online-stream"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.noise = ST.NoiseConfig()
        self.leg = K.VirtualLeg()
        self.final = None         # final state of each draw, from rep 0

    def prepare(self):
        self.ds = S.generate(S.ScenarioConfig(seed=self.seed, **CASE_A))
        rng = np.random.default_rng(self.seed)
        self.starts = [H.initial_state_for_run(self.ds, rng)
                       for _ in range(STREAM_DRAWS)]

    def _stream(self, state, latencies):
        ds, leg, noise = self.ds, self.leg, self.noise
        dt, n, tol = ds.dt, ds.imu_t.size, 0.25 * ds.dt
        variant = F.FilterVariant.DRS
        meas = {int(round(t / dt)): j for j, t in enumerate(ds.meas_t)}
        switch = {int(round(t / dt)): j for j, t in enumerate(ds.switch_t)}
        orient = {int(round(t / dt)): j for j, t in enumerate(ds.drs_t)}
        t0 = time.perf_counter()
        for k in range(n):
            step_dt = ds.imu_t[k + 1] - ds.imu_t[k] if k + 1 < n else dt
            imu = F.ImuSample(ds.imu_omega[k], ds.imu_acc[k], ds.imu_t[k])
            state = F.propagate(state, F.ProcessInput(imu, ds.contact_v[k],
                                                      step_dt), noise, variant)
            j = switch.get(k + 1)
            if j is not None and abs(ds.switch_t[j] - state.t) < tol:
                state = F.jump_propagate(state, ds.switch_q[j], leg, noise)
            j = meas.get(k + 1)
            if j is not None and abs(ds.meas_t[j] - state.t) < tol:
                obs = [F.position_observation(ds.enc_q[j], leg, noise,
                                              state.X.rot)]
                jo = orient.get(k + 1)
                if jo is not None:
                    obs.insert(0, F.orientation_observation(
                        ds.enc_q[j], ds.drs_rot[jo], leg, noise, state.X.rot))
                state = F.update(state, obs)
                t1 = time.perf_counter()
                latencies.append(t1 - t0)
                t0 = t1
        return state

    def rep(self):
        latencies, finals = [], []
        t0 = time.perf_counter()
        for start in self.starts:
            finals.append(self._stream(start, latencies))
        wall = time.perf_counter() - t0
        return Rep(wall, len(self.starts), latencies, len(self.starts), finals)

    def check_rep(self, rep):
        for d, st in enumerate(rep.outputs):
            if not _finite(st):
                rep.failures.append(f"draw {d}: non-finite state")
        if self.final is None:
            self.final = rep.outputs
        rep.digest = _sha(*(_state_bytes(s) for s in rep.outputs))
        rep.outputs = None

    def final_checks(self, reps):
        """Each streamed draw must end where ``run_variant`` ends."""
        fails = []
        for d, (start, st) in enumerate(zip(self.starts, self.final)):
            ref = F.run_variant(start, self.ds, F.FilterVariant.DRS, self.leg,
                                self.noise)[-1]
            diff = max(float(np.max(np.abs(a - b))) for a, b in
                       ((st.X.rot, ref.X.rot), (st.X.cols, ref.X.cols),
                        (st.theta.as_vector(), ref.theta.as_vector()),
                        (st.P, ref.P)))
            if not diff <= STREAM_TOL or st.t != ref.t:
                fails.append(f"draw {d}: streamed state differs from "
                             f"run_variant by {diff:.3e}")
        return fails


WORKLOADS = {w.name: w for w in (RockingMC, NeesSweep, OnlineStream)}
