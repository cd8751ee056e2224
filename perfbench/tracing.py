"""Span tracing of drs_inekf from outside the package.

The package's modules import each other's functions by name, so a call is
traced by replacing the attribute that the *caller* looks up: ``propagate``
calls ``integrate_mean`` through ``drs_inekf.filter``, ``generate`` calls it
through ``drs_inekf.sim``.  Every lookup site of one function gets a wrapper
with the same span name.  No file of the package is changed.

Spans (name, parent span, start, end) are kept in flat in-memory lists while
the traced code runs and are written out by ``write_spans`` afterwards.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (module, attribute, span name); the attribute may be "Class.method"
TARGETS = (
    [("drs_inekf.filter", name, "filter." + name)
     for name in ("propagate", "integrate_mean", "update", "jump_propagate",
                  "run_variant")]
    + [("drs_inekf.sim", "integrate_mean", "filter.integrate_mean"),
       ("drs_inekf.harness", "run_variant", "filter.run_variant"),
       ("drs_inekf.filter", "sek3_exp", "liegroup.sek3_exp"),
       ("drs_inekf.filter", "compose", "liegroup.compose"),
       ("drs_inekf.filter", "symmetrize", "state.symmetrize")]
    + [("drs_inekf.liegroup", name, "liegroup." + name)
       for name in ("sek3_exp", "so3_exp", "so3_log", "adjoint", "compose")]
    + [(mod, name, "liegroup." + name)
       for mod in ("drs_inekf.sim", "drs_inekf.harness", "drs_inekf.kinematics")
       for name in ("so3_exp", "so3_log")]
    + [("drs_inekf.drs", "so3_exp", "liegroup.so3_exp"),
       ("drs_inekf.state", "compose", "liegroup.compose"),
       ("drs_inekf.sim", "generate", "sim.generate"),
       ("drs_inekf.sim", "save_jsonl", "sim.save_jsonl"),
       ("drs_inekf.sim", "load_jsonl", "sim.load_jsonl"),
       ("drs_inekf.harness", "load_jsonl", "sim.load_jsonl"),
       ("drs_inekf.sim", "drs_pose_at", "drs.drs_pose_at"),
       ("drs_inekf.kinematics", "VirtualLeg.inverse", "kinematics.inverse")]
    + [("drs_inekf.kinematics", "VirtualLeg." + name, "kinematics.fk")
       for name in ("h_p", "h_R", "J_hp", "J_hR3")]
    + [("drs_inekf.kinematics", "KinematicModel." + name, "kinematics.fk")
       for name in ("h_c", "J_hc")]
    + [("drs_inekf.harness", name, "harness." + name)
       for name in ("monte_carlo", "trajectory_errors",
                    "interpolate_truth", "make_report", "cli_eval",
                    "save_trajectory")]
    + [("drs_inekf.harness", "tilt_sweep", "observability.tilt_sweep")]
)

# file-size counters: span name -> index of the path argument
_PATH_ARG = {"sim.save_jsonl": 1, "sim.load_jsonl": 0,
             "harness.save_trajectory": 1}

_TIMED = ("calls", "busy_s", "self_s")
# per-layer metrics reported by a traced run: span name -> fields
LAYER_FIELDS = {
    "filter.propagate": _TIMED,
    "filter.integrate_mean": _TIMED,
    "filter.update": _TIMED + ("substeps", "skipped", "applied_ratio"),
    "filter.jump_propagate": _TIMED,
    "filter.run_variant": _TIMED,
    **{"liegroup." + name: ("calls", "self_s")
       for name in ("sek3_exp", "so3_exp", "so3_log", "adjoint", "compose")},
    "state.symmetrize": ("calls", "self_s"),
    "sim.generate": _TIMED,
    "drs.drs_pose_at": _TIMED,
    "kinematics.inverse": _TIMED,
    "kinematics.fk": _TIMED,
    "sim.save_jsonl": ("busy_s", "bytes"),
    "sim.load_jsonl": ("busy_s", "bytes"),
    "harness.save_trajectory": ("busy_s", "bytes"),
    **{"harness." + name: _TIMED
       for name in ("monte_carlo", "trajectory_errors", "interpolate_truth",
                    "make_report", "cli_eval")},
    "observability.tilt_sweep": _TIMED,
}
OVERHEAD_METRIC = "trace.overhead_frac"


def layer_metric_names():
    names = [f"{span}.{field}" for span, fields in LAYER_FIELDS.items()
             for field in fields]
    return names + [OVERHEAD_METRIC]


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps every target while active (``with Tracer() as tr:``)."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.skipped_updates = 0
        self.bytes = {}
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        path_arg = _PATH_ARG.get(name)
        is_update = name == "filter.update"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if is_update and result is args[0]:
                self.skipped_updates += 1
            if path_arg is not None:
                self.bytes[name] = (self.bytes.get(name, 0)
                                    + os.path.getsize(args[path_arg]))
            return result

        return wrapper

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            owner, attr_name, original = _resolve(module_name, attr)
            self._saved.append((owner, attr_name, original))
            setattr(owner, attr_name, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr_name, original = self._saved.pop()
            setattr(owner, attr_name, original)
        return False

    def aggregate(self):
        """Per span name: calls, inclusive busy time, self time, and the
        number of ``sek3_exp`` spans whose parent is an ``update`` span."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        update_id = self.name_ids.get("filter.update")
        sek3_id = self.name_ids.get("liegroup.sek3_exp")
        substeps = 0
        for i in range(n):
            nid = self.span_name[i]
            st = stats[self.names[nid]]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            # inclusive time counts only the outermost of nested same-name
            # spans (h_c calls h_p, both named kinematics.fk)
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                st["busy_s"] += dur[i]
            if nid == sek3_id and self.span_parent[i] >= 0 \
                    and self.span_name[self.span_parent[i]] == update_id:
                substeps += 1
        return stats, substeps

    def layer_metrics(self, traced_wall_s, untraced_wall_s):
        stats, substeps = self.aggregate()
        calls = stats.get("filter.update", {}).get("calls", 0)
        update = {"substeps": substeps, "skipped": self.skipped_updates,
                  "applied_ratio": ((calls - self.skipped_updates) / calls
                                    if calls else 0.0)}
        metrics = {}
        for span, fields in LAYER_FIELDS.items():
            values = {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                      **stats.get(span, {}), "bytes": self.bytes.get(span, 0)}
            if span == "filter.update":
                values.update(update)
            for field in fields:
                metrics[f"{span}.{field}"] = values[field]
        metrics[OVERHEAD_METRIC] = traced_wall_s / untraced_wall_s - 1.0
        return metrics

    def write_spans(self, path):
        """One line per span: id, parent id, name, start and end in ns from
        the first span."""
        t_ref = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{round((self.span_start[i] - t_ref) * 1e9)},"
                         f"{round((self.span_end[i] - t_ref) * 1e9)}\n")
