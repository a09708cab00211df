"""In-memory span recorder and the hooks that feed it.

Tracing is done from outside the package: each hook replaces one public
sqip function or method with a wrapper that records a span (name, start,
end, parent span, scenario scope) and, for some targets, a count taken
from the call's arguments or result. Nothing under ``src/`` knows about
it, and an untraced process installs no hook at all.

A hook whose target no longer exists (renamed or merged by a refactor)
is recorded as absent; the layer metrics that depend on it are then
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np


def _grid_solve_bytes(count, args, kwargs, result):
    # Computed, not measured: each axis sweep reads the right-hand side
    # and writes the solution once (8-byte floats).
    rhs = args[2] if len(args) > 2 else kwargs["rhs"]
    count("grid.solve_bytes", 2 * rhs.nbytes * rhs.ndim)


def _run_steps(count, args, kwargs, result):
    count("solver.steps_accepted", result.steps_accepted)
    count("solver.steps_rejected", result.steps_rejected)


def _file_bytes(count, args, kwargs, result):
    count("runner.io_bytes", os.path.getsize(args[0]))


def _power_iters(count, args, kwargs, result):
    count("spectral.power_iters", result[2])


class _BoundArg:
    """Reads one argument of a call by name, defaults included."""

    def __init__(self, fn, name):
        self.signature = inspect.signature(fn)
        if name not in self.signature.parameters:
            raise AttributeError(f"{fn.__qualname__} has no argument {name!r}")
        self.name = name

    def __call__(self, args, kwargs):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[self.name]


def _propagate_steps(fn):
    nsteps = _BoundArg(fn, "nsteps")

    def after(count, args, kwargs, result):
        count("solver.propagate_steps", int(nsteps(args, kwargs)))
    return after


def _batch_steps(fn):
    dt = _BoundArg(fn, "dt")

    def after(count, args, kwargs, result):
        steps = round(float(result.t_reached.max()) / dt(args, kwargs))
        count("ode.batch_steps", steps)
    return after


def _static(after):
    return lambda fn: after


# (span name, target "module:attribute.path", factory of the counter
# callback or None). Module-level functions are replaced in every loaded
# sqip module that holds them, so names imported with ``from x import f``
# are traced too; methods are replaced on their class.
HOOKS = (
    ("grid.solve", "sqip.grid:DiffusionSolver.solve", _static(_grid_solve_bytes)),
    ("grid.factorize", "sqip.grid:cholesky_banded", None),
    ("model.kernel", "sqip.model:Incidence.kernel", None),
    ("model.coeff", "sqip.model:CoefficientField.__call__", None),
    ("solver.run", "sqip.solver:run", _static(_run_steps)),
    ("solver.step", "sqip.solver:Stepper.step", None),
    ("solver.reaction", "sqip.solver:Stepper.reaction", None),
    ("solver.dt_cap", "sqip.solver:Stepper.reaction_dt_cap", None),
    ("solver.advance", "sqip.solver:LinearPropagator.advance", _propagate_steps),
    ("diagnostics.row", "sqip.diagnostics:compute_row", None),
    ("diagnostics.classify", "sqip.diagnostics:classify_longtime", None),
    ("diagnostics.write_csv", "sqip.diagnostics:write_csv", _static(_file_bytes)),
    ("runner.write_snapshot", "sqip.runner:write_snapshot", _static(_file_bytes)),
    ("runner.compute_spectral", "sqip.runner:compute_spectral", None),
    ("runner.run_sweep", "sqip.runner:run_sweep", None),
    ("runner.sweep_rows", "sqip.runner:si_sweep_rows", None),
    ("runner.sweep_rows", "sqip.runner:sis_sweep_rows", None),
    ("spectral.r0", "sqip.spectral:r0", None),
    ("spectral.eigenvalue", "sqip.spectral:principal_eigenvalue", None),
    ("spectral.power", "sqip.spectral:monodromy_radius", _static(_power_iters)),
    ("ode.settle", "sqip.ode:settle_batch", _batch_steps),
    ("ode.classify", "sqip.ode:si_classify", None),
    ("ode.classify", "sqip.ode:sis_classify", None),
    ("config.resolve", "sqip.config:resolve_config", None),
)


class Tracer:
    """Span and counter store for one traced process.

    Spans live in flat typed arrays (a span's id is its index) so that a
    traced pass of a million calls stays small in memory. ``scope`` names
    the workload item being run; every span and count is tagged with it.
    """

    def __init__(self):
        self.names: list[str] = []
        self.scopes: list[str] = []
        self._scope_ids: dict[str, int] = {}
        self.scope = 0
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.scope_of = array("H")
        self.counts: dict[tuple[int, str], int] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self.set_scope("setup")

    def set_scope(self, label: str) -> None:
        if label not in self._scope_ids:
            self._scope_ids[label] = len(self.scopes)
            self.scopes.append(label)
        self.scope = self._scope_ids[label]

    def count(self, key: str, n: int) -> None:
        slot = (self.scope, key)
        self.counts[slot] = self.counts.get(slot, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, span_name: str, after=None):
        """Wrapper of ``fn`` that records one span per call."""
        name_id = self._name_id(span_name)
        start, end, parent = self.start, self.end, self.parent
        names, scope_of, stack = self.name, self.scope_of, self._stack
        clock = time.perf_counter_ns
        count = self.count
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            scope_of.append(tracer.scope)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(count, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every hook target that exists. A target that does not,
        or no longer takes the argument its counter reads, is absent."""
        for span_name, target, counter in HOOKS:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                after = counter(original) if counter is not None else None
            except (ImportError, AttributeError):
                self.absent.append(span_name)
                continue
            wrapped = self.wrap(original, span_name, after)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "sqip" or mod_name.startswith("sqip."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def save(self, path) -> None:
        """Write every span, with its name and scope tables, to an .npz file."""
        np.savez(path,
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 scope=np.frombuffer(self.scope_of, dtype=np.uint16),
                 names=np.array(self.names), scopes=np.array(self.scopes))

    def by_scope(self) -> dict[str, dict]:
        """Per scope: span count, total and self seconds per span name,
        and the counters.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        scope = np.frombuffer(self.scope_of, dtype=np.uint16).astype(np.int64)
        dur = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        width = max(len(self.names), 1)
        key = scope * width + name
        size = len(self.scopes) * width
        calls = np.bincount(key, minlength=size).reshape(-1, width)
        total = np.bincount(key, weights=dur, minlength=size).reshape(-1, width)
        selft = np.bincount(key, weights=own, minlength=size).reshape(-1, width)
        out = {}
        for sid, label in enumerate(self.scopes):
            spans = {nm: {"calls": int(calls[sid, j]),
                          "total_s": float(total[sid, j]) * 1e-9,
                          "self_s": float(selft[sid, j]) * 1e-9}
                     for j, nm in enumerate(self.names) if calls[sid, j]}
            counts = {k: v for (s, k), v in self.counts.items() if s == sid}
            out[label] = {"spans": spans, "counts": counts}
        return out


def merge(scopes: list[dict]) -> dict:
    """Sum per-scope aggregates (as returned by ``Tracer.by_scope``)."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for agg in scopes:
        for nm, rec in agg["spans"].items():
            acc = spans.setdefault(nm, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field, value in rec.items():
                acc[field] += value
        for key, value in agg["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts}


# Per-layer metrics: name -> (unit, better, span names it depends on).
# A metric whose spans include an absent hook is reported as absent.
LAYER_METRICS = {
    "grid.solve_calls": ("count", "lower", ("grid.solve",)),
    "grid.solve_s": ("s", "lower", ("grid.solve",)),
    "grid.solve_us": ("us", "lower", ("grid.solve",)),
    "grid.factorizations": ("count", "lower", ("grid.factorize",)),
    "grid.solve_bytes": ("bytes", "lower", ("grid.solve",)),
    "model.kernel_calls": ("count", "lower", ("model.kernel",)),
    "model.kernel_s": ("s", "lower", ("model.kernel",)),
    "model.coeff_calls": ("count", "lower", ("model.coeff",)),
    "model.coeff_s": ("s", "lower", ("model.coeff",)),
    "solver.steps_accepted": ("count", "lower", ("solver.run",)),
    "solver.steps_rejected": ("count", "lower", ("solver.run",)),
    "solver.accept_ratio": ("ratio", "higher", ("solver.run",)),
    "solver.step_self_s": ("s", "lower", ("solver.step", "solver.reaction", "grid.solve")),
    "solver.reaction_self_s": ("s", "lower", ("solver.reaction", "model.kernel", "model.coeff")),
    "solver.dt_cap_s": ("s", "lower", ("solver.dt_cap",)),
    "solver.run_self_s": ("s", "lower", ("solver.run", "solver.step", "solver.dt_cap",
                                         "diagnostics.row")),
    "solver.propagate_steps": ("count", "lower", ("solver.advance",)),
    "solver.advance_self_s": ("s", "lower", ("solver.advance", "grid.solve", "model.coeff")),
    "diagnostics.rows": ("count", "lower", ("diagnostics.row",)),
    "diagnostics.row_s": ("s", "lower", ("diagnostics.row",)),
    "diagnostics.classify_s": ("s", "lower", ("diagnostics.classify",)),
    "runner.io_s": ("s", "lower", ("diagnostics.write_csv", "runner.write_snapshot")),
    "runner.io_bytes": ("bytes", "lower", ("diagnostics.write_csv", "runner.write_snapshot")),
    "runner.sample_s": ("s", "lower", ("runner.sweep_rows", "ode.settle", "ode.classify")),
    "spectral.period_maps": ("count", "lower", ("solver.advance",)),
    "spectral.r0_evals": ("count", "lower", ("spectral.eigenvalue",)),
    "spectral.power_iters": ("count", "lower", ("spectral.power",)),
    "spectral.eig_self_s": ("s", "lower", ("spectral.eigenvalue", "spectral.power",
                                           "solver.advance")),
    "spectral.rootfind_self_s": ("s", "lower", ("spectral.r0", "spectral.eigenvalue")),
    "ode.batch_steps": ("count", "lower", ("ode.settle",)),
    "ode.settle_s": ("s", "lower", ("ode.settle",)),
    "ode.classify_s": ("s", "lower", ("ode.classify",)),
    "config.resolve_s": ("s", "lower", ("config.resolve",)),
}

# Layer metrics that are counts: they must repeat exactly across passes.
COUNT_METRICS = tuple(name for name, (unit, _, _) in LAYER_METRICS.items()
                      if unit in ("count", "bytes"))


def layer_values(agg: dict, setup: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    ``agg`` is the merged aggregate of the pass's scopes, ``setup`` that
    of the set-up scope (configuration resolving happens there).
    """
    spans, counts = agg["spans"], agg["counts"]

    def calls(nm):
        return spans.get(nm, {}).get("calls", 0)

    def total(nm):
        return spans.get(nm, {}).get("total_s", 0.0)

    def own(nm):
        return spans.get(nm, {}).get("self_s", 0.0)

    accepted = counts.get("solver.steps_accepted", 0)
    rejected = counts.get("solver.steps_rejected", 0)
    attempted = accepted + rejected
    solves = calls("grid.solve")
    return {
        "grid.solve_calls": solves,
        "grid.solve_s": total("grid.solve"),
        "grid.solve_us": total("grid.solve") / solves * 1e6 if solves else 0.0,
        "grid.factorizations": calls("grid.factorize"),
        "grid.solve_bytes": counts.get("grid.solve_bytes", 0),
        "model.kernel_calls": calls("model.kernel"),
        "model.kernel_s": total("model.kernel"),
        "model.coeff_calls": calls("model.coeff"),
        "model.coeff_s": total("model.coeff"),
        "solver.steps_accepted": accepted,
        "solver.steps_rejected": rejected,
        # Nothing attempted wastes nothing: 1.0 outside the IMEX workloads.
        "solver.accept_ratio": accepted / attempted if attempted else 1.0,
        "solver.step_self_s": own("solver.step"),
        "solver.reaction_self_s": own("solver.reaction"),
        "solver.dt_cap_s": total("solver.dt_cap"),
        "solver.run_self_s": own("solver.run"),
        "solver.propagate_steps": counts.get("solver.propagate_steps", 0),
        "solver.advance_self_s": own("solver.advance"),
        "diagnostics.rows": calls("diagnostics.row"),
        "diagnostics.row_s": total("diagnostics.row"),
        "diagnostics.classify_s": total("diagnostics.classify"),
        "runner.io_s": total("diagnostics.write_csv") + total("runner.write_snapshot"),
        "runner.io_bytes": counts.get("runner.io_bytes", 0),
        "runner.sample_s": own("runner.sweep_rows"),
        "spectral.period_maps": calls("solver.advance"),
        "spectral.r0_evals": calls("spectral.eigenvalue"),
        "spectral.power_iters": counts.get("spectral.power_iters", 0),
        "spectral.eig_self_s": own("spectral.eigenvalue") + own("spectral.power"),
        "spectral.rootfind_self_s": own("spectral.r0"),
        "ode.batch_steps": counts.get("ode.batch_steps", 0),
        "ode.settle_s": total("ode.settle"),
        "ode.classify_s": total("ode.classify"),
        "config.resolve_s": setup["spans"].get("config.resolve", {}).get("total_s", 0.0),
    }


def absent_metrics(absent_spans) -> list[str]:
    """Layer metrics that depend on a hook whose target was not found."""
    missing = set(absent_spans)
    return [name for name, (_, _, deps) in LAYER_METRICS.items()
            if missing.intersection(deps)]
