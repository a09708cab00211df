"""Run one benchmark workload in this process and report it as JSON.

``run.py`` starts this file as a fresh process per workload, with the
BLAS and OpenMP thread counts pinned in its environment. The process
imports sqip from the checkout's ``src/``, resolves the workload's
configurations, prints ``ready`` (the end of set-up), runs passes over
the workload's items, checks every output, and prints one JSON line.

With ``--trace`` the hooks of ``spans.py`` are installed before set-up,
and the spans are written to ``bench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

# The package's R0 bisection tolerance; every R0 check uses it.
R0_TOL = 1e-6

# The six PDE presets in 1D, plus one scenario that rejects steps: no
# preset does, and reject-and-halve needs a load. At the preset's
# t_end = 800 this scenario exhausts max_steps, so it stops at t = 5.
IMEX_1D = (
    ("thm-2.10-i", "thm-2.10-i", {}),
    ("thm-2.10-ii", "thm-2.10-ii", {}),
    ("thm-2.11-persist", "thm-2.11-persist", {}),
    ("thm-2.11-periodic", "thm-2.11-periodic", {}),
    ("sis-bistable", "sis-bistable", {}),
    ("r0-threshold", "r0-threshold", {}),
    ("reject-q0.3", "thm-2.10-ii",
     {"model.q": "0.3", "model.beta": "4.0", "solver.t_end": "5"}),
)

# The 2D (48 x 48) variants; thm-2.10-i/-ii take 10 s more on the same
# code path and are left out.
IMEX_2D = tuple((name, name, {}) for name in (
    "thm-2.11-persist", "thm-2.11-periodic", "sis-bistable", "r0-threshold"))

# Autonomous (closed form plus bisection cross-check), flat periodic
# (R0 = 1), and heterogeneous: 4 power iterations per evaluation against
# 2 on the flat ones. At dI = 0.1 it takes 9 and 7.7 s, too long a single
# call to time steadily on a shared host.
SPECTRAL = (
    ("thm-2.11-persist", "thm-2.11-persist", {}),
    ("r0-threshold", "r0-threshold", {}),
    ("het-periodic", "thm-2.11-periodic",
     {"model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"}),
)

# Sampling seeds of the reference oracle sweep: the CLI defaults, which
# the acceptance suite also uses.
ORACLE_REFERENCE_SEED = 20240501
ORACLE_POINTS = 100


class ItemError(Exception):
    """An item's output disagrees with its expected value."""


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ImexItem:
    """One scenario: solver.run, classification, CSV and snapshots."""

    timed = True
    ops = 1

    def __init__(self, name, preset, overrides, two_dim):
        from sqip.presets import preset_config
        self.name = name
        self.config = preset_config(preset, overrides or None, two_dim=two_dim)

    def run(self, out_dir: Path) -> dict:
        from sqip import diagnostics, runner, solver
        cfg = self.config
        t0 = time.perf_counter()
        traj = solver.run(cfg)
        t1 = time.perf_counter()
        outcome = diagnostics.classify_longtime(traj, cfg.detect, omega=cfg.omega)
        diagnostics.write_csv(out_dir / "diagnostics.csv", traj.rows)
        snapshots = []
        for k, (_, state) in enumerate(sorted(traj.snapshots.items())):
            path = out_dir / f"snapshot_{k:02d}.txt"
            runner.write_snapshot(path, cfg.domain, state)
            snapshots.append(path)
        t2 = time.perf_counter()
        files = [out_dir / "diagnostics.csv"] + snapshots
        return {
            "seconds": t2 - t0,
            "run_s": t1 - t0,
            "counts": {
                "steps_accepted": traj.steps_accepted,
                "steps_rejected": traj.steps_rejected,
                "rows": len(traj.rows),
                "snapshots": len(snapshots),
                "io_bytes": sum(p.stat().st_size for p in files),
            },
            "observed": {
                "outcome": outcome.label,
                "steps_accepted": traj.steps_accepted,
                "steps_rejected": traj.steps_rejected,
                "diagnostics_sha256": _sha256(files[0]),
                "snapshots_sha256": [_sha256(p) for p in snapshots],
            },
        }

    def check(self, observed: dict, expected: dict) -> None:
        for key, want in expected.items():
            if observed.get(key) != want:
                raise ItemError(f"{key}: got {observed.get(key)!r}, "
                                f"expected {want!r}")


class SpectralItem:
    """One R0 problem through runner.compute_spectral."""

    timed = True
    ops = 1

    def __init__(self, name, preset, overrides):
        from sqip.presets import preset_config
        self.name = name
        self.config = preset_config(preset, overrides or None)
        values = dict(self.config.resolved)
        flat = all(float(values[f"model.{c}_x_amp"]) == 0.0
                   for c in ("beta", "gamma"))
        # Spatially flat coefficients: R0 = mean(beta) N^q / mean(gamma),
        # and the cosine modulations average to their base levels.
        self.closed_form = None
        if flat:
            density = self.config.total_mass() / self.config.domain.measure
            self.closed_form = (float(values["model.beta"])
                                * density ** float(values["model.q"])
                                / float(values["model.gamma"]))

    def run(self, out_dir: Path) -> dict:
        from sqip import runner
        t0 = time.perf_counter()
        result = runner.compute_spectral(self.config)
        t1 = time.perf_counter()
        r0_err = None
        if self.closed_form is not None:
            bisected = (result.r0 if result.r0_cross_check is None
                        else result.r0_cross_check)
            r0_err = abs(bisected - self.closed_form)
        return {
            "seconds": t1 - t0,
            "counts": {"base_iterations": result.iterations},
            "observed": {"r0": result.r0, "r0_cross_check": result.r0_cross_check,
                         "lambda0": result.lambda0},
            "r0_err": r0_err,
        }

    def check(self, observed: dict, expected: dict) -> None:
        values = [observed["r0"]]
        if observed["r0_cross_check"] is not None:
            values.append(observed["r0_cross_check"])
        want = self.closed_form if self.closed_form is not None else expected["r0"]
        for got in values:
            if got is None or not abs(got - want) <= R0_TOL:
                raise ItemError(f"r0 {got!r} is not within {R0_TOL} of {want!r}")


class SweepItem:
    """One oracle sweep of ORACLE_POINTS points through runner.run_sweep.

    Each point is one operation; a point fails when its prediction and
    observation disagree.
    """

    ops = ORACLE_POINTS

    def __init__(self, name, kind, seed, timed):
        from sqip import runner
        self.name = name
        self.timed = timed
        self.spec = runner.SweepSpec(kind=kind, points=ORACLE_POINTS, seed=seed)

    def run(self, out_dir: Path) -> dict:
        from sqip import runner
        # run_sweep resumes from a journal; start every pass from nothing.
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        csv_path = runner.run_sweep(self.spec, out_dir)
        t1 = time.perf_counter()
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()[1:]
        agree = sum(line.rsplit(",", 1)[1] == "true" for line in lines)
        return {
            "seconds": t1 - t0,
            "counts": {"points": len(lines), "agree": agree},
            "observed": {"points": len(lines), "agree": agree},
        }

    def check(self, observed: dict, expected: dict) -> None:
        if observed["points"] != ORACLE_POINTS or observed["agree"] != ORACLE_POINTS:
            raise ItemError(f"{observed['agree']} of {observed['points']} points "
                            f"agree, expected {ORACLE_POINTS} of {ORACLE_POINTS}")


def build_items(workload: str, seed: int) -> list:
    """The workload's items, with their configurations resolved."""
    if workload == "imex-1d":
        return [ImexItem(n, p, o, two_dim=False) for n, p, o in IMEX_1D]
    if workload == "imex-2d":
        return [ImexItem(n, p, o, two_dim=True) for n, p, o in IMEX_2D]
    if workload == "spectral":
        return [SpectralItem(n, p, o) for n, p, o in SPECTRAL]
    if workload == "oracle":
        # The reference sweeps are timed. The benchmark seed picks a fresh
        # sample (seeds s and s+1, as the CLI does) that is run and checked
        # once but kept out of wall_s: its cost is set by its slowest point
        # and varies about threefold between seeds.
        s = ORACLE_REFERENCE_SEED + 2 + 2 * seed
        return [
            SweepItem("ref-si", "ode-si", ORACLE_REFERENCE_SEED, timed=True),
            SweepItem("ref-sis", "ode-sis", ORACLE_REFERENCE_SEED + 1, timed=True),
            SweepItem("seeded-si", "ode-si", s, timed=False),
            SweepItem("seeded-sis", "ode-sis", s + 1, timed=False),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy ship."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[pkg.__name__] = getter()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# Calibration kernel per workload: (field shape, iterations, seconds of
# its fastest repeat on the machine the benchmark was defined on, a
# 2-core x86-64 sandbox with Python 3.11, numpy 2.4 and scipy 1.17).
CALIBRATION = {"imex-2d": ((48, 48), 600, 0.0348)}
DEFAULT_CALIBRATION = ((128, 1), 2000, 0.0313)


class Calibration:
    """A fixed kernel of elementwise operations, reductions and banded
    solves on fields shaped like the workload's, the mix the workloads
    spend their time in, built from numpy and scipy alone.

    Other tenants of a shared host slow this process by up to about half,
    in phases from under a second to minutes long. The kernel slows alike,
    so an item's time scaled by the kernel's speed, taken as the median of
    its timings nearest the item (up to two on either side), stays steady
    while both move. ``speed`` is 1 on the reference machine at its
    fastest.
    """

    def __init__(self, workload: str):
        import numpy as np
        from scipy.linalg import cholesky_banded
        shape, self.iterations, self.reference_s = CALIBRATION.get(
            workload, DEFAULT_CALIBRATION)
        ab = np.zeros((2, shape[0]))
        ab[0, 1:] = -1.0
        ab[1, :] = 3.0
        self.factor = cholesky_banded(ab)
        self.a = np.linspace(0.1, 1.0, shape[0] * shape[1]).reshape(shape)
        self.b = self.a[::-1].copy()

    def seconds(self) -> float:
        from scipy.linalg import cho_solve_banded
        t0 = time.perf_counter()
        x = self.a
        for _ in range(self.iterations):
            y = x * self.b + self.a
            float(y.max())
            float(y.min())
            x = cho_solve_banded((self.factor, False), y)
        return time.perf_counter() - t0


def run_passes(workload, items, expected, tracer, min_passes, seconds) -> list:
    """Run passes over the items until both limits are met, timing the
    calibration kernel before the first item and after every item.
    Untimed items run in the first pass only, unless tracing: traced
    passes must repeat the same work for their counts to compare."""
    work_dir = OUT_DIR / "work" / f"{workload}-{'traced' if tracer else 'plain'}"
    shutil.rmtree(work_dir, ignore_errors=True)
    for item in items:
        (work_dir / item.name).mkdir(parents=True)
    calibration = Calibration(workload)
    passes = []
    begin = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - begin < seconds:
        k = len(passes)
        records = []
        marks = [calibration.seconds()]
        for item in items if k == 0 or tracer else [i for i in items if i.timed]:
            if tracer is not None:
                tracer.set_scope(f"pass{k}/{item.name}")
            try:
                rec = item.run(work_dir / item.name)
                rec["failure"] = None
                item.check(rec["observed"], expected.get(item.name, {}))
            except ItemError as exc:
                rec["failure"] = str(exc)
            except Exception as exc:  # the program raised: a failed operation
                rec = {"seconds": None, "counts": {}, "observed": {},
                       "failure": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback.format_exc()}
            rec["name"] = item.name
            rec["timed"] = item.timed
            rec["ops"] = item.ops
            rec["failed"] = 0
            if rec["failure"] is not None:
                # A sweep that ran loses only its disagreeing points.
                rec["failed"] = max(item.ops - rec["observed"].get("agree", 0), 1)
            marks.append(calibration.seconds())
            records.append(rec)
        if tracer is not None:
            tracer.set_scope("harness")
        for i, rec in enumerate(records):
            nearest = marks[max(i - 1, 0):i + 3]
            rec["speed"] = calibration.reference_s / statistics.median(nearest)
        passes.append({"items": records, "calibration_s": marks})
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    import sqip  # noqa: F401  (set-up cost: the package and its imports)
    if tracer is not None:
        tracer.install()
    items = build_items(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    expected = json.loads(EXPECTED_PATH.read_text())[args.workload]
    passes = run_passes(args.workload, items, expected, tracer,
                        args.min_passes, args.seconds)
    result = {
        "workload": args.workload,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        result["scopes"] = tracer.by_scope()
        result["absent"] = tracer.absent
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
