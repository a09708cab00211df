"""sqip benchmark: four workloads, timed end to end and traced per layer.

    python3 bench/run.py                       # all four workloads, tracing off
    python3 bench/run.py --workload imex-1d --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload spectral --trace 1

Workloads (inputs are built here and handed to sqip's public API):

- ``imex-1d``: the six PDE presets in 1D plus ``reject-q0.3``, each through
  solver.run, classify_longtime, write_csv and write_snapshot. Small grids,
  so per-call overhead dominates; the only load on reject-and-halve.
- ``imex-2d``: four presets on the 48 x 48 grid along the same path.
  Arithmetic- and copy-bound; transpose-free axis sweeps show only here.
- ``spectral``: runner.compute_spectral on an autonomous, a flat periodic
  and a heterogeneous problem. Bound by period maps and power iterations.
- ``oracle``: runner.run_sweep on an ode-si and an ode-sis spec of 100
  points each; the only load on the ``ode`` RK4 batch loop.

Each workload runs in fresh worker processes (``worker.py``), one at a
time, with the BLAS and OpenMP thread counts pinned to 1, the
single-threaded baseline.

With ``--trace 0`` a worker runs passes over the workload's items for
``--seconds`` (at least three passes) and these metrics are printed:

- ``setup_s``: a fresh process importing sqip and resolving the workload's
  configurations; median of several fresh processes.
- ``wall_s``: one pass over the timed items, each item at its median over
  the passes.
- ``steps_per_s``: on imex-*, accepted steps per second of solver.run
  time. Spectral and oracle expose no step count without hooks, so there
  it is operations per second: R0 problems, or oracle points.
- ``peak_rss_mb``: peak resident memory of the worker.

The three timings are reported at reference speed: every measured time is
multiplied by the speed of a fixed calibration kernel timed around it
(``worker.Calibration``), which is 1 on the machine where the benchmark
was defined. A shared host slows everything by up to half for
minutes at a time; the scaled figures stay steady while the raw ones move.
The measured figures are printed beside them and kept in the report.
``fail_frac`` (failed / attempted operations: one scenario, one R0
problem or one oracle point) is printed too; it is 0 when all is well, so
it is gated through the JSON's ``correct``/``failed`` fields instead.

With ``--trace 1`` two untraced and two traced passes (hooks from
``spans.py``) give the per-layer metrics, their times at reference speed,
and the tracing overhead; every count must match across passes and
between traced and untraced.
Reports go to ``bench/out/``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("imex-1d", "imex-2d", "spectral", "oracle")
IMEX = ("imex-1d", "imex-2d")
SETUP_PROBES = 5
MIN_PASSES = 3
TRACED_PASSES = 2
THREADS = "1"
# Every run of one workload must end well inside three minutes.
RUN_LIMIT_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def run_worker(workload: str, deadline: float, *extra: str):
    """Start a fresh worker; return (seconds until ready, its JSON or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed "
                         f"(exit {proc.returncode}): {' '.join(extra)}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def _ops_tally(passes) -> tuple[int, int]:
    attempted = sum(r["ops"] for p in passes for r in p["items"])
    failed = sum(r["failed"] for p in passes for r in p["items"])
    return attempted, failed


def _count_mismatches(passes, reference) -> list[str]:
    """Items whose hook-free counts differ from the reference pass."""
    ref = {r["name"]: r["counts"] for r in reference["items"]}
    return [f"pass {k} {r['name']}: {r['counts']} != {ref[r['name']]}"
            for k, p in enumerate(passes) for r in p["items"]
            if r["counts"] != ref[r["name"]]]


def _item_table(passes) -> dict[str, list]:
    """Item name -> its records that ran to the end (timed, counted)."""
    table: dict[str, list] = {}
    for p in passes:
        for r in p["items"]:
            runs = table.setdefault(r["name"], [])
            if r["seconds"] is not None:
                runs.append(r)
    return table


def pass_times(workload: str, passes) -> tuple[dict, dict]:
    """(wall_s, steps_per_s) of one pass, each timed item at its median
    over the repeats: at reference speed (scaled by the calibration kernel
    timed around the item; see worker.Calibration), and as measured."""
    timed = [recs for recs in _item_table(passes).values()
             if recs and recs[0]["timed"]]
    if not timed:
        raise BenchError(f"no timed item of {workload} ran to the end")
    if workload in IMEX:
        work = sum(recs[0]["counts"]["steps_accepted"] for recs in timed)
        field = "run_s"
    else:
        # No step count is visible without hooks: operations per second.
        work = sum(recs[0]["ops"] for recs in timed)
        field = "seconds"

    def seconds(key, scaled):
        return sum(statistics.median(r[key] * (r["speed"] if scaled else 1.0)
                                     for r in recs) for recs in timed)

    at_ref, measured = ({"wall_s": seconds("seconds", scaled),
                         "steps_per_s": work / seconds(field, scaled)}
                        for scaled in (True, False))
    return at_ref, measured


def breakdown_lines(workload: str, passes, scopes=None) -> list[str]:
    """Per item, as measured (median over repeats): us per step, seconds
    and period maps, or seconds and batch steps (the last two from the
    traced scopes when given)."""
    lines = []
    for name, recs in _item_table(passes).items():
        if not recs:
            lines.append(f"  {name:20s} no complete run")
            continue
        sec = statistics.median(r["seconds"] for r in recs)
        counts = recs[0]["counts"]
        obs = recs[0]["observed"]
        mark = "" if recs[0]["timed"] else "  (untimed)"
        if workload in IMEX:
            acc = counts.get("steps_accepted", 0)
            run_s = statistics.median(r["run_s"] for r in recs)
            us = run_s / acc * 1e6 if acc else float("nan")
            lines.append(f"  {name:20s} {us:8.1f} us/step  {acc:6d} accepted "
                         f"{counts.get('steps_rejected', 0):4d} rejected  "
                         f"{sec:7.3f} s  {obs.get('outcome')}")
        elif workload == "spectral":
            extra = ""
            if scopes:
                agg = scopes.get(f"pass0/{name}", {}).get("spans", {})
                for span, label in (("solver.advance", "period maps"),
                                    ("spectral.eigenvalue", "R0 evals")):
                    if span in agg:
                        extra += f"  {agg[span]['calls']:4d} {label}"
            lines.append(f"  {name:20s} {sec:7.3f} s  r0={obs.get('r0')!r}{extra}")
        else:
            extra = ""
            if scopes:
                steps = scopes.get(f"pass0/{name}", {}).get("counts", {}).get(
                    "ode.batch_steps", 0)
                extra = f"  {steps:6d} batch steps"
            lines.append(f"  {name:20s} {sec:7.3f} s  {counts.get('agree')}/"
                         f"{counts.get('points')} agree{extra}{mark}")
    return lines


def fail_lines(messages) -> list[str]:
    """One line per distinct failure, with how many times it occurred."""
    return [f"FAIL {msg}" + (f"  (x{n})" if n > 1 else "")
            for msg, n in Counter(messages).items()]


def env_line(env: dict) -> str:
    return (f"env: python {env['python']}  numpy {env['numpy']}  scipy "
            f"{env['scipy']}  blas {env['blas']} threads {env['blas_threads']}"
            f"  pinned {env['thread_env']}  nproc {env['nproc']}")


def run_plain(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    from worker import Calibration
    deadline = time.monotonic() + RUN_LIMIT_S
    calibration = Calibration("setup")
    setup, setup_ref = [], []
    for _ in range(SETUP_PROBES):
        before = calibration.seconds()
        ready = run_worker(workload, deadline, "--setup-only")[0]
        speed = calibration.reference_s / (0.5 * (before + calibration.seconds()))
        setup.append(ready)
        setup_ref.append(ready * speed)
    _, res = run_worker(workload, deadline, "--seed", str(seed),
                        "--seconds", str(seconds), "--min-passes", str(MIN_PASSES))
    passes = res["passes"]
    attempted, failed = _ops_tally(passes)
    problems = [r["name"] + ": " + r["failure"]
                for p in passes for r in p["items"] if r["failure"]]
    mismatched = _count_mismatches(passes, passes[0])
    failed += len(mismatched)
    at_ref, measured = pass_times(workload, passes)
    values = {"setup_s": statistics.median(setup_ref), **at_ref,
              "peak_rss_mb": res["peak_rss_mb"]}
    measured["setup_s"] = statistics.median(setup)
    lines = [f"== {workload}: trace 0, seed {seed}, {len(passes)} passes ==",
             env_line(res["env"])]
    for k, v in values.items():
        note = f"  (measured {measured[k]:.6g})" if k in measured else ""
        lines.append(f"  {k:12s} {v:12.6g} {UNITS[k]}{note}")
    lines.append(f"  {'fail_frac':12s} {failed / attempted:12.6g} "
                 f"({failed}/{attempted} operations)")
    lines.append("breakdown (median over repeats, as measured):")
    lines += breakdown_lines(workload, passes)
    lines += fail_lines(problems + mismatched)
    return {"lines": lines, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
            "measured": measured, "env": res["env"], "passes": passes}


def _cross_check(workload: str, layer: dict, plain_pass: dict) -> list[str]:
    """Layer counts that must equal what the untraced pass observed."""
    pairs = {"solver.steps_accepted": "steps_accepted",
             "solver.steps_rejected": "steps_rejected",
             "diagnostics.rows": "rows", "runner.io_bytes": "io_bytes"}
    if workload not in IMEX:
        return []
    out = []
    for metric, key in pairs.items():
        seen = sum(r["counts"].get(key, 0) for r in plain_pass["items"])
        if metric in layer and layer[metric] != seen:
            out.append(f"{metric} traced {layer[metric]} != untraced {seen}")
    return out


def run_traced(workload: str, seed: int) -> dict:
    """Untraced and traced passes: per-layer metrics and overhead."""
    import spans
    deadline = time.monotonic() + RUN_LIMIT_S
    _, plain = run_worker(workload, deadline, "--seed", str(seed),
                          "--min-passes", str(TRACED_PASSES))
    _, traced = run_worker(workload, deadline, "--seed", str(seed),
                           "--min-passes", str(TRACED_PASSES), "--trace")
    scopes = traced["scopes"]
    absent = spans.absent_metrics(traced["absent"])
    per_pass = []
    for k, p in enumerate(traced["passes"]):
        agg = spans.merge([v for s, v in scopes.items()
                           if s.startswith(f"pass{k}/")])
        layer = spans.layer_values(agg, scopes["setup"])
        # Layer times at reference speed too, by the pass's median speed.
        speeds = [r["speed"] for r in p["items"] if r["seconds"] is not None]
        speed = statistics.median(speeds) if speeds else 1.0
        per_pass.append({name: value * speed
                         if spans.LAYER_METRICS[name][0] in ("s", "us") else value
                         for name, value in layer.items()})

    all_passes = plain["passes"] + traced["passes"]
    attempted, failed = _ops_tally(all_passes)
    problems = [r["name"] + ": " + r["failure"]
                for p in all_passes for r in p["items"] if r["failure"]]
    mismatched = _count_mismatches(all_passes, plain["passes"][0])
    for k, layer in enumerate(per_pass):
        for name in spans.COUNT_METRICS:
            if name not in absent and layer[name] != per_pass[0][name]:
                mismatched.append(f"traced pass {k} {name}: {layer[name]} "
                                  f"!= {per_pass[0][name]}")
        mismatched += _cross_check(workload, layer, plain["passes"][0])
    failed += len(mismatched)

    plain_wall = pass_times(workload, plain["passes"])[0]["wall_s"]
    traced_wall = pass_times(workload, traced["passes"])[0]["wall_s"]
    r0_errs = [r["r0_err"] for r in traced["passes"][0]["items"]
               if r.get("r0_err") is not None]

    values = {}
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        if name in absent:
            continue
        if name in spans.COUNT_METRICS:  # identical across passes, checked above
            values[name] = (per_pass[0][name], unit)
        else:
            values[name] = (statistics.median(v[name] for v in per_pass), unit)
    values["spectral.r0_err_max"] = (max(r0_errs, default=0.0), "abs")
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    values["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    values["trace.spans"] = (sum(rec["calls"] for s, v in scopes.items()
                                 if s.startswith("pass0/")
                                 for rec in v["spans"].values()), "count")

    lines = [f"== {workload}: trace 1, seed {seed}, {len(plain['passes'])} "
             f"untraced + {len(traced['passes'])} traced passes ==",
             env_line(traced["env"]),
             f"  wall_s at reference speed: untraced {plain_wall:.6g} s, "
             f"traced {traced_wall:.6g} s"]
    lines += [f"  {k:26s} {v:.6g} {u}" for k, (v, u) in values.items()]
    lines += [f"  {k:26s} absent" for k in absent]
    lines.append(f"  {'fail_frac':26s} {failed / attempted:.6g} "
                 f"({failed}/{attempted} operations)")
    lines.append("breakdown (median over traced repeats, as measured):")
    lines += breakdown_lines(workload, traced["passes"], scopes)
    lines.append(f"spans written to {OUT_DIR / f'spans-{workload}.npz'}")
    lines += fail_lines(problems + mismatched)
    return {"lines": lines, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            "env": traced["env"], "absent": absent}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sqip benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sqip" / "__init__.py").is_file():
        print(f"bench: no sqip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pinned before numpy loads here (calibration) or in any worker.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            if args.trace:
                res = run_traced(workload, args.seed)
            else:
                res = run_plain(workload, args.seed, args.seconds)
            print("\n".join(res["lines"]), flush=True)
            OUT_DIR.mkdir(exist_ok=True)
            report = OUT_DIR / f"report-{workload}-trace{args.trace}.json"
            report.write_text(json.dumps(res, indent=1) + "\n")
            results[workload] = res
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
