"""Paired benchmark runs of two trees: a base revision and a change.

    python3 tools/bench_pair.py --base HEAD~1 --head HEAD --out BENCH_11.json
    python3 tools/bench_pair.py --base main --head HEAD --workload imex-1d

Each side is a committed revision, exported by ``git archive`` into a
fresh directory under a temporary folder, so neither run sees build
leftovers of the other or uncommitted files. For every workload the
runner then alternates ``bench/run.py --workload W --trace 0 --seed i``
between the two trees, at the benchmark's own run length, pair i running
base first when i is even and the change first when it is odd, and keeps
the last JSON line of each run.

The output file holds, per workload and end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles over its successful
runs, the change's wins over all pairs run (ties count for neither side,
a pair in which either run failed is not a win), the median ratio, and a
verdict:

- ``gain``: at least ``MIN_PAIRS`` pairs ran, the change won at least
  nine tenths of them, its median is better than the base's by more than
  the base's interquartile range, and no more of its runs or operations
  failed than the base's;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: neither, and the base's interquartile range is wider
  than the bound, unless every change run beats every base run (then
  ``same``: the spread hides no regression);
- ``same``: otherwise.

It also holds the machine (platform, Python, CPU, load) and every raw run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs than this never give a ``gain`` verdict


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_tree(rev: str, dest: Path) -> str:
    """Write the files of revision ``rev`` to ``dest``; return its commit id."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")
    return _git("rev-parse", rev).decode().strip()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--trace", "0", "--seed", str(seed)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    report = tree / "bench" / "out" / f"report-{workload}-trace0.json"
    measured = (json.loads(report.read_text()).get("measured")
                if report.exists() and result is not None else None)
    return {"started": t0, "exit": proc.returncode, "result": result,
            "measured": measured,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per-metric statistics of one workload's pairs (see module doc)."""
    out = {}
    failures = {side: sum(1 if p[side]["result"] is None
                          else p[side]["result"]["failed"] for p in pairs)
                for side in ("base", "head")}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["result"]["metrics"][name]["value"]
                         if p[side]["result"] else None for p in pairs]
                  for side in ("base", "head")}
        base = [v for v in values["base"] if v is not None]
        head = [v for v in values["head"] if v is not None]
        if not base or not head:
            out[name] = {"verdict": "no-data"}
            continue
        wins = sum(b is not None and h is not None
                   and ((h > b) if higher else (h < b))
                   for b, h in zip(values["base"], values["head"]))
        bq, hq = quartiles(base), quartiles(head)
        spread = bq[2] - bq[0]
        better_by = (hq[1] - bq[1]) if higher else (bq[1] - hq[1])
        worse_by = -better_by / bq[1] if bq[1] else 0.0
        separated = min(head) > max(base) if higher else max(head) < min(base)
        if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
                and better_by > spread
                and failures["head"] <= failures["base"]):
            verdict = "gain"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        elif bq[1] and spread / bq[1] > metric["bound"] and not separated:
            verdict = "unresolved"
        else:
            verdict = "same"
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "pairs": len(pairs),
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
            "head": {"median": hq[1], "q1": hq[0], "q3": hq[2]},
            "ratio": hq[1] / bq[1] if bq[1] else None,
            "head_wins": wins, "verdict": verdict,
        }
    out["failures"] = failures
    out["correct"] = all(p[side]["result"] and p[side]["result"]["correct"]
                         and p[side]["result"]["failed"] == 0
                         for p in pairs for side in ("base", "head"))
    return out


def machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        info["cpu"] = model[0] if model else None
    except OSError:
        info["cpu"] = None
    return info


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="base revision")
    ap.add_argument("--head", default="HEAD", help="changed revision")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    report = {"command": ["python3", "tools/bench_pair.py",
                          *(sys.argv[1:] if argv is None else argv)],
              "machine": machine(), "workloads": {}, "raw": []}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {"base": Path(tmp, "base"), "head": Path(tmp, "head")}
        report["base"] = export_tree(args.base, trees["base"])
        report["head"] = export_tree(args.head, trees["head"])
        for workload in args.workload or names:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed_start + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed)
                    report["raw"].append({"workload": workload, "pair": i,
                                          "seed": seed, "side": side,
                                          **pair[side]})
                    value = pair[side]["result"]
                    shown = (value["metrics"]["steps_per_s"]["value"]
                             if value else "failed")
                    print(f"{workload} pair {i} {side}: steps_per_s {shown}",
                          flush=True)
                pairs.append(pair)
            report["workloads"][workload] = summarize(pairs, spec)
    report["machine"]["loadavg_end"] = os.getloadavg()
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, stats in report["workloads"].items():
        for name, rec in stats.items():
            if isinstance(rec, dict) and "ratio" in rec:
                print(f"{workload:9s} {name:12s} {rec['base']['median']:12.6g} -> "
                      f"{rec['head']['median']:12.6g}  x{rec['ratio']:.3f}  "
                      f"wins {rec['head_wins']}/{rec['pairs']}  {rec['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
