"""Compare the artifacts of two revisions by SHA-256, file by file.

    python3 tools/artifact_digests.py --base HEAD~1 --head HEAD

Each side is a committed revision, exported by ``git archive`` into a
fresh directory under a temporary folder (as ``tools/bench_pair.py``
does). Each tree then runs, with its own ``src`` on the import path:

- ``sqip preset NAME`` for the six PDE presets in 1D;
- the same six with ``--two-dim``: full length for the four presets of
  the benchmark's 2D workload, ``solver.t_end=6`` for ``thm-2.10-i`` and
  ``thm-2.10-ii``;
- ``sqip preset thm-2.11-periodic`` made heterogeneous in space as in
  the benchmark's spectral workload (``model.beta_x_amp=0.9``,
  ``model.dI=1.0``, ``domain.n=64``): the one compared run whose ``R0``
  comes from the root-find, not from a closed form;
- ``sqip preset thm-2.11-persist`` with ``model.beta_x_amp=0.9``: the
  one compared run whose ``R0`` comes from the tridiagonal closed form
  of a time-constant potential that varies in space, so its
  ``summary.txt`` puts that branch's ``[stats]`` lines beside the rest;
- ``sqip preset thm-2.11-periodic`` with ``model.beta_x_amp=0.9``,
  ``model.beta_t_amp=0`` and ``model.gamma_t_amp=0.5``: the one compared
  run whose potential is periodic and separable, u*b(x) - gamma(t), so
  its ``R0`` comes from the same tridiagonal closed form as a
  time-constant one and its ``[stats]`` lines are compared;
- the same heterogeneous run with ``--two-dim`` (``domain.n`` left at the
  2D preset's 48 x 48): its spectral problem is solved on the x axis, so
  this run puts 2D spectral lines beside the 1D artifacts;
- ``sqip preset thm-2.11-periodic`` with ``model.omega=0.5``: the one
  compared run whose period, and so the span of its spectral period
  map, is not 1;
- ``sqip preset thm-2.11-periodic`` with ``solver.periodic_snapshots=2``
  and ``solver.t_end=20``: the one compared run whose period check
  finds too few snapshot pairs one period apart (two) for a verdict, so
  it ends ``Persistent`` with no ``period_residual`` line;
- ``sqip preset thm-2.11-persist`` with ``model.incidence=binomial``
  and ``model.k=0.25``: the one compared run off the power kernel, so
  outside the threshold theory, with no spectral lines in its summary;
- ``sqip preset thm-2.11-periodic`` with ``model.beta_table`` set to a
  5 x 5 table of period 1 written beside the sweep specs (and
  ``model.beta_t_amp=0``): the one compared run whose coefficient is
  interpolated from a table, not a cosine-modulated field;
- ``sqip preset si-finite-extinction``, and the same with ``--two-dim``,
  a flag that preset does not read;
- ``sqip run`` of a config file that holds ``preset = thm-2.11-periodic``,
  with ``--override solver.t_end=20``: the one compared run of a config
  file, not a preset name;
- ``sqip r0`` of a config file that holds ``thm-2.11-persist`` with
  ``beta_x_amp = 0.9`` and ``dI = 0.001``: a time-constant problem that
  cost the power-iteration root-find 196 period maps, whose printed
  ``r0=`` line is compared (``r0`` takes no ``--out``, so its stdout and
  exit code are its only artifacts);
- ``sqip r0`` of a config file that holds ``thm-2.11-persist`` with
  ``beta = 0``: the one compared model without transmission, whose
  ``R0`` is 0 with no root-find;
- ``sqip sweep`` on the reference ``ode-si`` and ``ode-sis`` specs (no
  ``points`` or ``seed``, so each sampler's defaults);
- ``sqip sweep`` on ``ode-si`` and ``ode-sis`` specs with ``points = 200``
  and ``seed = 7`` (``sweep-ode-si-seeded``, ``sweep-ode-sis-seeded``):
  oracle points beyond the two reference draws;
- ``sqip sweep`` on a two-point ``pde`` spec over ``sis-bistable``, whose
  artifacts include the ``rows.part`` journal beside ``results.csv``.

Every run but ``r0`` writes into its own ``--out`` directory. An
artifact is each file there, the run's stdout with that directory's path
masked, and its exit code. The script prints one line per artifact,
``same`` with the digest or ``DIFF`` with both, then a count, and exits 1
when any artifact differs or exists on one side only.

Each ``DIFF`` line of a file or stdout is followed by a unified diff of
the two sides' text (base first), cut after ``DIFF_LINES`` lines; an
artifact that is not UTF-8 text gets one line saying so. This checks a
declared artifact change line by line.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import export_tree

PDE_PRESETS = ("r0-threshold", "sis-bistable", "thm-2.10-i", "thm-2.10-ii",
               "thm-2.11-periodic", "thm-2.11-persist")
# 2D presets left out of the benchmark's 2D workload for their run time.
SHORT_2D = ("thm-2.10-i", "thm-2.10-ii")
# The heterogeneous spectral problem of the benchmark, as a preset run;
# the 2D run keeps the 2D preset's grid.
HET_PERIODIC = ("model.beta_x_amp=0.9", "model.dI=1.0")
HET_PERIODIC_1D = HET_PERIODIC + ("domain.n=64",)
# A periodic potential separable in x and t: b(x)*u - gamma(t).
SEPARABLE = ("model.beta_x_amp=0.9", "model.beta_t_amp=0",
             "model.gamma_t_amp=0.5")
OUT_MASK = "<out>"
# Lines of unified diff printed per differing artifact.
DIFF_LINES = 40
# A beta table of period 1 (header ``omega n_x n_t``): rows sample [0, L],
# columns one period, the last column equal to the first.
BETA_TABLE = """1 5 5
3.0 2.0 1.0 2.0 3.0
2.4 1.6 0.8 1.6 2.4
1.8 1.2 0.6 1.2 1.8
2.4 1.6 0.8 1.6 2.4
3.0 2.0 1.0 2.0 3.0
"""
# The heterogeneous persistence problem at dI = 0.001: slow diffusion,
# where the power-iteration root-find took the most period maps.
SLOW_DIFFUSION = """preset = thm-2.11-persist
[model]
beta_x_amp = 0.9
dI = 0.001
"""
# No transmission: no scale moves lambda0, so R0 is 0 and no root exists.
NO_TRANSMISSION = """preset = thm-2.11-persist
[model]
beta = 0
"""
# Oracle sweep lines off the samplers' reference draws.
SEEDED_ORACLE = "points = 200\nseed = 7\n"
# A two-point sweep over a PDE preset (one journal line per point).
PDE_SWEEP = """[sweep]
kind = pde
base = sis-bistable
vary.initial.S = constant(0.4) constant(0.6)
"""


def commands(spec_dir: Path) -> dict[str, list[str]]:
    """Label -> sqip arguments (without ``--out``) of every compared run."""
    runs = {}
    for name in PDE_PRESETS:
        runs[f"{name}-1d"] = ["preset", name]
        runs[f"{name}-2d"] = ["preset", name, "--two-dim"] + (
            ["--override", "solver.t_end=6"] if name in SHORT_2D else [])
    for label, flags, items in (("het-periodic-1d", [], HET_PERIODIC_1D),
                                ("het-periodic-2d", ["--two-dim"], HET_PERIODIC),
                                ("separable-periodic-1d", [], SEPARABLE)):
        runs[label] = ["preset", "thm-2.11-periodic", *flags] + [
            arg for item in items for arg in ("--override", item)]
    runs["het-persist-1d"] = ["preset", "thm-2.11-persist",
                              "--override", "model.beta_x_amp=0.9"]
    runs["half-period-1d"] = ["preset", "thm-2.11-periodic",
                              "--override", "model.omega=0.5"]
    runs["few-tail-pairs-1d"] = ["preset", "thm-2.11-periodic",
                                 "--override", "solver.periodic_snapshots=2",
                                 "--override", "solver.t_end=20"]
    runs["binomial-1d"] = ["preset", "thm-2.11-persist",
                           "--override", "model.incidence=binomial",
                           "--override", "model.k=0.25"]
    table = spec_dir / "beta-table.txt"
    table.write_text(BETA_TABLE, encoding="utf-8")
    runs["table-periodic-1d"] = ["preset", "thm-2.11-periodic",
                                 "--override", f"model.beta_table={table}",
                                 "--override", "model.beta_t_amp=0"]
    runs["si-finite-extinction"] = ["preset", "si-finite-extinction"]
    runs["si-finite-extinction-2d"] = ["preset", "si-finite-extinction",
                                       "--two-dim"]
    config = spec_dir / "periodic.cfg"
    config.write_text("preset = thm-2.11-periodic\n", encoding="utf-8")
    runs["config-periodic-1d"] = ["run", str(config),
                                  "--override", "solver.t_end=20"]
    config = spec_dir / "slow-diffusion.cfg"
    config.write_text(SLOW_DIFFUSION, encoding="utf-8")
    runs["r0-slow-diffusion-1d"] = ["r0", str(config)]
    config = spec_dir / "no-transmission.cfg"
    config.write_text(NO_TRANSMISSION, encoding="utf-8")
    runs["r0-no-transmission-1d"] = ["r0", str(config)]
    for kind in ("ode-si", "ode-sis"):
        spec = spec_dir / f"{kind}.cfg"
        spec.write_text(f"[sweep]\nkind = {kind}\n", encoding="utf-8")
        runs[f"sweep-{kind}"] = ["sweep", str(spec)]
        spec = spec_dir / f"{kind}-seeded.cfg"
        spec.write_text(f"[sweep]\nkind = {kind}\n{SEEDED_ORACLE}", encoding="utf-8")
        runs[f"sweep-{kind}-seeded"] = ["sweep", str(spec)]
    spec = spec_dir / "pde.cfg"
    spec.write_text(PDE_SWEEP, encoding="utf-8")
    runs["sweep-pde"] = ["sweep", str(spec)]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tree: Path, runs: dict[str, list[str]], out_root: Path) -> dict:
    """Artifact name -> SHA-256 (or exit code) of every run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    found = {}
    for label, args in runs.items():
        out = out_root / label
        out_args = [] if args[0] == "r0" else ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "sqip", *args, *out_args],
                              cwd=tree, env=env, capture_output=True)
        stdout = proc.stdout.replace(str(out).encode(), OUT_MASK.encode())
        found[f"{label}/exit"] = str(proc.returncode)
        found[f"{label}/stdout"] = _sha(stdout)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            found[f"{label}/{path.relative_to(out).as_posix()}"] = _sha(
                path.read_bytes())
        # Kept under its artifact name for the text diff, once listed.
        out.mkdir(parents=True, exist_ok=True)
        (out / "stdout").write_bytes(stdout)
        print(f"{tree.name}: {label} exit {proc.returncode}", file=sys.stderr,
              flush=True)
    return found


def text_diff(name: str, base_root: Path, head_root: Path) -> list[str]:
    """Unified diff lines of artifact ``name`` between two output roots.

    A side without the artifact counts as empty text. At most
    ``DIFF_LINES`` diff lines are kept, then one line counts the rest.
    """
    texts = []
    for root in (base_root, head_root):
        path = root / name
        try:
            texts.append(path.read_text(encoding="utf-8") if path.is_file() else "")
        except UnicodeDecodeError:
            return [f"  {name}: not UTF-8 text, no diff"]
    lines = list(difflib.unified_diff(
        texts[0].splitlines(), texts[1].splitlines(),
        f"base/{name}", f"head/{name}", lineterm=""))
    if len(lines) > DIFF_LINES:
        lines[DIFF_LINES:] = [f"... {len(lines) - DIFF_LINES} more diff lines"]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="base revision")
    ap.add_argument("--head", default="HEAD", help="changed revision")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        tmp = Path(tmp)
        runs = commands(tmp)
        sides = {}
        for side, rev in (("base", args.base), ("head", args.head)):
            commit = export_tree(rev, tmp / side)
            print(f"{side}: {rev} = {commit}")
            sides[side] = digests(tmp / side, runs, tmp / f"out-{side}")

        base, head = sides["base"], sides["head"]
        bad = 0
        for name in sorted(base.keys() | head.keys()):
            b, h = base.get(name, "missing"), head.get(name, "missing")
            if b == h:
                print(f"same {b} {name}")
                continue
            bad += 1
            print(f"DIFF {b} {h} {name}")
            if not name.endswith("/exit"):
                print("\n".join(text_diff(name, tmp / "out-base",
                                          tmp / "out-head")))
    files = sum(not name.endswith("/exit") for name in base.keys() | head.keys())
    print(f"{files} artifacts and {len(runs)} exit codes compared, "
          f"{bad} differ or are missing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
