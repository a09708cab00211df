"""Scenario and sweep execution with flat-file artifacts.

Every run writes the diagnostics CSV, any requested state snapshots, and
a self-describing key=value summary that includes the full resolved
configuration. Output is deterministic: rerunning a preset reproduces
its CSV byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import diagnostics, ode, solver, spectral
from .config import ScenarioConfig
from .errors import ConfigError, NumericsError, SqipError
from .grid import Domain1D
from .presets import preset_config
from .solver import Trajectory

ODE_SWEEP_HEADER = "p,q,beta,gamma_or_mu,N_or_I0,S0,predicted,observed,agree"

# Observation threshold of the oracle sweeps (terminal matching scale).
MATCH_TOL = 1e-3
# Time limit of the oracle sweeps' batch integration.
SWEEP_T_MAX = 600.0


@dataclass
class RunResult:
    config: ScenarioConfig
    trajectory: Trajectory
    outcome: diagnostics.OutcomeReport
    spectral: spectral.SpectralResult | None
    summary: str


def _spectral_applicable(config: ScenarioConfig) -> bool:
    """The linearized threshold theory covers the conserved-mass case
    with an incidence linear in the infected density."""
    model = config.model
    return model.mu.upper == 0 and model.incidence.core_exponents[1] == 1.0


def compute_spectral(config: ScenarioConfig) -> spectral.SpectralResult:
    problem = spectral.LinearizedProblem.from_model(
        config.model, config.domain, config.total_mass(),
        omega=config.omega)
    return spectral.r0(problem)


def _format_summary(result_lines: list[str], config: ScenarioConfig) -> str:
    lines = list(result_lines)
    lines.append("[defaults]")
    lines.extend(config.defaults_table())
    return "\n".join(lines) + "\n"


def summarize(config: ScenarioConfig, traj: Trajectory,
              outcome: diagnostics.OutcomeReport,
              spec_result: spectral.SpectralResult | None) -> str:
    regime = config.model.regime()
    mass0 = float(traj.mass[0])
    mass_end = float(traj.mass[-1])
    lines = [
        f"name={config.name}",
        f"preset={config.preset or 'none'}",
        f"regime={regime.label}",
        f"bounds_theorem_applicable={str(regime.bounds_theorem_applicable).lower()}",
        f"dissipativity_assured={str(regime.dissipativity_assured).lower()}",
    ]
    lines.extend(outcome.summary_lines())
    lines.extend([
        f"M_inf_monitor={traj.sup_monitor:.10g}",
        f"N_inf_tail_monitor={traj.tail_sup_monitor():.10g}",
        f"mass_initial={mass0:.12g}",
        f"mass_final={mass_end:.12g}",
        f"mass_drift_rel={(mass_end - mass0) / mass0 if mass0 else 0.0:.3e}",
        f"min_S_overall={traj.floor_S:.6g}",
        f"min_I_overall={traj.floor_I:.6g}",
        f"steps_accepted={traj.steps_accepted}",
        f"steps_rejected={traj.steps_rejected}",
        f"flags={','.join(traj.flags) or 'none'}",
    ])
    if spec_result is not None:
        lines.extend(spec_result.summary_lines())
        lines.append("[stats]")
        lines.extend(spec_result.stats_lines())
    if traj.assumptions is not None:
        lines.append("[assumptions]")
        lines.extend(traj.assumptions.lines())
    return _format_summary(lines, config)


def write_snapshot(path, domain, state) -> None:
    """Plain-text state dump: header with t, one row per grid node."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# t = {state.t:.12g}\n")
        if isinstance(domain, Domain1D):
            fh.write("# columns: x S I\n")
            for x, s, i in zip(domain.cell_centers(), state.S, state.I):
                fh.write(f"{x:.12g} {s:.17g} {i:.17g}\n")
        else:
            fh.write("# columns: x y S I\n")
            xs, ys = domain.cell_centers()
            for ix, x in enumerate(xs):
                for iy, y in enumerate(ys):
                    fh.write(f"{x:.12g} {y:.12g} "
                             f"{state.S[ix, iy]:.17g} {state.I[ix, iy]:.17g}\n")


def _snapshot_filename(t: float) -> str:
    return "snapshot_t" + re.sub(r"[^0-9A-Za-z.+-]", "_", f"{t:.6g}") + ".txt"


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunResult:
    """Run one scenario end to end and emit its artifacts.

    Returns the classified outcome along with the trajectory; when the
    conserved-mass linear-incidence theory applies, the spectral
    threshold quantities are computed and reported too.
    """
    traj = solver.run(config)
    outcome = diagnostics.classify_longtime(traj, config.detect,
                                            omega=config.omega)
    spec_result = compute_spectral(config) if _spectral_applicable(config) else None
    summary = summarize(config, traj, outcome, spec_result)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        diagnostics.write_csv(os.path.join(out_dir, "diagnostics.csv"), traj.rows)
        for t, state in sorted(traj.snapshots.items()):
            write_snapshot(os.path.join(out_dir, _snapshot_filename(t)),
                           config.domain, state)
        with open(os.path.join(out_dir, "summary.txt"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(summary)
    return RunResult(config, traj, outcome, spec_result, summary)


# --------------------------------------------------------------------------
# Oracle sweeps over the zero-diffusion systems
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.10g}"


class _DrawBudget:
    """Guard on rejection sampling so a bad filter fails loudly."""

    def __init__(self, quota: int, per_point: int = 10_000):
        self.left = quota * per_point

    def tick(self) -> None:
        self.left -= 1
        if self.left <= 0:
            raise NumericsError("sweep sampling filter rejected every draw")


def si_sweep_rows(count: int = 100, seed: int = 20240501) -> list[dict]:
    """Prediction/observation table for the mortality-driven system.

    Points are drawn inside the decidable interior of each classified
    regime: 5 percent bands around both balance equalities are excluded,
    and regimes with provable positive limits are sampled only where the
    comparison bounds put the limit above 0.05, so a finite integration
    can confirm or refute every prediction.
    """
    rng = np.random.default_rng(seed)
    quotas = {
        "hit-zero": round(0.35 * count),
        "both-zero-sublinear": round(0.20 * count),
        "positive-limit-lowq": round(0.10 * count),
        "balance-equality": round(0.15 * count),
    }
    quotas["positive-limit-superlinear"] = count - sum(quotas.values())

    points: list[dict] = []

    def draw_base():
        return dict(
            beta=float(rng.uniform(0.3, 2.0)),
            mu=float(rng.uniform(0.3, 2.0)),
            S0=float(rng.uniform(0.4, 2.0)),
            I0=float(rng.uniform(0.4, 2.0)),
        )

    def balance(d):
        lhs = d["mu"] * d["p"] * d["S0"] ** (1 - d["q"])
        rhs = (1 - d["q"]) * d["beta"] * d["I0"] ** d["p"]
        return lhs, rhs

    budget = _DrawBudget(count)
    while len(points) < quotas["hit-zero"]:
        budget.tick()
        d = draw_base()
        d["q"] = float(rng.uniform(0.2, 0.8))
        d["p"] = float(rng.uniform(0.4, 1.8))
        lhs, rhs = balance(d)
        if lhs < 0.95 * rhs:
            points.append(d)

    made = 0
    while made < quotas["both-zero-sublinear"]:
        budget.tick()
        d = draw_base()
        d["q"] = float(rng.uniform(0.2, 0.7))
        # Keep q/(1-p) < 1 so the susceptible depletion finishes in
        # finite time and the observation is cheap.
        d["p"] = float(rng.uniform(0.2, min(0.75, 0.92 - d["q"])))
        lhs, rhs = balance(d)
        if lhs > 1.05 * rhs:
            points.append(d)
            made += 1

    made = 0
    while made < quotas["positive-limit-lowq"]:
        budget.tick()
        d = draw_base()
        d["q"] = float(rng.uniform(0.2, 0.8))
        d["p"] = float(rng.uniform(1.15, 2.2))
        lhs, rhs = balance(d)
        decay = d["mu"] - d["beta"] * d["S0"] ** d["q"] * d["I0"] ** (d["p"] - 1)
        if decay <= 0:
            continue
        margin = d["p"] * d["S0"] ** (1 - d["q"]) * decay
        if margin <= 1.05 * rhs:
            continue
        floor_pow = d["S0"] ** (1 - d["q"]) - rhs / (d["p"] * decay)
        if floor_pow > 0 and floor_pow ** (1 / (1 - d["q"])) >= 0.05:
            points.append(d)
            made += 1

    for _ in range(quotas["balance-equality"]):
        d = draw_base()
        d["q"] = float(rng.uniform(0.25, 0.75))
        d["p"] = float(rng.uniform(0.4, 1.6))
        # Construct I0 on the balance manifold exactly (to rounding).
        d["I0"] = (d["mu"] * d["p"] * d["S0"] ** (1 - d["q"])
                   / ((1 - d["q"]) * d["beta"])) ** (1 / d["p"])
        points.append(d)

    made = 0
    while made < quotas["positive-limit-superlinear"]:
        budget.tick()
        d = draw_base()
        d["q"] = float(rng.uniform(1.15, 2.2))
        d["p"] = float(rng.uniform(1.15, 2.2))
        decay = d["mu"] - d["beta"] * d["S0"] ** d["q"] * d["I0"] ** (d["p"] - 1)
        if decay < 0.2:
            continue
        floor_pow = (d["S0"] ** (1 - d["q"])
                     + (d["q"] - 1) * d["beta"] * d["I0"] ** d["p"]
                     / (d["p"] * decay))
        if floor_pow ** (1 / (1 - d["q"])) >= 0.05:
            points.append(d)
            made += 1

    params = {key: np.array([pt[key] for pt in points])
              for key in ("beta", "mu", "p", "q", "S0", "I0")}
    y0 = np.column_stack([params["S0"], params["I0"]])
    report = ode.settle_batch("si", params, y0, t_max=SWEEP_T_MAX)

    rows = []
    for i, pt in enumerate(points):
        predicted = ode.si_classify(ode.SiOdeParams(
            beta=pt["beta"], mu=pt["mu"], p=pt["p"], q=pt["q"],
            S0=pt["S0"], I0=pt["I0"]))
        term_S, term_I = report.y[i]
        clamp = report.clamp_time[i]
        if not report.converged[i]:
            observed = "Unconverged"
        elif not math.isnan(clamp) and term_I <= MATCH_TOL:
            observed = ode.S_HITS_ZERO
        elif term_S <= MATCH_TOL and term_I <= MATCH_TOL:
            observed = ode.BOTH_TO_ZERO
        elif term_S > MATCH_TOL and term_I <= MATCH_TOL:
            observed = ode.S_POSITIVE_LIMIT
        else:
            observed = "NoLimit"

        if predicted.kind == ode.S_HITS_ZERO:
            agree = (observed == ode.S_HITS_ZERO
                     and clamp <= predicted.t_upper + 0.05)
        elif predicted.kind == ode.BOTH_TO_ZERO:
            agree = observed in (ode.BOTH_TO_ZERO, ode.S_HITS_ZERO)
        else:
            agree = observed == predicted.kind
        rows.append({
            "p": pt["p"], "q": pt["q"], "beta": pt["beta"],
            "gamma_or_mu": pt["mu"], "N_or_I0": pt["I0"], "S0": pt["S0"],
            "predicted": predicted.kind, "observed": observed,
            "agree": bool(agree),
        })
    return rows


def sis_sweep_rows(count: int = 100, seed: int = 20240502) -> list[dict]:
    """Prediction/observation table for the conserved-mass system.

    The recovery rate of each point is manufactured from a target
    interior root, which keeps every steady state well inside (0, N);
    5 percent bands exclude the fold threshold and the basin boundary.
    """
    rng = np.random.default_rng(seed)
    quotas = {
        "bistable": round(0.40 * count),
        "fold-above": round(0.15 * count),
        "linear": round(0.25 * count),
    }
    quotas["sublinear"] = count - sum(quotas.values())
    points: list[dict] = []

    def gain(d, S):
        return d["beta"] * S ** d["q"] * (d["N"] - S) ** (d["p"] - 1)

    budget = _DrawBudget(count)
    made = 0
    while made < quotas["bistable"]:
        budget.tick()
        d = dict(beta=float(rng.uniform(0.5, 2.0)),
                 N=float(rng.uniform(0.8, 2.0)),
                 p=float(rng.uniform(1.3, 2.5)),
                 q=float(rng.uniform(0.5, 2.0)))
        peak = d["q"] * d["N"] / (d["p"] - 1 + d["q"])
        target = float(rng.uniform(0.15, 0.8)) * peak
        d["gamma"] = gain(d, target)
        fold = d["beta"] * ode.n_star(d["p"], d["q"], d["N"])
        if not d["gamma"] < 0.95 * fold:
            continue
        states = ode.sis_steady_states(ode.SisOdeParams(**d, S0=0.5 * d["N"]))
        upper = states.interior[1].S
        if made % 2 == 0:
            S0 = float(rng.uniform(0.02 * d["N"], 0.93 * upper))
            if abs(S0 - upper) < 0.05 * upper:
                continue
        else:
            lo = min(1.07 * upper, 0.98 * d["N"])
            if lo >= 0.98 * d["N"]:
                continue
            S0 = float(rng.uniform(lo, 0.98 * d["N"]))
        d["S0"] = S0
        points.append(d)
        made += 1

    made = 0
    while made < quotas["fold-above"]:
        d = dict(beta=float(rng.uniform(0.5, 2.0)),
                 N=float(rng.uniform(0.8, 2.0)),
                 p=float(rng.uniform(1.3, 2.5)),
                 q=float(rng.uniform(0.5, 2.0)))
        fold = d["beta"] * ode.n_star(d["p"], d["q"], d["N"])
        d["gamma"] = fold * float(rng.uniform(1.1, 2.0))
        d["S0"] = float(rng.uniform(0.05, 0.95)) * d["N"]
        points.append(d)
        made += 1

    made = 0
    while made < quotas["linear"]:
        d = dict(beta=float(rng.uniform(0.5, 2.0)),
                 N=float(rng.uniform(0.8, 2.0)),
                 p=1.0,
                 q=float(rng.uniform(0.5, 2.0)))
        scale = d["beta"] * d["N"] ** d["q"]
        u = float(rng.uniform(0.2, 0.9)) if made % 2 == 0 \
            else float(rng.uniform(1.1, 1.8))
        d["gamma"] = u * scale
        d["S0"] = float(rng.uniform(0.05, 0.95)) * d["N"]
        points.append(d)
        made += 1

    made = 0
    while made < quotas["sublinear"]:
        d = dict(beta=float(rng.uniform(0.5, 2.0)),
                 N=float(rng.uniform(0.8, 2.0)),
                 p=float(rng.uniform(0.3, 0.85)),
                 q=float(rng.uniform(0.5, 2.0)))
        target = float(rng.uniform(0.15, 0.85)) * d["N"]
        d["gamma"] = gain(d, target)
        d["S0"] = float(rng.uniform(0.05, 0.95)) * d["N"]
        points.append(d)
        made += 1

    params = {key: np.array([pt[key] for pt in points])
              for key in ("beta", "gamma", "p", "q", "N", "S0")}
    y0 = np.column_stack([params["S0"], params["N"] - params["S0"]])
    report = ode.settle_batch("sis", params, y0, t_max=SWEEP_T_MAX)

    rows = []
    for i, pt in enumerate(points):
        sis_params = ode.SisOdeParams(beta=pt["beta"], gamma=pt["gamma"],
                                      p=pt["p"], q=pt["q"], N=pt["N"],
                                      S0=pt["S0"])
        predicted = ode.sis_classify(sis_params)
        term_S = float(report.y[i, 0])
        agree = (bool(report.converged[i])
                 and abs(term_S - predicted.limit_S) <= MATCH_TOL)
        rows.append({
            "p": pt["p"], "q": pt["q"], "beta": pt["beta"],
            "gamma_or_mu": pt["gamma"], "N_or_I0": pt["N"], "S0": pt["S0"],
            "predicted": _fmt(predicted.limit_S),
            "observed": _fmt(term_S) if report.converged[i] else "Unconverged",
            "agree": bool(agree),
        })
    return rows


def ode_sweep_csv(rows: list[dict]) -> str:
    lines = [ODE_SWEEP_HEADER]
    for row in rows:
        lines.append(",".join([
            _fmt(row["p"]), _fmt(row["q"]), _fmt(row["beta"]),
            _fmt(row["gamma_or_mu"]), _fmt(row["N_or_I0"]), _fmt(row["S0"]),
            str(row["predicted"]), str(row["observed"]),
            "true" if row["agree"] else "false",
        ]))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Generic sweep runner with a completed-row manifest
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    kind: str                       # "ode-si" | "ode-sis" | "pde"
    base: str | None = None         # preset name (pde)
    points: int = 100               # sample count (ode kinds)
    seed: int = 0
    axes: tuple[tuple[str, tuple[str, ...]], ...] = ()


def parse_sweep(text: str) -> SweepSpec:
    """Parse a [sweep] section: kind, base, points, seed, vary.* axes."""
    section = None
    kind = None
    base = None
    points = 100
    seed = 0
    axes: list[tuple[str, tuple[str, ...]]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[sweep]":
            section = "sweep"
            continue
        if line.startswith("["):
            raise ConfigError(f"unexpected section {line}", lineno)
        if section != "sweep":
            raise ConfigError("sweep files start with [sweep]", lineno)
        if "=" not in line:
            raise ConfigError(f"cannot parse line {rawline!r}", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "kind":
            if value not in ("ode-si", "ode-sis", "pde"):
                raise ConfigError(f"unknown sweep kind {value!r}", lineno)
            kind = value
        elif key == "base":
            base = value
        elif key == "points":
            points = int(value)
        elif key == "seed":
            seed = int(value)
        elif key.startswith("vary."):
            axes.append((key[5:], tuple(value.split())))
        else:
            raise ConfigError(f"unknown sweep key {key!r}", lineno)
    if kind is None:
        raise ConfigError("sweep file must set kind")
    if kind == "pde" and base is None:
        raise ConfigError("pde sweeps need base = <preset>")
    return SweepSpec(kind=kind, base=base, points=points, seed=seed,
                     axes=tuple(axes))


def _pde_sweep_points(spec: SweepSpec) -> list[dict[str, str]]:
    combos: list[dict[str, str]] = [{}]
    for key, values in spec.axes:
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    return combos if spec.axes else []


def _pde_row(spec: SweepSpec, overrides: dict[str, str]) -> dict:
    try:
        config = preset_config(spec.base, overrides)
        result = run_scenario(config)
        return {
            "outcome": result.outcome.label,
            "value": "" if result.outcome.s_star is None
                     else _fmt(result.outcome.s_star),
            "error": "",
        }
    except SqipError as exc:  # recorded in-row, the sweep never aborts
        return {"outcome": "", "value": "", "error": f"{type(exc).__name__}: {exc}"}


def _read_journal(part_path) -> dict[int, str]:
    """Rows journaled so far, by index.

    A final line without its newline was torn by an interrupted write: it
    is cut from the file, so the next append starts on a fresh line, and
    its row is recomputed. Any other unreadable line is a ConfigError.
    """
    if not os.path.exists(part_path):
        return {}
    with open(part_path, "rb+") as fh:
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            fh.truncate(complete)
    done: dict[int, str] = {}
    text = data[:complete].decode("utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                rec = json.loads(line)
                done[int(rec["index"])] = rec["line"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(
                    f"unreadable sweep journal {part_path}: {exc}", lineno
                ) from exc
    return done


def failed_rows(csv_path) -> int:
    """Rows of a results.csv whose error column is set (``pde`` sweeps;
    the ``ode-*`` tables have no error column)."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    names = header.split(",")
    if names[-1] != "error":
        return 0
    # Only the error text, the last column, may itself hold commas.
    before = len(names) - 1
    return sum(1 for row in rows if row.split(",", before)[before])


def run_sweep(spec: SweepSpec, out_dir) -> str:
    """Execute a sweep and write results.csv.

    A ``pde`` sweep journals each finished row to rows.part as a JSON
    line; rerunning it with the same output directory recomputes only
    the rows missing from the journal (a torn last line included). A
    row whose scenario raises a package error records it in its error
    column; any other exception aborts the sweep. The ``ode-*`` kinds
    integrate all points in one batch, so they keep no journal and are
    recomputed in full. Either way results.csv is written in
    deterministic row order via an atomic rename.
    """
    os.makedirs(out_dir, exist_ok=True)
    if spec.kind == "pde":
        part_path = os.path.join(out_dir, "rows.part")
        done = _read_journal(part_path)
        combos = _pde_sweep_points(spec)
        axis_names = [key for key, _ in spec.axes]
        with open(part_path, "a", encoding="utf-8") as part:
            for i, combo in enumerate(combos):
                if i in done:
                    continue
                row = _pde_row(spec, combo)
                line = ",".join([combo[a] for a in axis_names]
                                + [row["outcome"], row["value"], row["error"]])
                part.write(json.dumps({"index": i, "line": line}) + "\n")
                part.flush()
                done[i] = line
        header = ",".join(axis_names + ["outcome", "value", "error"])
        text = "\n".join([header] + [done[i] for i in range(len(combos))]) + "\n"
    else:
        maker = si_sweep_rows if spec.kind == "ode-si" else sis_sweep_rows
        text = ode_sweep_csv(maker(
            count=spec.points,
            seed=spec.seed or (20240501 if spec.kind == "ode-si" else 20240502)))

    csv_path = os.path.join(out_dir, "results.csv")
    tmp_path = csv_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp_path, csv_path)
    return csv_path
