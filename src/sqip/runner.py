"""Scenario, preset and sweep execution with flat-file artifacts.

A PDE run writes the diagnostics CSV, any requested state snapshots and a
self-describing key=value summary with the full resolved configuration;
the ODE preset writes its summary only. ``diagnostics.write_text`` writes
each file under a temporary name and renames it into place. Output is
deterministic: a rerun reproduces every file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import re
import shlex
from dataclasses import dataclass

import numpy as np

from . import __version__, diagnostics, ode, solver, spectral
from .config import ScenarioConfig, read_input, read_lines
from .errors import ConfigError, NumericsError, SqipError
from .presets import ODE_PRESETS, preset_config, preset_pairs
from .solver import Trajectory

ODE_SWEEP_HEADER = "p,q,beta,gamma_or_mu,N_or_I0,S0,predicted,observed,agree"
# Per-point integration effort of an ode sweep, written beside results.csv.
ODE_STEPS_HEADER = "row,steps_accepted,steps_rejected,t_reached"

# Observation threshold of the oracle sweeps (terminal matching scale).
MATCH_TOL = 1e-3
# Time limit of the oracle sweeps' batch integration.
SWEEP_T_MAX = 600.0


@dataclass
class RunResult:
    trajectory: Trajectory
    outcome: diagnostics.OutcomeReport
    spectral: spectral.SpectralResult | None
    summary: str


def compute_spectral(config: ScenarioConfig) -> spectral.SpectralResult:
    """lambda0 and R0; ``LinearizedProblem`` refuses a model outside the theory."""
    return spectral.r0(spectral.LinearizedProblem(
        config.model, config.domain, config.total_mass() / config.domain.measure))


def spectral_lines(result: spectral.SpectralResult) -> list[str]:
    """The lambda0, r0 and iterations lines of ``summary.txt`` and ``sqip r0``."""
    r0_txt = "none" if result.r0 is None else f"{result.r0:.10g}"
    return [f"lambda0={result.lambda0:.10g}", f"r0={r0_txt}",
            f"iterations={result.iterations}"]


def summarize(config: ScenarioConfig, traj: Trajectory,
              outcome: diagnostics.OutcomeReport,
              spec_result: spectral.SpectralResult | None) -> str:
    """Every line of ``summary.txt``; the spectral lines and ``[stats]``
    only when ``spec_result`` is given."""
    regime = config.model.regime()
    mass0 = float(traj.mass[0])
    mass_end = float(traj.mass[-1])
    lines = [
        f"name={config.name}",
        f"preset={config.preset or 'none'}",
        f"regime={regime.label}",
        f"bounds_theorem_applicable={str(regime.label != 'none').lower()}",
        f"dissipativity_assured={str(regime.dissipativity_assured).lower()}",
        f"outcome={outcome.label}",
    ]
    lines.extend(f"{key}={value:{fmt}}" for key, value, fmt in (
        ("S_star", outcome.s_star, ".10g"),
        ("persistence_floor", outcome.persistence_floor, ".10g"),
        ("period_residual", outcome.period_residual, ".6g"),
        ("reason", outcome.reason or None, "")) if value is not None)
    lines.extend([
        f"evidence_window=[{outcome.window_start:.6g},{outcome.window_end:.6g}]"
        f" samples={outcome.window_samples}",
        f"M_inf_monitor={traj.sup_monitor:.10g}",
        f"N_inf_tail_monitor={outcome.tail_sup:.10g}",
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
        lines.extend(spectral_lines(spec_result) + [
            "[stats]", f"period_maps={spec_result.period_maps}",
            f"r0_evals={spec_result.r0_evals}",
            f"lambda0_lo={spec_result.lambda0_lo:.17g}",
            f"lambda0_hi={spec_result.lambda0_hi:.17g}"])
    lines.append("[assumptions]")
    lines.extend(f"{name}: {item.status}" + (f" ({item.detail})" if item.detail else "")
                 for name, item in traj.assumptions.items())
    lines.append("[defaults]")
    lines.extend(f"{key}={value}" for key, value in config.resolved)
    return "\n".join(lines) + "\n"


def write_snapshot(path, domain, state) -> None:
    """Plain-text state dump: header with t, one row per grid node in C
    order, the node's coordinates first."""
    labels = [[f"{c:.12g} " for c in axis] for axis in domain.cell_centers()]
    lines = [f"# t = {state.t:.12g}\n",
             f"# columns: {' '.join('xy'[:len(labels)])} S I\n"]
    lines.extend(f"{coords}{s:.17g} {i:.17g}\n" for coords, s, i in zip(
        map("".join, itertools.product(*labels)),
        state.S.ravel().tolist(), state.I.ravel().tolist()))
    diagnostics.write_text(path, "".join(lines))


def _snapshot_filename(t: float) -> str:
    return "snapshot_t" + re.sub(r"[^0-9A-Za-z.+-]", "_", f"{t:.6g}") + ".txt"


def _make_out_dir(out_dir) -> None:
    """Create the output directory ``out_dir``, parents included; a path
    that a file blocks is bad input, refused with a ``ConfigError``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: "
                          f"{exc.strerror}") from None


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunResult:
    """Run one scenario end to end and emit its artifacts.

    Returns the classified outcome along with the trajectory; when the
    threshold theory applies (``spectral.theory_gaps`` is empty), the
    spectral threshold quantities are computed and reported too. The
    output directory is made before the run, so a bad one costs no run;
    ``diagnostics.csv`` and the snapshots are written before the spectral
    solve, so a failing one still keeps the run.
    """
    if out_dir is not None:
        _make_out_dir(out_dir)
    traj = solver.run(config)
    if out_dir is not None:
        diagnostics.write_csv(os.path.join(out_dir, "diagnostics.csv"), traj.rows)
        for t, state in sorted(traj.snapshots.items()):
            write_snapshot(os.path.join(out_dir, _snapshot_filename(t)),
                           config.domain, state)
    outcome = diagnostics.classify_longtime(traj, config.detect,
                                            omega=config.omega)
    spec_result = (None if spectral.theory_gaps(config.model)
                   else compute_spectral(config))
    summary = summarize(config, traj, outcome, spec_result)
    if out_dir is not None:
        diagnostics.write_text(os.path.join(out_dir, "summary.txt"), summary)
    return RunResult(traj, outcome, spec_result, summary)


def run_ode_preset(name: str, out_dir) -> str:
    """Run the zero-diffusion preset ``name``: its closed-form prediction
    beside the oracle's state at ``t_end``. Returns the summary text, also
    written to ``out_dir``/summary.txt unless ``out_dir`` is None."""
    if out_dir is not None:
        _make_out_dir(out_dir)
    spec = dict(ODE_PRESETS[name])
    dt, t_end = spec.pop("dt"), spec.pop("t_end")
    params = ode.SiOdeParams(**spec)
    outcome = ode.si_classify(params)
    # t_end <= SETTLE_CHECK_WINDOW: one checkpoint, which lands on t_end
    report = ode.settle_batch([params], dt=dt, t_max=t_end)
    clamp_time, (S, I) = report.clamp_time[0], report.y[0]
    lines = [f"name={name}", "system=si", f"predicted={outcome.kind}"]
    if outcome.t_upper is not None:
        lines.append(f"t_upper={outcome.t_upper:.10g}")
    if not math.isnan(clamp_time):
        lines.append(f"first_clamp_time={clamp_time:.10g}")
    lines.append(f"terminal=({S:.10g},{I:.10g})")
    summary = "\n".join(lines) + "\n"
    if out_dir is not None:
        diagnostics.write_text(os.path.join(out_dir, "summary.txt"), summary)
    return summary


# --------------------------------------------------------------------------
# Oracle sweeps over the zero-diffusion systems
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _draw_points(quotas: dict[str, int], draw) -> list[dict]:
    """Rejection-sample each regime's quota in turn.

    ``draw(regime, made)`` returns a point, or None for a rejected draw.
    Sampling fails loudly after 10,000 draws per requested point.
    """
    budget = 10_000 * sum(quotas.values())
    points: list[dict] = []
    for regime, quota in quotas.items():
        made = 0
        while made < quota:
            budget -= 1
            if budget < 0:
                raise NumericsError("sweep sampling filter rejected every draw",
                                    regime=regime)
            point = draw(regime, made)
            if point is not None:
                points.append(point)
                made += 1
    return points


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

    # (q range, p range) of each regime.
    ranges = {
        "hit-zero": ((0.2, 0.8), (0.4, 1.8)),
        # p < min(0.75, 0.92 - q) keeps q/(1-p) < 1, so the susceptible
        # depletion finishes in finite time and the observation is cheap.
        "both-zero-sublinear": ((0.2, 0.7), None),
        "positive-limit-lowq": ((0.2, 0.8), (1.15, 2.2)),
        "balance-equality": ((0.25, 0.75), (0.4, 1.6)),
        "positive-limit-superlinear": ((1.15, 2.2), (1.15, 2.2)),
    }

    def draw(regime, made):
        d = dict(
            beta=float(rng.uniform(0.3, 2.0)),
            mu=float(rng.uniform(0.3, 2.0)),
            S0=float(rng.uniform(0.4, 2.0)),
            I0=float(rng.uniform(0.4, 2.0)),
        )
        q_range, p_range = ranges[regime]
        q = d["q"] = float(rng.uniform(*q_range))
        p = d["p"] = float(rng.uniform(*(p_range or (0.2, min(0.75, 0.92 - q)))))
        lhs = d["mu"] * p * d["S0"] ** (1 - q)
        if regime == "balance-equality":
            # Construct I0 on the balance manifold exactly (to rounding).
            d["I0"] = (lhs / ((1 - q) * d["beta"])) ** (1 / p)
            return d
        rhs = (1 - q) * d["beta"] * d["I0"] ** p
        if regime == "hit-zero":
            return d if lhs < 0.95 * rhs else None
        if regime == "both-zero-sublinear":
            return d if lhs > 1.05 * rhs else None
        # Positive limits: the comparison bound on the limit must be >= 0.05
        # (for q > 1, rhs < 0 and floor_pow is always positive).
        decay = d["mu"] - d["beta"] * d["S0"] ** q * d["I0"] ** (p - 1)
        if regime == "positive-limit-lowq":
            if decay <= 0 or p * d["S0"] ** (1 - q) * decay <= 1.05 * rhs:
                return None
        elif decay < 0.2:
            return None
        floor_pow = d["S0"] ** (1 - q) - rhs / (p * decay)
        return d if floor_pow > 0 and floor_pow ** (1 / (1 - q)) >= 0.05 else None

    def verdict(params, y, converged, clamp):
        predicted = ode.si_classify(params)
        term_S, term_I = y
        if not converged:
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
        return predicted.kind, observed, agree

    return _oracle_rows("si", _draw_points(quotas, draw), verdict)


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

    def gain(d, S):
        return d["beta"] * S ** d["q"] * (d["N"] - S) ** (d["p"] - 1)

    p_ranges = {"bistable": (1.3, 2.5), "fold-above": (1.3, 2.5),
                "sublinear": (0.3, 0.85)}  # p = 1 for "linear"

    def draw(regime, made):
        d = dict(beta=float(rng.uniform(0.5, 2.0)),
                 N=float(rng.uniform(0.8, 2.0)),
                 p=float(rng.uniform(*p_ranges[regime])) if regime in p_ranges else 1.0,
                 q=float(rng.uniform(0.5, 2.0)))
        if regime == "bistable":
            peak = d["q"] * d["N"] / (d["p"] - 1 + d["q"])
            d["gamma"] = gain(d, float(rng.uniform(0.15, 0.8)) * peak)
            if not d["gamma"] < 0.95 * (d["beta"] * ode.n_star(d["p"], d["q"], d["N"])):
                return None
            states = ode.sis_steady_states(ode.SisOdeParams(**d, S0=0.5 * d["N"]))
            upper = states.interior[1].S
            # Alternate starts below and above the basin boundary.
            if made % 2 == 0:
                d["S0"] = float(rng.uniform(0.02 * d["N"], 0.93 * upper))
                return None if abs(d["S0"] - upper) < 0.05 * upper else d
            if 1.07 * upper >= 0.98 * d["N"]:
                return None
            d["S0"] = float(rng.uniform(1.07 * upper, 0.98 * d["N"]))
            return d
        if regime == "fold-above":
            fold = d["beta"] * ode.n_star(d["p"], d["q"], d["N"])
            d["gamma"] = fold * float(rng.uniform(1.1, 2.0))
        elif regime == "linear":
            u = float(rng.uniform(0.2, 0.9) if made % 2 == 0 else rng.uniform(1.1, 1.8))
            d["gamma"] = u * (d["beta"] * d["N"] ** d["q"])
        else:
            d["gamma"] = gain(d, float(rng.uniform(0.15, 0.85)) * d["N"])
        d["S0"] = float(rng.uniform(0.05, 0.95)) * d["N"]
        return d

    def verdict(params, y, converged, clamp):
        predicted = ode.sis_classify(params)
        term_S = float(y[0])
        return (_fmt(predicted.limit_S),
                _fmt(term_S) if converged else "Unconverged",
                converged and abs(term_S - predicted.limit_S) <= MATCH_TOL)

    return _oracle_rows("sis", _draw_points(quotas, draw), verdict)


def _oracle_rows(system: str, points: list[dict], verdict) -> list[dict]:
    """Settle the drawn points of ``system`` in one batch and tabulate them.

    ``verdict(params, terminal state, converged, clamp time)`` gives a
    point's (predicted, observed, agree) columns.
    """
    si = system == "si"
    params = [ode.SYSTEMS[system](**pt) for pt in points]
    if not params:
        return []
    report = ode.settle_batch(params, t_max=SWEEP_T_MAX)
    rows = []
    for i, prm in enumerate(params):
        predicted, observed, agree = verdict(
            prm, report.y[i], bool(report.converged[i]), report.clamp_time[i])
        rows.append({
            "p": prm.p, "q": prm.q, "beta": prm.beta,
            "gamma_or_mu": prm.mu if si else prm.gamma,
            "N_or_I0": prm.I0 if si else prm.N, "S0": prm.S0,
            "predicted": predicted, "observed": observed, "agree": bool(agree),
            "steps_accepted": int(report.steps_accepted[i]),
            "steps_rejected": int(report.steps_rejected[i]),
            "t_reached": float(report.t_reached[i]),
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


def ode_steps_csv(rows: list[dict]) -> str:
    lines = [ODE_STEPS_HEADER]
    for i, row in enumerate(rows):
        lines.append(f"{i},{row['steps_accepted']},{row['steps_rejected']},"
                     f"{_fmt(row['t_reached'])}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Generic sweep runner with a completed-row manifest
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    kind: str                       # "ode-si" | "ode-sis" | "pde"
    base: str | None = None         # preset name (pde)
    points: int | None = None       # sample count (ode kinds); None: 100
    seed: int | None = None         # None: the sampler's reference seed
    axes: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        # a field that the kind never reads is refused once set
        if self.kind not in ("ode-si", "ode-sis", "pde"):
            raise ConfigError(f"unknown sweep kind {self.kind!r}", key="kind")
        unread = ((("points", self.points), ("seed", self.seed))
                  if self.kind == "pde"
                  else (("base", self.base), ("vary", self.axes or None)))
        for key, value in unread:
            if value is not None:
                raise ConfigError(f"{self.kind} sweeps do not read {key}", key=key)
        if self.points is not None and self.points < 1:
            raise ConfigError(f"points must be at least 1, got {self.points}",
                              key="points")
        if self.kind == "pde" and self.base is None:
            raise ConfigError("pde sweeps need base = <preset>", key="base")


def parse_sweep(text: str) -> SweepSpec:
    """Parse a [sweep] section: kind, base, points, seed, vary.* axes; an
    error that ``SweepSpec`` raises names the line of its key. A ``vary.*``
    line splits like a shell line, so a quoted value may hold spaces, and
    a value whose parentheses do not balance is refused."""
    fields: dict = {}
    lines: dict[str, int] = {}
    axes: list[tuple[str, tuple[str, ...]]] = []
    for section, key, value, lineno in read_lines(text, ("sweep",)):
        if section is None:
            raise ConfigError("sweep files start with [sweep]", lineno)
        lines[key] = lines[key.split(".")[0]] = lineno
        if key.startswith("vary."):
            try:
                values = tuple(shlex.split(value))
                for v in values:
                    if v.count("(") != v.count(")"):
                        raise ValueError(f"the parentheses of {v!r} do not "
                                         "balance; quote a value with spaces")
                axes.append((key[5:], values))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}", lineno) from None
        elif key not in ("kind", "base", "points", "seed"):
            raise ConfigError(f"unknown sweep key {key!r}", lineno)
        elif key in ("points", "seed"):
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {value!r}",
                                  lineno) from None
        else:
            fields[key] = value
    if "kind" not in fields:
        raise ConfigError("sweep file must set kind")
    try:
        return SweepSpec(**fields, axes=tuple(axes))
    except ConfigError as exc:
        raise exc.located(lines) from None


def load_sweep(path) -> SweepSpec:
    return parse_sweep(read_input(path))


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


def _sweep_fingerprint(spec: SweepSpec) -> str:
    """Hash of what decides a pde sweep's rows: kind, base preset and its
    config pairs, the axes in order and the package version."""
    blob = json.dumps([spec.kind, spec.base, spec.axes, preset_pairs(spec.base),
                       __version__], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _read_journal(out_dir, fingerprint: str) -> dict[int, str]:
    """Rows journaled so far in out_dir/rows.part, by index.

    The journal's first line holds the fingerprint of the spec that wrote
    it. A journal of another spec, or one without a fingerprint, is a
    ConfigError, so a changed spec never reuses old rows. A final line
    without its newline was torn by an interrupted write: it is cut from
    the file, so the next append starts on a fresh line, and its row is
    recomputed. Any other unreadable line is a ConfigError.
    """
    part_path = os.path.join(out_dir, "rows.part")
    if not os.path.exists(part_path):
        return {}
    with open(part_path, "rb+") as fh:
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            fh.truncate(complete)
    done: dict[int, str] = {}
    found = None
    text = data[:complete].decode("utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                rec = json.loads(line)
                if lineno == 1 and "fingerprint" in rec:
                    found = rec["fingerprint"]
                else:
                    done[int(rec["index"])] = rec["line"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(
                    f"unreadable sweep journal {part_path}: {exc}", lineno
                ) from exc
    if text and found != fingerprint:
        raise ConfigError(
            f"sweep journal in {out_dir} has fingerprint {found or 'none'}, "
            f"this spec has {fingerprint}; use a fresh output directory")
    return done


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, with its quotes doubled, only when
    it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def failed_rows(csv_path) -> int:
    """Rows of a results.csv that failed: a set error column (``pde``) or
    a prediction the oracle disagrees with (``ode-*``, agree=false)."""
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    if header[-1] == "agree":
        return sum(1 for row in rows if row[-1] == "false")
    return sum(1 for row in rows if row[-1])


def run_sweep(spec: SweepSpec, out_dir) -> str:
    """Execute a sweep and write results.csv; return its path.

    A ``pde`` sweep journals each finished row to rows.part as a JSON
    line, after a first line with the spec's fingerprint; rerunning the
    same spec into the same output directory recomputes only the rows
    missing from the journal (a torn last line included). A row whose
    scenario raises a package error records it in its error column; any
    other exception aborts the sweep. The ``ode-*`` kinds integrate all
    points in one batch, so they keep no journal and are recomputed in
    full, with ``spec.points`` (unset: 100) and ``spec.seed`` (unset: the
    sampler's reference seed, 20240501 for ``ode-si`` and 20240502 for
    ``ode-sis``), and write each point's accepted and rejected steps and
    the time it reached to steps.csv beside results.csv. Either way each
    file is written in deterministic row order by ``diagnostics.write_text``.
    """
    _make_out_dir(out_dir)
    if spec.kind == "pde":
        fingerprint = _sweep_fingerprint(spec)
        done = _read_journal(out_dir, fingerprint)
        combos = _pde_sweep_points(spec)
        axis_names = [key for key, _ in spec.axes]
        with open(os.path.join(out_dir, "rows.part"), "a", encoding="utf-8") as part:
            if part.tell() == 0:
                part.write(json.dumps({"fingerprint": fingerprint}) + "\n")
            for i, combo in enumerate(combos):
                if i in done:
                    continue
                row = _pde_row(spec, combo)
                line = ",".join(_csv_field(field) for field in (
                    [combo[a] for a in axis_names]
                    + [row["outcome"], row["value"], row["error"]]))
                part.write(json.dumps({"index": i, "line": line}) + "\n")
                part.flush()
                done[i] = line
        header = ",".join(axis_names + ["outcome", "value", "error"])
        files = {"results.csv": "\n".join(
            [header] + [done[i] for i in range(len(combos))]) + "\n"}
    else:
        maker = si_sweep_rows if spec.kind == "ode-si" else sis_sweep_rows
        given = {"count": spec.points, "seed": spec.seed}
        rows = maker(**{k: v for k, v in given.items() if v is not None})
        files = {"results.csv": ode_sweep_csv(rows), "steps.csv": ode_steps_csv(rows)}

    for name, text in files.items():
        diagnostics.write_text(os.path.join(out_dir, name), text)
    return os.path.join(out_dir, "results.csv")
