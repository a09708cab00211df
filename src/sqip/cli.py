"""Command-line entry points.

Subcommands:
    run <config>         run a scenario file
    preset <name>        run a named preset
    sweep <spec>         run a sweep file (pde sweeps resume)
    r0 <config>          spectral threshold quantities only
    ode classify ...     closed-form outcome of a zero-diffusion system
    ode sweep ...        oracle agreement sweep, emitted as CSV

Exit code is 0 exactly when no operation reported an error.
"""

from __future__ import annotations

import argparse
import sys

from . import ode, runner
from .config import load_config
from .errors import SqipError
from .presets import ODE_PRESETS, PRESET_NAMES, preset_config, preset_kind


def _parse_overrides(items: list[str] | None) -> dict[str, str]:
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise SqipError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _cmd_run(args) -> int:
    config = load_config(args.config)
    overrides = _parse_overrides(args.override)
    if overrides:
        config = config.with_overrides(overrides)
    result = runner.run_scenario(config, out_dir=args.out)
    sys.stdout.write(result.summary)
    return 0


def _run_ode_preset(name: str, out_dir) -> int:
    spec = dict(ODE_PRESETS[name])
    system = spec.pop("system")
    dt = spec.pop("dt")
    t_end = spec.pop("t_end")
    params = ode.SiOdeParams(**spec) if system == "si" else ode.SisOdeParams(**spec)
    outcome = ode.si_classify(params) if system == "si" \
        else ode.sis_classify(params)
    traj = ode.rk4_integrate(system, params, t_end=t_end, dt=dt)
    lines = [f"name={name}", f"system={system}"]
    if system == "si":
        lines.append(f"predicted={outcome.kind}")
        if outcome.t_upper is not None:
            lines.append(f"t_upper={outcome.t_upper:.10g}")
    else:
        lines.append(f"predicted_limit=({outcome.limit_S:.10g},"
                     f"{outcome.limit_I:.10g})")
    if traj.clamp_events:
        lines.append(f"first_clamp_time={traj.clamp_events[0][0]:.10g}")
    lines.append(f"terminal=({traj.terminal[0]:.10g},{traj.terminal[1]:.10g})")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir:
        import os
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_preset(args) -> int:
    if preset_kind(args.name) == "ode":
        return _run_ode_preset(args.name, args.out)
    config = preset_config(args.name, _parse_overrides(args.override),
                           two_dim=args.two_dim)
    result = runner.run_scenario(config, out_dir=args.out)
    sys.stdout.write(result.summary)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = runner.parse_sweep(fh.read())
    csv_path = runner.run_sweep(spec, args.out or "sweep-out")
    sys.stdout.write(f"results={csv_path}\n")
    return 0


def _cmd_r0(args) -> int:
    config = load_config(args.config)
    overrides = _parse_overrides(args.override)
    if overrides:
        config = config.with_overrides(overrides)
    result = runner.compute_spectral(config)
    sys.stdout.write("\n".join(result.summary_lines()) + "\n")
    return 0


def _ode_params_from_args(args):
    if args.system == "si":
        return ode.SiOdeParams(beta=args.beta, mu=args.mu, p=args.p,
                               q=args.q, S0=args.S0, I0=args.I0)
    return ode.SisOdeParams(beta=args.beta, gamma=args.gamma, p=args.p,
                            q=args.q, N=args.N, S0=args.S0)


def _cmd_ode_classify(args) -> int:
    params = _ode_params_from_args(args)
    if args.system == "si":
        outcome = ode.si_classify(params)
        sys.stdout.write(f"predicted={outcome.kind}\nrule={outcome.rule}\n")
        if outcome.t_upper is not None:
            sys.stdout.write(f"t_upper={outcome.t_upper:.10g}\n")
    else:
        states = ode.sis_steady_states(params)
        outcome = ode.sis_classify(params)
        for st in states.all_states:
            sys.stdout.write(
                f"steady_state=({st.S:.10g},{st.I:.10g}) "
                f"stability={'/'.join(st.stability)}\n")
        sys.stdout.write(
            f"predicted_limit=({outcome.limit_S:.10g},{outcome.limit_I:.10g})\n"
            f"case={outcome.case}\n")
    return 0


def _cmd_ode_sweep(args) -> int:
    if args.system in ("si", "both"):
        rows = runner.si_sweep_rows(count=args.points, seed=args.seed)
    else:
        rows = []
    if args.system in ("sis", "both"):
        rows += runner.sis_sweep_rows(count=args.points, seed=args.seed + 1)
    csv_text = runner.ode_sweep_csv(rows)
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "ode_sweep.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        sys.stdout.write(f"results={path}\n")
    else:
        sys.stdout.write(csv_text)
    disagreements = sum(1 for row in rows if not row["agree"])
    sys.stdout.write(f"# points={len(rows)} disagreements={disagreements}\n")
    return 0 if disagreements == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqip",
        description="Diffusive epidemic dynamics with power-law incidence")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", choices=list(PRESET_NAMES))
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_preset.add_argument("--two-dim", action="store_true",
                          help="swap the interval for a square domain")
    p_preset.set_defaults(func=_cmd_preset)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec file")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_r0 = sub.add_parser("r0", help="spectral threshold quantities")
    p_r0.add_argument("config")
    p_r0.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_r0.set_defaults(func=_cmd_r0)

    p_ode = sub.add_parser("ode", help="zero-diffusion systems")
    ode_sub = p_ode.add_subparsers(dest="ode_command", required=True)

    p_cls = ode_sub.add_parser("classify", help="closed-form outcome")
    p_cls.add_argument("system", choices=["si", "sis"])
    p_cls.add_argument("--p", type=float, required=True)
    p_cls.add_argument("--q", type=float, required=True)
    p_cls.add_argument("--beta", type=float, required=True)
    p_cls.add_argument("--mu", type=float, default=1.0)
    p_cls.add_argument("--gamma", type=float, default=1.0)
    p_cls.add_argument("--N", type=float, default=1.0)
    p_cls.add_argument("--S0", type=float, required=True)
    p_cls.add_argument("--I0", type=float, default=1.0)
    p_cls.set_defaults(func=_cmd_ode_classify)

    p_osw = ode_sub.add_parser("sweep", help="oracle agreement sweep")
    p_osw.add_argument("system", choices=["si", "sis", "both"])
    p_osw.add_argument("--points", type=int, default=100)
    p_osw.add_argument("--seed", type=int, default=20240501)
    p_osw.add_argument("--out", default=None)
    p_osw.set_defaults(func=_cmd_ode_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SqipError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
