"""Command-line entry points.

Subcommands:
    run <config>         run a scenario file
    preset <name>        run a named preset
    sweep <spec>         run a sweep file (pde sweeps resume; ode-si and
                         ode-sis sweeps are the error-controlled ODE
                         oracle's agreement check)
    r0 <config>          spectral threshold quantities only
    ode classify si|sis  closed-form outcome of a zero-diffusion system

Exit code is 0 exactly when no operation reported an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial

from . import runner
from .config import ScenarioConfig, load_config, read_lines
from .errors import ConfigError, SqipError
from .presets import ODE_PRESETS, PRESET_NAMES, preset_config


def _parse_overrides(items: list[str] | None
                     ) -> tuple[dict[str, str], dict[str, int]]:
    """``--override section.key=value`` items, read as lines of config
    text (so ``#`` starts a comment): the pairs and each key's position,
    which a refusal names as its line."""
    pairs, lines = {}, {}
    for _, key, value, line in read_lines("\n".join(items or ()), sections=()):
        pairs[key], lines[key] = value, line
    return pairs, lines


def _overridden(build, items: list[str] | None) -> ScenarioConfig:
    """``build(overrides)`` of the --override ``items``; a refusal keyed
    by an overridden key names that item's position."""
    overrides, lines = _parse_overrides(items)
    try:
        return build(overrides)
    except ConfigError as exc:
        raise exc.located(lines) from None


def _load_config(args) -> ScenarioConfig:
    """The config file of ``run`` and ``r0`` with any --override layered on."""
    config = load_config(args.config)
    return _overridden(config.with_overrides, args.override) if args.override else config


def _cmd_run(args) -> int:
    result = runner.run_scenario(_load_config(args), out_dir=args.out)
    sys.stdout.write(result.summary)
    return 0


def _cmd_preset(args) -> int:
    if args.name in ODE_PRESETS:
        # the zero-diffusion preset reads no config, so a flag would be lost
        for flag, given in (("--override", args.override), ("--two-dim", args.two_dim)):
            if given:
                raise ConfigError(f"{flag} is not read by the ODE preset {args.name}")
        summary = runner.run_ode_preset(args.name, args.out)
    else:
        config = _overridden(partial(preset_config, args.name, two_dim=args.two_dim),
                             args.override)
        summary = runner.run_scenario(config, out_dir=args.out).summary
    sys.stdout.write(summary)
    return 0


def _cmd_sweep(args) -> int:
    csv_path = runner.run_sweep(runner.load_sweep(args.spec), args.out or "sweep-out")
    sys.stdout.write(f"results={csv_path}\n")
    failed = runner.failed_rows(csv_path)
    if failed:
        sys.stderr.write(f"error: {failed} sweep row(s) failed, see {csv_path}\n")
        return 1
    return 0


def _cmd_r0(args) -> int:
    result = runner.compute_spectral(_load_config(args))
    sys.stdout.write("\n".join(runner.spectral_lines(result)) + "\n")
    return 0


def _cmd_ode_classify(args) -> int:
    from . import ode
    params = args.param_cls(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(args.param_cls)})
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


class _SystemParser(argparse.ArgumentParser):
    """The parser of ``sqip ode classify <system>``. Its options, the
    fields of ``ode.SYSTEMS[system]``, are added on its first parse, so
    no other command loads the ODE oracle."""

    system = None

    def parse_known_args(self, *args, **kwargs):
        if self.system is not None:
            from . import ode
            cls, self.system = ode.SYSTEMS[self.system], None
            defaults = {"mu": 1.0, "gamma": 1.0, "N": 1.0, "I0": 1.0}
            for f in dataclasses.fields(cls):
                default = defaults.get(f.name)
                self.add_argument(f"--{f.name}", type=float, default=default,
                                  required=default is None)
            self.set_defaults(func=_cmd_ode_classify, param_cls=cls)
        return super().parse_known_args(*args, **kwargs)


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
    cls_sub = p_cls.add_subparsers(dest="system", required=True,
                                   parser_class=_SystemParser)
    for system in ("si", "sis"):
        cls_sub.add_parser(system).system = system

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
