"""Command-line driver: `ptsense sweep` and `ptsense figure`.

Exit codes: 0 on success, 2 on configuration errors, 3 on output errors.
Config files are flat JSON documents; every key is also exposed as a flag,
and flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigError, WriteError
from .sweeps import FIGURE_NAMES, SweepConfig, figure_preset, run


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quantity", action="append", help="quantity to evaluate (repeatable)")
    parser.add_argument("--scheme", action="append", help="scheme to evaluate (repeatable)")
    parser.add_argument("--omega", type=float)
    parser.add_argument("--gamma-list", help="comma-separated gamma/omega ratios")
    parser.add_argument("--delta-list", help="comma-separated delta/omega ratios")
    parser.add_argument("--tau-max", type=float)
    parser.add_argument("--tau-steps", type=int)
    parser.add_argument("--probe", choices=["plus_y", "minus_y", "custom"])
    parser.add_argument("--probe-theta", type=float)
    parser.add_argument("--probe-phi", type=float)
    parser.add_argument("-N", "--repetitions", type=int, dest="repetitions")
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--output", help="output path (overrides output_path)")


def _parse_ratio_list(text: str, fieldname: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"{fieldname}: {exc}") from exc


def _apply_overrides(config: SweepConfig, args: argparse.Namespace) -> SweepConfig:
    updates = {}
    if args.quantity:
        updates["quantities"] = tuple(args.quantity)
    if args.scheme:
        updates["schemes"] = tuple(args.scheme)
    if args.omega is not None:
        updates["omega"] = args.omega
    if args.gamma_list is not None:
        updates["gamma_ratios"] = _parse_ratio_list(args.gamma_list, "gamma_list")
    if args.delta_list is not None:
        updates["delta_ratios"] = _parse_ratio_list(args.delta_list, "delta_list")
    if args.tau_max is not None:
        updates["tau_max"] = args.tau_max
    if args.tau_steps is not None:
        updates["tau_steps"] = args.tau_steps
    if args.probe is not None:
        updates["probe"] = args.probe
    if args.probe_theta is not None:
        updates["probe_theta"] = args.probe_theta
    if args.probe_phi is not None:
        updates["probe_phi"] = args.probe_phi
    if args.repetitions is not None:
        updates["repetitions"] = args.repetitions
    if args.format is not None:
        updates["format"] = args.format
    if args.output is not None:
        updates["output_path"] = args.output
    return dataclasses.replace(config, **updates) if updates else config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptsense",
        description="Parameter sweeps for a PT-symmetric two-level quantum sensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_parser = sub.add_parser("sweep", help="run a sweep from a JSON config")
    sweep_parser.add_argument("--config", help="path to a flat-JSON sweep configuration")
    _add_override_flags(sweep_parser)

    figure_parser = sub.add_parser("figure", help="run a named figure preset")
    figure_parser.add_argument("name", choices=list(FIGURE_NAMES))
    _add_override_flags(figure_parser)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage error (2) or --help (0)
        return exc.code
    try:
        if args.command == "figure":
            config = figure_preset(args.name)
        else:
            if args.config:
                try:
                    with open(args.config, encoding="utf-8") as handle:
                        raw = json.load(handle)
                except OSError as exc:
                    raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
                except ValueError as exc:
                    raise ConfigError(f"config: invalid JSON: {exc}") from exc
                if not isinstance(raw, dict):
                    raise ConfigError("config: top-level JSON value must be an object")
                config = SweepConfig.from_mapping(raw)
            else:
                # build entirely from flags; required fields enforced below
                ns = args
                if not ns.quantity or not ns.scheme or ns.gamma_list is None:
                    raise ConfigError("config: --config or (--quantity, --scheme, --gamma-list) required")
                config = SweepConfig(
                    quantities=tuple(ns.quantity),
                    schemes=tuple(ns.scheme),
                    gamma_ratios=_parse_ratio_list(ns.gamma_list, "gamma_list"),
                )
        config = _apply_overrides(config, args)
        run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WriteError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
