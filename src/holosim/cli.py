"""Command-line interface.

Subcommands map onto the harness runners: ``variance-map`` and ``eigvals``
emit analytic artifacts, ``se-sim`` and ``se-theory`` run the rate
estimators, ``ns-compare`` is ``se-sim``'s runner given series orders, and
``preset`` expands a named experiment family into its CSV series.  All
outputs are CSV with a leading configuration comment line.  The parser
converts no value: every option reaches the harness as text and is read like
the same key of a ``--config`` file (``preset --scale`` like a spacing, so
``1/4`` is a scale), and a bad value exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness


def _add_geometry_flags(parser: argparse.ArgumentParser, receive: bool = True) -> None:
    parser.add_argument("--ns", help="transmit surface patch count (near-square grid)")
    parser.add_argument("--delta-s", metavar="FRAC",
                        help="transmit patch spacing in wavelengths, e.g. 1/6")
    if receive:
        parser.add_argument("--nr", help="receive surface patch count (near-square grid)")
        parser.add_argument("--delta-r", metavar="FRAC",
                            help="receive patch spacing in wavelengths, e.g. 1/3")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", help="number of users")
    parser.add_argument("--snr", metavar="A:B:STEP",
                        help="SNR grid in dB, a:b:step or a comma list")
    parser.add_argument("--trials", help="Monte Carlo trials")
    parser.add_argument("--seed", help="root seed")
    parser.add_argument("--scheme", metavar="LIST", help="comma list from mrt,zf,mmse,ns-zf")
    parser.add_argument("--iters", metavar="N[,N...]", help="series order(s) for ns-zf")
    parser.add_argument("--config", metavar="JSON", help="JSON settings file; flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holosim",
        description="Wavenumber-domain channel statistics and precoding benchmarks "
                    "for dense planar surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vmap = sub.add_parser("variance-map", help="per-cell variance profile of a surface")
    _add_geometry_flags(vmap, receive=False)
    vmap.add_argument("--out", default="variance-map.csv", help="output CSV path")

    eig = sub.add_parser("eigvals", help="correlation spectrum of one user")
    _add_geometry_flags(eig)
    eig.add_argument("--out", default="eigvals.csv", help="output CSV path")

    sim = sub.add_parser("se-sim", help="Monte Carlo spectral efficiency")
    _add_geometry_flags(sim)
    _add_run_flags(sim)
    sim.add_argument("--theory", action="store_true",
                     help="also emit closed-form curves where available")
    sim.add_argument("--out", default="se-sim.csv", help="output CSV path")

    theory = sub.add_parser("se-theory", help="closed-form spectral efficiency")
    _add_geometry_flags(theory)
    _add_run_flags(theory)
    theory.add_argument("--out", default="se-theory.csv", help="output CSV path")

    nscmp = sub.add_parser("ns-compare", help="exact ZF versus series inversion")
    _add_geometry_flags(nscmp)
    _add_run_flags(nscmp)
    nscmp.add_argument("--out", default="ns-compare.csv", help="output CSV path")

    preset = sub.add_parser("preset", help="run a named experiment family")
    preset.add_argument("name", choices=harness.PRESET_NAMES)
    preset.add_argument("--scale", default=1.0, metavar="FRAC",
                        help="patch-count multiplier for every surface, e.g. 1/4")
    preset.add_argument("--trials", help="trial override")
    preset.add_argument("--seed", help="seed override")
    preset.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    args = _build_parser().parse_args(argv)
    # Every other option is a setting, read like the same key of a --config file.
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config", "out", "theory")}
    path = vars(args).get("config")
    try:
        if args.command == "variance-map":
            harness.run_variance_map(harness.parse_config(**flags).tx, Path(args.out))
        elif args.command == "eigvals":
            harness.run_eigvals(harness.parse_config(**flags), Path(args.out))
        elif args.command == "se-sim":
            config = harness.parse_config(path, **flags)
            harness.run_se_sim(config, Path(args.out), include_theory=args.theory)
        elif args.command == "se-theory":
            harness.run_se_theory(harness.parse_config(path, **flags), Path(args.out))
        elif args.command == "ns-compare":
            config, orders = harness.parse_ns_compare(path, **flags)
            harness.run_se_sim(config, Path(args.out), ns_orders=orders)
        else:
            return harness.run_preset(args.name, scale=args.scale, trials=args.trials,
                                      seed=args.seed, out=args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into status
        print(f"holosim {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
