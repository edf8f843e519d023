"""Command-line front end.

    epidyn run <preset|config.json> [--alpha X] [--tau X] [--replicates K]
               [--horizon T] [--seed S] [--sample-size M] [--likelihood V]
               [--out DIR] [--metric consensus|nearest]

Exit codes: 0 success, 2 validation error, 3 runtime failure.  The
EPIDYN_THREADS environment variable caps replicate parallelism: a positive
integer, clamped to the replicate count and the CPU count; any other value
is a validation error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXIT_VALIDATION, PRESET_NAMES, run_experiment

_METRIC_FLAG = {
    "consensus": "consensus-projection",
    "nearest": "nearest-individual",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epidyn",
        description="Stochastic multi-agent knowledge dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser(
        "run",
        help="run a preset experiment or a JSON config",
        description=f"presets: {', '.join(PRESET_NAMES)}",
    )
    runp.add_argument("target", help="preset name or path to a JSON config")
    runp.add_argument("--alpha", type=float, help="self-inertia (test1 preset)")
    runp.add_argument(
        "--likelihood",
        choices=("constant", "concave"),
        help="likelihood variant (test2 preset)",
    )
    runp.add_argument("--tau", type=float, help="individual-learning proportion")
    runp.add_argument("--replicates", type=int, help="number of replicates")
    runp.add_argument("--horizon", type=int, help="number of steps per replicate")
    runp.add_argument("--seed", type=int, help="base RNG seed")
    runp.add_argument("--sample-size", type=int, help="observations per agent per step")
    runp.add_argument(
        "--metric",
        choices=tuple(_METRIC_FLAG),
        help="which distance the summary and rate fit use",
    )
    runp.add_argument("--out", default="epidyn-out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad usage, which matches the validation code
        return EXIT_VALIDATION if err.code not in (0, None) else 0

    # every flag left unset keeps the target's value
    overrides = {
        key: value
        for key, value in vars(args).items()
        if value is not None and key not in ("command", "target", "out")
    }
    if "metric" in overrides:
        overrides["metric_variant"] = _METRIC_FLAG[overrides.pop("metric")]

    return run_experiment(args.target, args.out, overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
