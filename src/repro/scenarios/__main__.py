"""Command-line entry point: ``python -m repro.scenarios run <name>``."""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import available_scenarios, get_scenario, run_scenario


def main(argv=None) -> int:
    """Run or list scenarios; print each result block."""
    epilog = (
        "Docs: docs/architecture.md (layer map + the scenario catalogue), "
        "docs/service.md (the service-soak serving layer), "
        "docs/benchmarks.md (artifact reference)."
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run composable gossip scenarios (topology x workload x churn x attack x backend).",
        epilog=epilog,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios", epilog=epilog)

    run_parser = sub.add_parser("run", help="run one scenario (or 'all')", epilog=epilog)
    run_parser.add_argument("name", help="scenario name (see 'list'), or 'all'")
    run_parser.add_argument(
        "--small",
        action="store_true",
        help="CI-smoke shape: the scenario's small node count",
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_parser.add_argument(
        "--backend",
        default=None,
        help="override the scenario backend (any registered name, or 'auto')",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in available_scenarios():
            print(f"{name:24s} {get_scenario(name).description}")
        return 0

    names = list(available_scenarios()) if args.name == "all" else [args.name]
    try:
        for name in names:
            get_scenario(name)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2

    for name in names:
        result = run_scenario(name, small=args.small, seed=args.seed, backend=args.backend)
        print(result.to_text())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
