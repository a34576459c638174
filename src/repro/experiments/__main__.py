"""Command-line entry point: ``python -m repro.experiments <id>``."""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.registry import available_experiments, get_experiment
from repro.experiments.runner import FULL_SCALE_ENV


def main(argv=None) -> int:
    """Run one experiment (or ``list``/``all``) and print its table."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        epilog=(
            "Docs: docs/architecture.md (module-to-paper-section map), "
            "docs/benchmarks.md (BENCH_*.json artifact reference), "
            "docs/service.md (the serving layer)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'list' to enumerate, or 'all' to run everything",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--full",
        action="store_true",
        help=f"full-scale sweeps (equivalent to {FULL_SCALE_ENV}=1); N up to 50000",
    )
    scale.add_argument(
        "--small",
        action="store_true",
        help="force CI-smoke scale even if the environment requests full scale "
        f"(equivalent to {FULL_SCALE_ENV}=0)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="fan experiments out over N worker processes (0 = all CPUs); "
        "results are identical to a serial run",
    )
    args = parser.parse_args(argv)
    if args.parallel < 0:
        parser.error("--parallel must be >= 0")

    if args.full:
        os.environ[FULL_SCALE_ENV] = "1"
    elif args.small:
        os.environ[FULL_SCALE_ENV] = "0"

    if args.experiment == "list":
        for experiment_id in available_experiments():
            doc = sys.modules[get_experiment(experiment_id).__module__].__doc__ or ""
            first_line = doc.strip().splitlines()[0] if doc.strip() else ""
            print(f"{experiment_id:12s} {first_line}")
        return 0

    ids = available_experiments() if args.experiment == "all" else [args.experiment]
    try:
        for experiment_id in ids:
            get_experiment(experiment_id)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2

    from repro.experiments.parallel import iter_experiments

    # iter_experiments streams for any process count (processes=1 runs
    # serially in-process): each table prints the moment its experiment
    # finishes, so a multi-hour --full sweep keeps its completed output
    # if a later experiment fails.
    processes = None if args.parallel == 0 else args.parallel
    for result in iter_experiments(ids, processes=processes, seed=args.seed):
        print(result.to_text())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
