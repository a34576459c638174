"""Benchmark: the algorithm × scenario × attack tournament leaderboard.

Thin CLI over :func:`repro.experiments.tournament.build_leaderboard`:
every registered algorithm runs on the same scenario-derived worlds and
faces the same seeded adversaries, producing ``BENCH_tournament.json``
with one cell per (scenario × algorithm × backend) — accuracy against
the algorithm's own exact aggregate, rounds, messages under the
adapter's documented counting rule, wall-clock, and per-attack-family
eq.-18 shift + eq.-17 amplification — plus the cross-scenario
leaderboard ranked by mean amplification.

Usage::

    PYTHONPATH=src python benchmarks/bench_tournament.py \
        [--small] [--seed 2016] [--xi 1e-4] [--targets 20] \
        [--algorithms all] [--scenarios all] [--attacks all] \
        [--backends sparse] [--out BENCH_tournament.json]
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.tournament import (
    DEFAULT_ATTACKS,
    DEFAULT_BACKENDS,
    build_leaderboard,
    write_record,
)
from repro.utils.hardware import host_metadata


def _csv(value: str):
    return tuple(part.strip() for part in value.split(",") if part.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--small", action="store_true",
        help="CI-smoke scale (the committed artifact's default shape)",
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--xi", type=float, default=1e-4)
    parser.add_argument("--targets", type=int, default=20)
    parser.add_argument(
        "--algorithms", default="all",
        help="comma-separated registered algorithm names, or 'all'",
    )
    parser.add_argument(
        "--scenarios", default="all",
        help="comma-separated scenario names providing the worlds, or 'all'",
    )
    parser.add_argument(
        "--attacks", default="all",
        help="comma-separated attack families (bench default params), or 'all'",
    )
    parser.add_argument("--backends", default=",".join(DEFAULT_BACKENDS))
    parser.add_argument("--out", default="BENCH_tournament.json")
    args = parser.parse_args(argv)

    attacks = None
    if args.attacks != "all":
        unknown = [f for f in _csv(args.attacks) if f not in DEFAULT_ATTACKS]
        if unknown:
            parser.error(
                f"no bench parameters for families {unknown}; "
                f"known: {sorted(DEFAULT_ATTACKS)}"
            )
        attacks = {f: DEFAULT_ATTACKS[f] for f in _csv(args.attacks)}

    record = build_leaderboard(
        seed=args.seed,
        small=args.small,
        xi=args.xi,
        num_targets=args.targets,
        algorithms=None if args.algorithms == "all" else _csv(args.algorithms),
        scenarios=None if args.scenarios == "all" else _csv(args.scenarios),
        attacks=attacks,
        backends=_csv(args.backends),
        progress=True,
    )
    record.update(host_metadata())
    write_record(record, args.out)
    print(f"wrote {args.out} ({len(record['cells'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
