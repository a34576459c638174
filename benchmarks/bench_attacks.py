"""Benchmark: eq.-18 attack impact × attack family × gossip backend.

Builds one seeded world (PA overlay + fully observed trust matrix) and
measures every registered attack family through
:func:`repro.attacks.evaluate.attack_impact` on each requested backend —
the clean/dirty run pair shares one seed per cell, so the recorded
``rms_gclr`` isolates the attack and the cross-backend spread isolates
engine-level numerics. ``BENCH_attacks.json`` carries, per (family ×
backend) cell: both eq.-18 errors, the eq.-17 amplification ratio
(unweighted / DGT), wall time, and the dirty-world size (sybil floods
enlarge it); per family it also records the max cross-backend spread of
``rms_gclr`` so a backend computing the wrong thing fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/bench_attacks.py \
        [--n 300] [--targets 40] [--xi 1e-4] [--seed 2016] \
        [--backends sparse,message] [--families all] \
        [--out BENCH_attacks.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import zlib
from typing import Dict

import numpy as np

from repro.analysis.metrics import attack_amplification
from repro.attacks.evaluate import attack_impact
from repro.attacks.models import available_attacks, make_attack
from repro.core.backend import GossipConfig
from repro.experiments.attack_sweeps import _world_and_targets
from repro.utils.hardware import host_metadata

#: Per-family parameters of the benchmark's adversaries (kept modest so
#: every family runs at any --n without densifying the trust matrix).
FAMILY_PARAMS: Dict[str, dict] = {
    "collusion": dict(fraction=0.3, group_size=5),
    "slandering": dict(fraction=0.25, victim_fraction=0.15),
    "whitewashing": dict(fraction=0.15),
    "on-off": dict(fraction=0.25, period=2, on_epochs=1),
    "sybil": dict(sybil_fraction=0.15),
}

#: Cross-backend sanity bar: all engines estimate the same fixpoint, so
#: the rms spread must stay within gossip-noise scale at the bench xi.
MAX_BACKEND_SPREAD = 0.05


def run_benchmark(
    n: int = 300,
    *,
    num_targets: int = 40,
    xi: float = 1e-4,
    seed: int = 2016,
    backends=("sparse", "message"),
    families=None,
) -> Dict[str, object]:
    """One full family × backend sweep; returns the JSON-ready record."""
    root, graph, trust, targets = _world_and_targets(n, num_targets, seed)
    count = len(targets)
    sweep = list(families) if families else [
        f for f in available_attacks() if f in FAMILY_PARAMS
    ]
    print(f"world: N={n} E={graph.num_edges} targets={count} xi={xi:g}")

    table: Dict[str, Dict[str, object]] = {}
    for family in sweep:
        # Seeds derive from (sweep seed, family name), not sweep order,
        # so a --families subset rerun reproduces the committed cell
        # bit-for-bit when a spread gate needs bisecting.
        family_root = np.random.default_rng(
            np.random.SeedSequence([seed, zlib.crc32(family.encode())])
        )
        model = make_attack(
            family, seed=int(family_root.integers(2**62)), **FAMILY_PARAMS.get(family, {})
        )
        gossip_seed = int(family_root.integers(2**62))
        cells: Dict[str, object] = {}
        spread_values = []
        for backend in backends:
            start = time.perf_counter()
            impact = attack_impact(
                graph,
                trust,
                model,
                targets=targets,
                config=GossipConfig(xi=xi, rng=gossip_seed),
                backend=backend,
            )
            elapsed = time.perf_counter() - start
            spread_values.append(impact.rms_gclr)
            cells[backend] = {
                "rms_gclr": round(impact.rms_gclr, 8),
                "rms_unweighted": round(impact.rms_unweighted, 8),
                "amplification": round(
                    attack_amplification(impact.rms_unweighted, impact.rms_gclr), 4
                ),
                "num_nodes_dirty": impact.num_nodes_dirty,
                "steps_clean": impact.clean_outcome.steps,
                "steps_dirty": impact.dirty_outcome.steps,
                "elapsed_seconds": round(elapsed, 4),
            }
            print(
                f"  {family:14s} {backend:8s} rms_gclr={impact.rms_gclr:.5f} "
                f"rms_unweighted={impact.rms_unweighted:.5f} ({elapsed:.2f}s)"
            )
        spread = max(spread_values) - min(spread_values)
        if spread > MAX_BACKEND_SPREAD:
            raise AssertionError(
                f"{family}: cross-backend rms spread {spread:.4g} exceeds "
                f"{MAX_BACKEND_SPREAD} — an engine is computing the wrong thing"
            )
        table[family] = {"backends": cells, "rms_gclr_backend_spread": round(spread, 8)}

    return {
        "benchmark": "attack_family_x_backend",
        "n": n,
        "num_edges": graph.num_edges,
        "num_targets": count,
        "xi": xi,
        "seed": seed,
        "family_params": {f: FAMILY_PARAMS.get(f, {}) for f in sweep},
        "families": table,
        "max_backend_spread_allowed": MAX_BACKEND_SPREAD,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--targets", type=int, default=40)
    parser.add_argument("--xi", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--backends",
        default="sparse,message",
        help=(
            "comma-separated backend names; the default pairs the vectorised "
            "engine with the protocol-faithful message engine, so the spread "
            "gate compares two implementations"
        ),
    )
    parser.add_argument(
        "--families", default="all", help="comma-separated attack families, or 'all'"
    )
    parser.add_argument("--out", default="BENCH_attacks.json")
    args = parser.parse_args(argv)

    record = run_benchmark(
        args.n,
        num_targets=args.targets,
        xi=args.xi,
        seed=args.seed,
        backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
        families=(
            None
            if args.families == "all"
            else tuple(f.strip() for f in args.families.split(",") if f.strip())
        ),
    )
    record.update(host_metadata())
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
