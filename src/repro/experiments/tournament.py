"""Tournament: every algorithm × scenario slice × attack family leaderboard.

The paper's headline claim is comparative; this experiment makes the
comparison a single committed artifact. Every registered algorithm
(:mod:`repro.algorithms`) runs on the same scenario-derived worlds and
faces the same seeded adversaries, producing one row per (algorithm ×
scenario × backend) cell with the unified metric columns — accuracy
(RMS vs the algorithm's own exact aggregate), rounds-to-converge, total
messages (per-adapter counting rule), wall-clock, and per-attack-family
eq.-18 shift + eq.-17 amplification. Backend-routed algorithms
(``uses_backend``) additionally sweep the requested gossip backends;
exact solvers run once per world.

Seeds derive statelessly from ``(seed, scenario, algorithm/family)``
crc32 mixes, so any subset rerun reproduces the committed cells
bit-for-bit, and all algorithms face byte-identical adversaries per
(scenario, family) pair. The full leaderboard is written to
``BENCH_tournament.json`` (override with ``REPRO_TOURNAMENT_OUT``)
stamped with :func:`repro.utils.hardware.host_metadata`.

Run it::

    python -m repro.experiments tournament --small
    PYTHONPATH=src python benchmarks/bench_tournament.py --small
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import ExperimentResult, Stopwatch, full_scale_enabled

#: Where the experiment entry point writes the leaderboard artifact.
OUTPUT_ENV = "REPRO_TOURNAMENT_OUT"
DEFAULT_OUTPUT = "BENCH_tournament.json"

#: The seven built-in algorithms, in catalogue order.
DEFAULT_ALGORITHMS: Tuple[str, ...] = (
    "diff-gossip",
    "push-sum",
    "push-pull",
    "gossip-trust",
    "eigentrust",
    "absolute-trust",
    "flooding",
)

#: Scenario slices providing the tournament worlds (topology +
#: observation pattern + scale); the algorithms replace the scenarios'
#: own execution.
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "static-powerlaw",
    "collusion-under-churn",
    "slander-under-churn",
)

#: Adversaries every algorithm faces (byte-identical per scenario).
DEFAULT_ATTACKS: Dict[str, dict] = {
    "collusion": dict(fraction=0.3, group_size=5),
    "slandering": dict(fraction=0.25, victim_fraction=0.15),
}

#: Backend sweep for ``uses_backend`` algorithms.
DEFAULT_BACKENDS: Tuple[str, ...] = ("sparse",)

#: Full-scale worlds are capped here — the tournament measures relative
#: algorithm behaviour, not scale ceilings.
FULL_SCALE_CAP = 2000


def _subseed(*parts) -> np.random.Generator:
    """Stateless per-cell generator from (seed, names...) — subset reruns
    reproduce any committed cell bit-for-bit."""
    entropy = [parts[0]] + [zlib.crc32(str(p).encode()) for p in parts[1:]]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _scenario_world(name: str, *, seed: int, small: bool):
    """(graph, trust) for one scenario slice, fully seeded."""
    from repro.scenarios import get_scenario  # imports the seeded catalogue
    from repro.utils.rng import as_generator

    scenario = get_scenario(name)
    topology = scenario.topology
    if not small and topology.num_nodes > FULL_SCALE_CAP:
        topology = dataclasses.replace(topology, num_nodes=FULL_SCALE_CAP)
    root = _subseed(seed, "world", name)
    graph = topology.build(as_generator(int(root.integers(2**62))), small=small)
    return graph, scenario.workload.build_trust(graph, as_generator(int(root.integers(2**62))))


def build_leaderboard(
    *,
    seed: int = 2016,
    small: bool = True,
    xi: float = 1e-4,
    num_targets: int = 20,
    algorithms: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    attacks: Optional[Dict[str, dict]] = None,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    progress: bool = False,
) -> Dict[str, object]:
    """Run the full cross product; return the JSON-ready record.

    ``cells`` holds one entry per (scenario × algorithm × backend) with
    the unified columns plus per-attack-family robustness; the
    ``leaderboard`` aggregates cells per (algorithm × backend) across
    scenarios, ranked by mean eq.-17 amplification (higher = the
    algorithm damps attacks more relative to the unweighted global
    estimate), tie-broken by mean accuracy.
    """
    from repro.algorithms import get_algorithm, resolve_algorithm_name
    from repro.analysis.metrics import attack_amplification
    from repro.attacks.evaluate import _CleanRunCache, attack_impact
    from repro.attacks.models import make_attack
    from repro.core.backend import GossipConfig
    from repro.scenarios.spec import draw_targets

    algorithm_names = [
        resolve_algorithm_name(a) for a in (algorithms or DEFAULT_ALGORITHMS)
    ]
    scenario_names = list(scenarios or DEFAULT_SCENARIOS)
    attack_params = dict(attacks if attacks is not None else DEFAULT_ATTACKS)
    backend_names = list(backends)

    cells = []
    scenario_meta: Dict[str, dict] = {}
    for scenario_name in scenario_names:
        graph, trust = _scenario_world(scenario_name, seed=seed, small=small)
        targets = draw_targets(
            _subseed(seed, "targets", scenario_name), graph.num_nodes, num_targets
        )
        scenario_meta[scenario_name] = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "num_targets": len(targets),
        }
        # One adversary per (scenario, family), shared by every
        # algorithm — the whole field faces the same poisoned matrix.
        models = {
            family: make_attack(
                family,
                seed=int(_subseed(seed, "attack", scenario_name, family).integers(2**62)),
                **params,
            )
            for family, params in attack_params.items()
        }
        for algorithm_name in algorithm_names:
            algorithm = get_algorithm(algorithm_name)
            gossip_seed = int(
                _subseed(seed, "gossip", scenario_name, algorithm_name).integers(2**62)
            )
            config = GossipConfig(xi=xi, rng=gossip_seed)
            cell_backends = backend_names if algorithm.uses_backend else [None]
            for backend in cell_backends:
                prepared = algorithm.prepare(
                    graph, trust, config, targets=targets,
                    backend=backend if backend is not None else "auto",
                )
                clean = prepared.run()  # rng=None replays config's seed
                attack_cells: Dict[str, dict] = {}
                for family, model in models.items():
                    # The timed clean run doubles as the attack
                    # engine's cached clean side: run(rng=None) with
                    # config.rng == derived seed is the identical run.
                    cache = _CleanRunCache()
                    cache["clean_algo"] = clean
                    if backend is not None:
                        cache["resolved"] = backend
                    impact = attack_impact(
                        graph, trust, model,
                        targets=targets,
                        config=config,
                        backend=backend if backend is not None else "auto",
                        algorithm=algorithm,
                        _clean_cache=cache,
                    )
                    attack_cells[family] = {
                        "shift_rms": round(impact.rms_gclr, 8),
                        "shift_unweighted": round(impact.rms_unweighted, 8),
                        "amplification": round(
                            attack_amplification(impact.rms_unweighted, impact.rms_gclr),
                            4,
                        ),
                    }
                cells.append(
                    {
                        "scenario": scenario_name,
                        "algorithm": algorithm_name,
                        "backend": backend if backend is not None else "n/a",
                        "accuracy_rms": round(clean.rms_error, 10),
                        "accuracy_max_abs": round(clean.max_abs_error, 10),
                        "rounds": clean.rounds,
                        "messages": clean.messages,
                        "messages_per_node": round(clean.messages_per_node, 4),
                        "wall_clock_seconds": round(clean.wall_clock_seconds, 4),
                        "converged": bool(clean.converged),
                        "attacks": attack_cells,
                    }
                )
                if progress:
                    print(
                        f"  {scenario_name:22s} {algorithm_name:15s} "
                        f"{backend or 'n/a':8s} rounds={clean.rounds:5d} "
                        f"msgs={clean.messages:9d} rms={clean.rms_error:.2e} "
                        f"({clean.wall_clock_seconds:.2f}s)"
                    )

    leaderboard = []
    for algorithm_name in algorithm_names:
        algorithm = get_algorithm(algorithm_name)
        for backend in backend_names if algorithm.uses_backend else ["n/a"]:
            rows = [
                c for c in cells
                if c["algorithm"] == algorithm_name and c["backend"] == backend
            ]
            if not rows:
                continue
            amplifications = [
                a["amplification"] for c in rows for a in c["attacks"].values()
            ]
            leaderboard.append(
                {
                    "algorithm": algorithm_name,
                    "backend": backend,
                    "mean_accuracy_rms": round(
                        float(np.mean([c["accuracy_rms"] for c in rows])), 10
                    ),
                    "mean_rounds": round(float(np.mean([c["rounds"] for c in rows])), 2),
                    "mean_messages_per_node": round(
                        float(np.mean([c["messages_per_node"] for c in rows])), 2
                    ),
                    "mean_amplification": round(float(np.mean(amplifications)), 4),
                    "total_wall_clock_seconds": round(
                        float(np.sum([c["wall_clock_seconds"] for c in rows])), 4
                    ),
                    "all_converged": all(c["converged"] for c in rows),
                }
            )
    leaderboard.sort(
        key=lambda row: (-row["mean_amplification"], row["mean_accuracy_rms"])
    )

    return {
        "benchmark": "tournament",
        "seed": seed,
        "small": small,
        "xi": xi,
        "num_targets": num_targets,
        "full_scale_cap": FULL_SCALE_CAP,
        "algorithms": algorithm_names,
        "backends": backend_names,
        "scenarios": scenario_meta,
        "attack_params": attack_params,
        "cells": cells,
        "leaderboard": leaderboard,
    }


def strip_timing(record: Dict[str, object]) -> Dict[str, object]:
    """A deep copy with every wall-clock field removed.

    Everything else in the record is bit-deterministic from ``seed``;
    comparing two stripped records is the determinism check the CI
    smoke leg runs.
    """
    clean = json.loads(json.dumps(record))
    for cell in clean.get("cells", []):
        cell.pop("wall_clock_seconds", None)
    for row in clean.get("leaderboard", []):
        row.pop("total_wall_clock_seconds", None)
    for key in ("host_cpus", "parallelism_expressible", "elapsed_seconds"):
        clean.pop(key, None)
    return clean


def write_record(record: Dict[str, object], path: str) -> None:
    """Commit-format JSON: sorted keys, indent 2, trailing newline."""
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run(seed: Optional[int] = None) -> ExperimentResult:
    """Experiment entry point: leaderboard table + committed artifact."""
    from repro.utils.hardware import host_metadata

    actual_seed = 2016 if seed is None else seed
    small = not full_scale_enabled()
    with Stopwatch() as watch:
        record = build_leaderboard(seed=actual_seed, small=small, progress=False)
    record.update(host_metadata())
    record["elapsed_seconds"] = round(watch.elapsed, 2)
    out = os.environ.get(OUTPUT_ENV, "").strip() or DEFAULT_OUTPUT
    write_record(record, out)

    headers = [
        "algorithm", "backend", "mean rms", "mean rounds",
        "msgs/node", "amplification", "converged",
    ]
    rows = [
        [
            row["algorithm"],
            row["backend"],
            row["mean_accuracy_rms"],
            row["mean_rounds"],
            row["mean_messages_per_node"],
            row["mean_amplification"],
            "yes" if row["all_converged"] else "no",
        ]
        for row in record["leaderboard"]
    ]
    notes = [
        f"{len(record['cells'])} cells: "
        f"{len(record['algorithms'])} algorithms x {len(record['scenarios'])} "
        f"scenario slices x {len(record['attack_params'])} attack families "
        f"(+ backend sweep for backend-routed algorithms)",
        "accuracy is measured against each algorithm's own exact aggregate "
        "(adapters document the reference and the message counting rule)",
        "amplification is eq. 17's unweighted/algorithm shift ratio: higher "
        "= the algorithm damps the attack more",
        f"leaderboard written to {out}",
    ]
    return ExperimentResult(
        experiment_id="tournament",
        title=f"Tournament leaderboard ({'small' if small else 'full'}, seed {actual_seed})",
        headers=headers,
        rows=rows,
        notes=notes,
        elapsed_seconds=watch.elapsed,
    )
