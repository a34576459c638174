"""Outcome digests of the message-level engine over a compact case matrix.

The message engine is the protocol-faithful reference the other engines
are checked against, so a refactor of its mailboxes, or of the
convergence protocol it drives, must not move a byte of its outcomes.
``tests/data/message_engine_digests.json`` pins one SHA-256 digest per
case over the final values, weights and extras, the step, push and
active node-step counts, and the whole ratio history.
:mod:`tests.test_message_engine` re-runs every case and compares.

The 32 cases cross four graphs (the Fig. 2 network, two PA graphs and a
graph with isolated nodes) with an eight-run two-level fractional
factorial over seven knobs: xi, patience, warmup, push rule, packet
loss, state width (``d = 1``, or ``d = 3`` with a dead column and a
``count`` extra) and sparse initial weights. When a change *intends* to
move these outcomes, regenerate and commit the diff::

    PYTHONPATH=src python -m tests.regen_message_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

DIGEST_PATH = Path(__file__).parent / "data" / "message_engine_digests.json"

GRAPHS = ("fig2", "pa40", "pa64", "isolated6")


def build_graph(name: str):
    from repro.network.graph import Graph
    from repro.network.preferential_attachment import preferential_attachment_graph
    from repro.network.topology_example import example_network

    if name == "fig2":
        return example_network()
    if name == "pa40":
        return preferential_attachment_graph(40, m=2, rng=5)
    if name == "pa64":
        return preferential_attachment_graph(64, m=1, rng=3)
    if name == "isolated6":
        return Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3)])
    raise KeyError(name)


def message_cases() -> List[Dict[str, object]]:
    """Every pinned case: 4 graphs x a 2^(7-4) design over the knobs."""
    cases = []
    for g, graph in enumerate(GRAPHS):
        for run in range(8):
            a, b, c = run & 1, (run >> 1) & 1, (run >> 2) & 1
            cases.append(
                dict(
                    id=f"{graph}-{run}",
                    graph=graph,
                    seed=(g + run) % 4,
                    xi=(1e-4, 1e-6)[a],
                    patience=(1, 3)[b],
                    warmup=(None, 0)[c],
                    rule=("differential", "k2")[a ^ b],
                    loss=(0.0, 0.2)[a ^ c],
                    width=(1, 3)[b ^ c],
                    sparse_weights=bool(a ^ b ^ c),
                )
            )
    return cases


def run_case(case: Dict[str, object]):
    from repro.core.differential import fixed_push_counts
    from repro.core.engine import MessageLevelGossip
    from repro.network.conditions import PacketLossModel

    graph = build_graph(case["graph"])
    n, d = graph.num_nodes, case["width"]
    seed = case["seed"]
    state_rng = np.random.default_rng(1000 + seed)
    values = state_rng.random((n, d))
    weights = np.ones((n, d))
    if case["sparse_weights"]:
        weights = (state_rng.random((n, d)) < 0.4).astype(np.float64)
        weights[0, 0] = 1.0
        if d > 1:
            weights[:, -1] = 0.0
    extras = {"count": np.ones((n, d))} if d > 1 else None
    push_counts = fixed_push_counts(graph, 2) if case["rule"] == "k2" else None
    loss = PacketLossModel(case["loss"], rng=seed + 50) if case["loss"] else None
    engine = MessageLevelGossip(graph, push_counts=push_counts, loss_model=loss, rng=seed)
    return engine.run(
        values,
        weights,
        xi=case["xi"],
        extras=extras,
        track_history=True,
        patience=case["patience"],
        warmup_steps=case["warmup"],
    )


def outcome_digest(outcome) -> str:
    """SHA-256 over everything the pin covers (not ``converged`` or protocol messages)."""
    digest = hashlib.sha256()

    def feed(array):
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())

    feed(outcome.values)
    feed(outcome.weights)
    for name in sorted(outcome.extras):
        digest.update(name.encode())
        feed(outcome.extras[name])
    counts = (outcome.steps, outcome.push_messages, outcome.active_node_steps)
    digest.update(repr(counts).encode())
    for snapshot in outcome.ratio_history:
        feed(snapshot)
    return digest.hexdigest()


def main() -> int:
    records = []
    for case in message_cases():
        outcome = run_case(case)
        records.append({"id": case["id"], "steps": outcome.steps, "digest": outcome_digest(outcome)})
    DIGEST_PATH.parent.mkdir(parents=True, exist_ok=True)
    with DIGEST_PATH.open("w") as handle:
        json.dump({"cases": records}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGEST_PATH} ({len(records)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
