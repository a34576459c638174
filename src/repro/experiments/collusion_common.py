"""Shared machinery for the collusion experiments (Figures 5–6, eq. 17).

One measurement = two aggregation runs over the *same* topology and the
same gossip randomness — once with the honest trust matrix, once with
the colluder-poisoned copy — compared by the paper's eq.-18 average RMS
error. Sharing the seed between the two runs cancels gossip noise, so
the measured error isolates the collusion effect, which is what
Figures 5 and 6 plot.

The experiments use the ``"all"`` denominator convention (divide by
``N``): that is the convention of the collusion analysis (eqs. 8–17),
under which "report 0" and "no report" coincide for the numerator but
colluders cannot manipulate the denominator by merely showing up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.attacks.collusion import CollusionAttack, group_colluders, select_colluders
from repro.attacks.evaluate import attack_impact
from repro.core.backend import GossipConfig
from repro.core.weights import WeightParams
from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.trust.matrix import TrustMatrix, complete_trust_matrix, random_trust_matrix
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class CollusionMeasurement:
    """Eq.-18 RMS errors from one attack configuration.

    Attributes
    ----------
    fraction:
        Colluding fraction of the population.
    group_size:
        ``G``.
    rms_gclr:
        Average RMS error of Differential Gossip Trust (GCLR-weighted).
    rms_unweighted:
        Average RMS error of the unweighted global average (the "old"
        scheme of eqs. 8–12) on the same attack — the comparator that
        shows the weighting's damping.
    num_colluders:
        Realised ``C``.
    """

    fraction: float
    group_size: int
    rms_gclr: float
    rms_unweighted: float
    num_colluders: int


def build_world(
    num_nodes: int,
    *,
    m: int = 2,
    observations_per_node: Optional[int] = None,
    seed: int = 0,
) -> tuple:
    """One collusion-experiment world: PA graph + honest trust matrix.

    The paper's system model assumes a *heavily loaded* network — every
    peer has pending transactions with everyone, so by default the trust
    matrix is fully observed (every ordered pair holds an opinion).
    With sparse observation (say, only the ~2m overlay neighbours) a
    handful of badmouthing colluders can zero out a column, and eq. 18's
    relative error would measure observation scarcity rather than the
    attack. Pass ``observations_per_node`` to study exactly that sparse
    regime instead.
    """
    root = as_generator(seed)
    graph = preferential_attachment_graph(num_nodes, m=m, rng=as_generator(int(root.integers(2**62))))
    if observations_per_node is None:
        trust = complete_trust_matrix(num_nodes, rng=as_generator(int(root.integers(2**62))))
    else:
        trust = random_trust_matrix(
            graph,
            extra_pairs=observations_per_node * num_nodes,
            rng=as_generator(int(root.integers(2**62))),
        )
    return graph, trust


def measure_collusion(
    graph: Graph,
    trust: TrustMatrix,
    attack: CollusionAttack,
    *,
    params: WeightParams = WeightParams(),
    targets: Optional[Sequence[int]] = None,
    use_gossip: bool = True,
    xi: float = 1e-5,
    seed: int = 0,
    backend: str = "auto",
) -> tuple:
    """Measure eq.-18 RMS error for one concrete attack.

    Thin wrapper over :func:`repro.attacks.evaluate.attack_impact`,
    kept for the tuple return shape the figure experiments consume.
    ``attack`` may equally be any
    :class:`repro.attacks.models.AttackModel` — the measurement is
    family-agnostic.

    Parameters
    ----------
    graph, trust:
        The honest world.
    attack:
        The collusion instance to inject.
    params:
        GCLR weighting constants.
    targets:
        Tracked reputation columns (default: every node).
    use_gossip:
        ``True`` runs the actual differential gossip (identical seeds
        for clean/poisoned, so gossip noise cancels); ``False`` uses the
        exact eq.-6 fixpoint, which the gossip provably approaches —
        handy for large sweeps and repeated benchmark iterations.
    xi, seed:
        Gossip controls (ignored when ``use_gossip`` is False).
    backend:
        Registered gossip backend the rounds run on; the default
        ``"auto"`` follows :func:`repro.core.backend.choose_backend_name`.

    Returns
    -------
    (rms_gclr, rms_unweighted):
        Eq.-18 errors for the weighted scheme and the unweighted
        comparator.
    """
    impact = attack_impact(
        graph,
        trust,
        attack,
        targets=targets,
        use_gossip=use_gossip,
        config=GossipConfig(xi=xi, params=params, rng=seed),
        backend=backend,
    )
    return impact.rms_gclr, impact.rms_unweighted


def sweep_collusion(
    num_nodes: int,
    fractions: Sequence[float],
    group_sizes: Sequence[int],
    *,
    params: WeightParams = WeightParams(),
    num_targets: int = 40,
    use_gossip: bool = True,
    xi: float = 1e-5,
    seed: int = 0,
    m: int = 2,
    backend: str = "auto",
) -> list:
    """Full (fraction x group size) sweep; returns CollusionMeasurement list."""
    root = as_generator(seed)
    graph, trust = build_world(num_nodes, m=m, seed=int(root.integers(2**62)))
    target_rng = as_generator(int(root.integers(2**62)))
    num_targets = min(num_targets, num_nodes)
    targets = sorted(
        int(t) for t in target_rng.choice(num_nodes, size=num_targets, replace=False)
    )

    measurements = []
    for group_size in group_sizes:
        for fraction in fractions:
            colluders = select_colluders(
                num_nodes, fraction, rng=as_generator(int(root.integers(2**62)))
            )
            attack = group_colluders(colluders, group_size)
            rms_gclr, rms_unweighted = measure_collusion(
                graph,
                trust,
                attack,
                params=params,
                targets=targets,
                use_gossip=use_gossip,
                xi=xi,
                seed=int(root.integers(2**62)),
                backend=backend,
            )
            measurements.append(
                CollusionMeasurement(
                    fraction=fraction,
                    group_size=group_size,
                    rms_gclr=rms_gclr,
                    rms_unweighted=rms_unweighted,
                    num_colluders=attack.num_colluders,
                )
            )
    return measurements
