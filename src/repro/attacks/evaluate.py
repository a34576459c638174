"""Attack-impact measurement through the unified gossip backend layer.

One measurement = two vector-gclr aggregation runs over the same gossip
randomness — once in the honest world, once in the attack-poisoned copy
— compared by the paper's eq.-18 average RMS error. Sharing the seed
between the two runs cancels gossip noise, so the measured error
isolates the attack effect.

:func:`attack_impact` measures **any registered attack family**
(:mod:`repro.attacks.models`) on any registered gossip backend; for
topology-touching attacks (sybil floods) the dirty run executes on the
enlarged overlay and the eq.-18 comparison restricts to the original
honest peers. :func:`attack_impact_series` replays the same measurement
per epoch, which is what makes on–off oscillation and per-epoch
whitewashing observable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AggregationAlgorithm, AlgorithmOutcome

from repro.attacks.collusion import CollusionAttack, apply_collusion
from repro.attacks.models import AttackModel, make_attack
from repro.core.backend import GossipConfig, choose_backend_name
from repro.core.results import GossipOutcome
from repro.core.vector_gclr import gclr_reputations, true_vector_gclr
from repro.facade import aggregate
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import as_generator

AttackLike = Union[AttackModel, CollusionAttack, str]


@dataclass(frozen=True)
class AttackImpact:
    """Eq.-18 RMS errors of one attack, weighted vs unweighted scheme.

    Attributes
    ----------
    rms_gclr:
        Average RMS error of Differential Gossip Trust (GCLR weights).
        When ``algorithm=`` was given, this column holds the measured
        algorithm's clean-vs-poisoned shift instead (one unified column,
        so sweep code reads the same field for every algorithm).
    rms_unweighted:
        Same attack against the plain global average (eqs. 8–12), the
        comparator whose gap to ``rms_gclr`` is eq. 17's damping.
    clean_outcome, dirty_outcome:
        Raw gossip outcomes (``None`` under ``use_gossip=False`` and on
        the ``algorithm=`` path).
    backend:
        Resolved backend name both runs executed on (``None`` for the
        exact-fixpoint path and for non-backend algorithms).
    epoch:
        The epoch the attack was applied at (on–off phases).
    num_nodes_dirty:
        Node count of the poisoned world (> clean for sybil floods).
    algorithm:
        Canonical registry name of the measured algorithm, or ``None``
        for the classic vector-gclr path.
    clean_algo_outcome, dirty_algo_outcome:
        The two :class:`~repro.algorithms.base.AlgorithmOutcome` runs on
        the ``algorithm=`` path (``None`` otherwise).
    """

    rms_gclr: float
    rms_unweighted: float
    clean_outcome: Optional[GossipOutcome] = None
    dirty_outcome: Optional[GossipOutcome] = None
    backend: Optional[str] = None
    epoch: int = 0
    num_nodes_dirty: int = 0
    algorithm: Optional[str] = None
    clean_algo_outcome: Optional["AlgorithmOutcome"] = None
    dirty_algo_outcome: Optional["AlgorithmOutcome"] = None


@dataclass(frozen=True)
class _ConcreteCollusion(AttackModel):
    """Adapter: a fixed :class:`CollusionAttack` as an AttackModel."""

    name = "collusion"

    attack: CollusionAttack = None  # type: ignore[assignment]
    seed: int = 0

    def apply(self, trust, overlay=None, *, epoch: int = 0):
        return apply_collusion(trust, self.attack), overlay


def as_attack_model(attack: AttackLike) -> AttackModel:
    """Coerce an attack argument to an :class:`AttackModel`.

    Accepts a model instance, a concrete :class:`CollusionAttack`
    (wrapped — the pre-engine API) or a registered family name (built
    with that family's default parameters).
    """
    if isinstance(attack, AttackModel):
        return attack
    if isinstance(attack, CollusionAttack):
        return _ConcreteCollusion(attack=attack)
    if isinstance(attack, str):
        return make_attack(attack)
    raise TypeError(
        f"attack must be an AttackModel, CollusionAttack or registered family "
        f"name, got {type(attack).__name__}"
    )


def _derive_seed(config: GossipConfig) -> int:
    """One integer seed reused by both runs (noise cancellation).

    ``rng=None`` keeps the library-wide fresh-entropy convention: a
    random seed is drawn once and shared by the clean/dirty pair.
    """
    if config.rng is None:
        return int(as_generator(None).integers(2**62))
    if isinstance(config.rng, (int, np.integer)):
        return int(config.rng)
    return int(as_generator(config.rng).integers(2**62))


def _poisoned_world(
    graph: Graph, trust: TrustMatrix, model: AttackModel, epoch: int
) -> tuple:
    """Apply ``model`` at ``epoch``; return ``(dirty_graph, dirty_trust)``.

    Matrix-only attacks keep the honest topology; topology-touching
    attacks get a fresh overlay wrap so sybils join ids ``N..N+S-1``
    and the snapshot maps them back to contiguous graph nodes.
    """
    if not model.affects_topology:
        return graph, model.poison(trust, epoch=epoch)
    from repro.network.mutable import MutableOverlay

    poisoned, flooded = model.apply(
        trust, MutableOverlay.from_graph(graph), epoch=epoch
    )
    dirty_graph, pids = flooded.snapshot()
    if not np.array_equal(pids, np.arange(dirty_graph.num_nodes)):
        raise ValueError(
            f"attack {model.name!r} produced non-contiguous peer ids; "
            "topology attacks must only add peers to a fresh overlay wrap"
        )
    return dirty_graph, poisoned


class _CleanRunCache(dict):
    """Private epoch-invariant pieces of a measurement (series reuse).

    The clean world does not depend on the attack epoch, so a series
    computes its gossip run, reputations, unweighted estimate and the
    resolved backend once and replays only the dirty side per epoch.
    """


def attack_impact(
    graph: Graph,
    trust: TrustMatrix,
    attack: AttackLike,
    *,
    targets: Optional[Sequence[int]] = None,
    use_gossip: bool = True,
    config: Optional[GossipConfig] = None,
    backend: str = "auto",
    epoch: int = 0,
    algorithm: Optional[Union[str, "AggregationAlgorithm"]] = None,
    _clean_cache: Optional[_CleanRunCache] = None,
) -> AttackImpact:
    """Measure eq.-18 RMS error for one attack on any backend.

    Parameters
    ----------
    graph, trust:
        The honest world.
    attack:
        An :class:`~repro.attacks.models.AttackModel`, a concrete
        :class:`~repro.attacks.collusion.CollusionAttack` (wrapped), or
        a registered family name with default parameters. The honest
        matrix is never mutated.
    targets:
        Tracked reputation columns (default: every honest node).
    use_gossip:
        ``True`` runs real differential gossip on ``backend``; ``False``
        uses the exact eq.-6 fixpoint (large sweeps, benchmarks).
    config:
        Gossip knobs, forwarded whole through :func:`repro.aggregate`
        (``k``, ``warmup_steps``, ``max_steps``, ... all apply);
        ``config.params`` holds the GCLR weighting constants. ``rng``
        is reduced to one integer seed shared by the
        clean and poisoned runs. Packet loss rides on ``config.network``
        and draws from a stream derived statelessly from that seed
        (:meth:`~repro.core.backend.GossipConfig.link_stream`), so it
        replays identically in the clean and poisoned runs: both gossip
        noise and loss noise cancel.
    backend:
        Registered gossip backend name. The default ``"auto"`` follows
        :func:`~repro.core.backend.choose_backend_name` — resolved
        *once*, against the poisoned (larger) world, so the clean and
        dirty runs always execute on the same engine. An explicit name
        pins one.
    epoch:
        Attack epoch — on–off families poison only during their duty
        cycle's attack phases.
    algorithm:
        ``None`` (default) measures Differential Gossip Trust through
        the classic vector-gclr path — byte-identical to the
        pre-registry behaviour. A registered algorithm name (or
        :class:`~repro.algorithms.base.AggregationAlgorithm` instance)
        instead runs *that* algorithm on the clean and poisoned worlds
        under one shared seed and reports its estimate shift in
        ``rms_gclr``; ``use_gossip`` and ``config.params`` are ignored
        on this path (the adapter owns its own execution), while ``config``,
        ``backend`` (for backend-routed algorithms) and the
        noise-cancellation seed discipline apply unchanged.

    Returns
    -------
    AttackImpact
        Eq.-18 errors for the weighted scheme and the unweighted
        comparator, plus the raw outcomes when gossip ran.

    Examples
    --------
    >>> from repro import make_attack
    >>> from repro.network.topology_example import example_network
    >>> from repro.trust.matrix import complete_trust_matrix
    >>> impact = attack_impact(
    ...     example_network(), complete_trust_matrix(10, rng=1),
    ...     make_attack("collusion", fraction=0.3, group_size=2, seed=2),
    ...     use_gossip=False)  # exact eq.-6 fixpoint, no gossip round
    >>> impact.num_nodes_dirty
    10
    >>> impact.rms_gclr >= 0.0
    True
    """
    from repro.analysis.metrics import average_rms_error
    from repro.baselines.gossip_trust import unweighted_global_estimate

    model = as_attack_model(attack)
    n = graph.num_nodes
    target_list = list(targets) if targets is not None else list(range(n))
    dirty_graph, poisoned = _poisoned_world(graph, trust, model, epoch)
    config = config if config is not None else GossipConfig(xi=1e-5)
    params = config.params

    cache = _clean_cache if _clean_cache is not None else _CleanRunCache()

    def unweighted_rms() -> float:
        if "clean_unweighted" not in cache:
            cache["clean_unweighted"] = unweighted_global_estimate(trust)[target_list]
        clean_unweighted = cache["clean_unweighted"]
        dirty_unweighted = unweighted_global_estimate(poisoned)[target_list]
        # The unweighted estimate is the same at every node, so eq. 18's
        # mean-over-rows collapses to the single row's RMS — tiling n
        # identical rows would be O(n*T) memory for the same number.
        return average_rms_error(dirty_unweighted[None, :], clean_unweighted[None, :])

    if algorithm is not None:
        from repro.algorithms import get_algorithm

        algo = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        seed = _derive_seed(config)
        algo_resolved: Optional[str] = None
        if algo.uses_backend:
            algo_resolved = cache.get("resolved")
            if algo_resolved is None:
                algo_resolved = (
                    choose_backend_name(dirty_graph, replace(config, rng=seed))
                    if backend == "auto"
                    else backend
                )
                cache["resolved"] = algo_resolved
        if "clean_algo" not in cache:
            cache["clean_algo"] = algo.prepare(
                graph, trust, config, targets=target_list,
                backend=algo_resolved or backend,
            ).run(rng=seed)
        clean_algo = cache["clean_algo"]
        dirty_algo = algo.prepare(
            dirty_graph, poisoned, config, targets=target_list,
            backend=algo_resolved or backend,
        ).run(rng=seed)
        # Eq.-18 comparison of what the honest peers believe; per-node
        # where the algorithm exposes it, network-level otherwise.
        if clean_algo.node_estimates is not None and dirty_algo.node_estimates is not None:
            rms_algo = average_rms_error(
                dirty_algo.node_estimates[:n], clean_algo.node_estimates
            )
        else:
            rms_algo = average_rms_error(
                dirty_algo.estimates[None, :], clean_algo.estimates[None, :]
            )
        return AttackImpact(
            rms_gclr=rms_algo,
            rms_unweighted=unweighted_rms(),
            backend=algo_resolved,
            epoch=epoch,
            num_nodes_dirty=dirty_graph.num_nodes,
            algorithm=algo.name,
            clean_algo_outcome=clean_algo,
            dirty_algo_outcome=dirty_algo,
        )

    clean_outcome = dirty_outcome = None
    resolved: Optional[str] = None
    if use_gossip:
        run_config = replace(config, rng=_derive_seed(config))
        # Resolve once — against the poisoned (larger) world, or from
        # the series cache so every epoch runs on the same engine.
        resolved = cache.get("resolved")
        if resolved is None:
            resolved = (
                choose_backend_name(dirty_graph, run_config)
                if backend == "auto"
                else backend
            )
            cache["resolved"] = resolved
        target_array = np.asarray(target_list, dtype=np.int64)
        if "clean" not in cache:
            clean_outcome = aggregate(
                graph,
                trust,
                run_config,
                backend=resolved,
                variant="vector-gclr",
                targets=target_list,
            )
            cache["clean"] = (
                clean_outcome,
                gclr_reputations(graph, trust, target_array, clean_outcome, params, "all"),
            )
        clean_outcome, clean = cache["clean"]
        dirty_outcome = aggregate(
            dirty_graph,
            poisoned,
            run_config,
            backend=resolved,
            variant="vector-gclr",
            targets=target_list,
        )
        dirty = gclr_reputations(
            dirty_graph, poisoned, target_array, dirty_outcome, params, "all"
        )
    else:
        if "clean_exact" not in cache:
            cache["clean_exact"] = true_vector_gclr(graph, trust, target_list, params, "all")
        clean = cache["clean_exact"]
        dirty = true_vector_gclr(dirty_graph, poisoned, target_list, params, "all")

    # Eq. 18 compares what the *honest* peers believe; sybil rows (ids
    # >= N) are the attacker's own vantage and are excluded.
    rms_gclr = average_rms_error(dirty[:n], clean)
    rms_unweighted = unweighted_rms()
    return AttackImpact(
        rms_gclr=rms_gclr,
        rms_unweighted=rms_unweighted,
        clean_outcome=clean_outcome,
        dirty_outcome=dirty_outcome,
        backend=resolved,
        epoch=epoch,
        num_nodes_dirty=dirty_graph.num_nodes,
    )


def attack_impact_series(
    graph: Graph,
    trust: TrustMatrix,
    attack: AttackLike,
    *,
    epochs: int,
    targets: Optional[Sequence[int]] = None,
    use_gossip: bool = True,
    config: Optional[GossipConfig] = None,
    backend: str = "auto",
    algorithm: Optional[Union[str, "AggregationAlgorithm"]] = None,
) -> List[AttackImpact]:
    """Per-epoch impact trace: :func:`attack_impact` at epochs ``0..E-1``.

    All epochs share one derived seed, so the *clean* run's gossip noise
    is identical across the series and epoch-to-epoch differences are
    attack dynamics only — an on–off adversary traces its duty cycle
    (``rms_gclr`` collapses to 0 in every honest phase), a static
    adversary traces a flat line. Because the clean world is
    epoch-invariant, its gossip run (and the ``"auto"`` backend
    resolution) executes once and is reused by every epoch's
    measurement — all returned impacts share one ``clean_outcome``.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    config = config if config is not None else GossipConfig(xi=1e-5)
    shared = replace(config, rng=_derive_seed(config))
    cache = _CleanRunCache()
    return [
        attack_impact(
            graph,
            trust,
            attack,
            targets=targets,
            use_gossip=use_gossip,
            config=shared,
            backend=backend,
            epoch=epoch,
            algorithm=algorithm,
            _clean_cache=cache,
        )
        for epoch in range(epochs)
    ]
